"""Spans and counters recorded around calls into gbskit, from outside it.

A `Tracer` replaces each traced gbskit function in every gbskit module that
holds a reference to it, so a caller that imported the function by name
(`from .matfn import torontonian`) reaches the wrapper just like a caller
that looks it up through its module (`gaussian.mean_clicks`). Spans are
kept in memory as (name, start, end, parent) and written out once, by
`write`, when the run ends.

Every span belongs to the root span (`setup` or `op`) it runs under. The
wrappers are installed only inside a root, so the benchmark's own output
checks, which call gbskit too, leave no spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import sys
import time

from gbskit import (
    bench, cli, encoding, files, gaussian, generators, linalg, matfn, sampler,
    solvers,
)

# (module, function) pairs wrapped in a span; files and generators are
# wrapped whole and reported as one layer each
SPANNED = [
    (linalg, "takagi"),
    (matfn, "torontonian"),
    (matfn, "hafnian_sq_mod"),
    (gaussian, "mean_clicks"),
    (gaussian, "pattern_probability"),
    (gaussian, "state_from_device"),
    (gaussian, "apply_thermal"),
    (gaussian, "apply_loss"),
    (encoding, "choose_scale"),
    (encoding, "encode_graph"),
    (sampler, "sample"),
    (sampler, "postselect"),
    (sampler, "save_pool"),
    (sampler, "load_pool"),
    (solvers, "density"),
    (solvers, "random_search"),
    (solvers, "simulated_annealing"),
    (bench, "resampled_pool_source"),
    (bench, "noise_sweep"),
    (cli, "main"),
] + [(files, name) for name in files.__all__] + [
    (generators, name) for name in generators.__all__
]

# counters taken from a spanned call's arguments and result
_COUNTERS = {
    "sampler.sample": lambda args, res: {"sampler.sample.draws": len(res)},
    "sampler.postselect": lambda args, res: {
        "sampler.postselect.kept": len(res),
        "sampler.postselect.seen": len(args[0]),
    },
}

ROOTS = ("setup", "op")


class Tracer:
    """In-memory spans and counters; the wrappers are on only inside `root`."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = {root: collections.Counter() for root in ROOTS}
        self._stack: list = []
        self._root = None
        self._patches = self._build_patches()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                self.counts[self._root].update(count(args, res))
            return res

        return traced

    def _objective_value(self, fn):
        @functools.wraps(fn)
        def counted(obj, subset):
            c = self.counts[self._root]
            c["solvers.objective.evals"] += 1
            if obj.kind == "maxhaf":
                c["solvers.objective.maxhaf_evals"] += 1
            return fn(obj, subset)

        return counted

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every reference to a
        traced function held by a gbskit module."""
        patches = []
        modules = [m for name, m in sys.modules.items()
                   if name == "gbskit" or name.startswith("gbskit.")]
        for module, attr in SPANNED:
            fn = getattr(module, attr)
            wrapper = self._span(f"{module.__name__.split('.')[-1]}.{attr}", fn)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        patches.append((m, name, fn, wrapper))
        value = solvers.Objective.value
        patches.append(
            (solvers.Objective, "value", value, self._objective_value(value))
        )
        return patches

    @contextlib.contextmanager
    def root(self, name: str):
        """Switch the wrappers on and record the calls inside as children of
        one top-level span, `setup` or `op`."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._root = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), -1)
            self._root = None
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as tab-separated name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")

    def layer_table(self, traced_ops: int) -> dict:
        """Per span name: calls, s and self_s for one set-up plus one mean op.

        `s` counts a span only when its parent has a different name, so a
        function that calls itself is not counted twice. `outer_s` counts it
        only when its parent lies in another module, which is what a whole
        module's time (`files`, `generators`) is summed from.
        """
        n = len(self.spans)
        names = [s[0] for s in self.spans]
        dur = [s[2] - s[1] for s in self.spans]
        parent = [s[3] for s in self.spans]
        child = [0.0] * n
        root = [""] * n
        for i in range(n):
            p = parent[i]
            if p < 0:
                root[i] = names[i]
            else:
                root[i] = root[p]
                child[p] += dur[i]
        fields = ("calls", "s", "self_s", "outer_s")
        sums = {r: collections.defaultdict(lambda: dict.fromkeys(fields, 0.0))
                for r in ROOTS}
        for i in range(n):
            if parent[i] < 0 or root[i] not in sums:
                continue
            row = sums[root[i]][names[i]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            pname = names[parent[i]]
            if pname != names[i]:
                row["s"] += dur[i]
            if pname.split(".")[0] != names[i].split(".")[0]:
                row["outer_s"] += dur[i]
        setup, op, ops = sums["setup"], sums["op"], max(traced_ops, 1)
        return {
            name: {f: setup[name][f] + op[name][f] / ops for f in fields}
            for name in set(setup) | set(op)
        }

    def counter(self, name: str, traced_ops: int) -> float:
        return self.counts["setup"][name] + (
            self.counts["op"][name] / max(traced_ops, 1)
        )
