"""Subgraph objectives and stochastic search algorithms.

Two objectives (largest |Hafnian|^2 and largest density), two stochastic
searchers (random search and simulated annealing) that can draw proposals
either uniformly or from a sample pool, and the deterministic greedy-peeling
baseline for dense subgraphs.

The searchers read their randomness from one seeded stream, version
`STREAM`: uniforms from `numpy.random.default_rng(seed).random`, taken in
order, `_CHUNK` steps' worth per call. Reading them in order makes every
trace independent of the chunk size.
- A uniform proposal reads n uniforms and is the k vertices with the
  smallest of them, ascending. Random search draws a (count, n) block per
  chunk; simulated annealing's uniform start is one such row.
- Each annealing step reads 4 uniforms, drawn as a (count, 4) block per
  chunk: the jump uniform (a pool jump iff it is below jump_prob), the
  inside index floor(u k) into the sorted subset, the outside index
  floor(u (n - k)) into the sorted complement, and the acceptance uniform,
  compared with libm's exp((proposed - current) / T); once T has
  underflowed to 0, every worse proposal is rejected.

Pool proposals are the pool's P clicked subsets in order, back to the first
after the last: row i mod P at random search's step i (from 0), and row 0 as
annealing's start, then the next row at each jump. `RunTrace.pool_wrapped`
is whether a run took row P - 1.

Every stream since 2 keeps the searchers' stream above and changes only
bench's draws; the README's "Determinism and cost guards" section has their
history.

`Objective.values` is the checked valuation path, the subset rule and then
its unchecked core `_values`; `value` is its one-row call. Rows the program
builds skip the rule: `_mask_values` values click masks (a noise sweep's
table and pools) through that core, integer density as one exact matrix
product with `values`' bits. Random search does not adapt to the values it
sees, and its uniform and pool rows are ascending and distinct, so it values
each chunk with one `_values` call: |Hafnian|^2 of each distinct proposal
once, through matfn's stacked hafnian kernel (a perfect-matching table for
k <= 10, the division-free recursion above) without re-checking the
graph's already checked submatrices. Its traces are bit-identical to
valuing one step at a time. Annealing on density keeps the complex row sums
r = a[:, S].sum(1) of its subset S and their sum t over S, and values a swap
u -> w as |t - 2 r_u + a_uu + 2 (r_w - a_wu) + a_ww|, in O(1), and builds
the swapped subset only if it is accepted; an accepted swap updates r in
O(n). A chunk's pool jumps are taken from the pool, and their r and t
summed, once, before its loop. Annealing on |Hafnian|^2 values a proposal
missing from the cache alone, through `values`' miss step but without the
subset rule: every one is a pool row or a swap in a subset that passed it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian, sampler
from .encoding import Graph
from .errors import ValidationError
from .matfn import _hafnians

__all__ = [
    "Objective",
    "ProposalSource",
    "RunTrace",
    "density",
    "random_search",
    "simulated_annealing",
    "greedy_peel",
]

# |Hafnian|^2 values an Objective keeps; the oldest is evicted first
_HAF_CACHE_MAX = 1 << 16
# version of the searchers' and bench pools' random stream, recorded with
# their outputs
STREAM = 6
# steps whose uniforms are drawn (and, in random search, valued) together
_CHUNK = 1024


def density(g: Graph, subset) -> float:
    """Subgraph density |sum over the induced submatrix| (both edge
    directions counted, diagonal included as stored)."""
    return float(abs(g.subgraphs([list(subset)])[0].sum()))


@dataclass
class Objective:
    """Either 'maxhaf' (|Hafnian|^2) or 'density' at fixed subgraph size k,
    an integer other than a bool (numpy integers are stored as int)."""

    kind: str
    graph: Graph
    k: int
    _haf_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("maxhaf", "density"):
            raise ValidationError(f"unknown objective kind {self.kind!r}")
        self.k = gaussian._integer(self.k, "subgraph size k")
        if not 0 < self.k < self.graph.n:
            raise ValidationError(
                f"subgraph size k must lie in (0, {self.graph.n}), got {self.k}"
            )
        if self.kind == "maxhaf" and self.k % 2 != 0:
            raise ValidationError("maxhaf requires an even subgraph size")

    def value(self, subset) -> float:
        """`values` of one k-subset: the same bits, cache and refusals."""
        return float(self.values([list(subset)])[0])

    def _haf_of(self, key: tuple) -> float:
        """`value` of a sorted maxhaf subset tuple that the subset rule
        already passed, such as an annealing proposal, without running the
        rule again."""
        v = self._haf_cache.get(key)
        return self._misses([key], np.array([key]))[0][1] if v is None else v

    def values(self, subsets) -> np.ndarray:
        """Values of the rows of an (N, k) vertex-index array, each passed
        by `Graph.checked_subsets`: density sums each row's submatrix as
        `density` does, and |Hafnian|^2 values each distinct sorted subset
        once, with `hafnian_sq_mod`'s bits."""
        rows = np.asarray(subsets)
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValidationError(
                f"expected an (N, {self.k}) subset array, got shape {rows.shape}"
            )
        return self._values(*self.graph.checked_subsets(rows))

    def _values(self, rows: np.ndarray, ordered: np.ndarray) -> np.ndarray:
        """`values` of (N, k) intp rows that the subset rule passed, given
        with the same rows each sorted ascending, without running the rule
        again."""
        if self.kind == "density":
            # one gathered sum per row, in the order given, as `density` sums
            sums = self.graph.gather(rows).reshape(len(rows), self.k**2).sum(axis=1)
            # Python's abs bits, by libm's hypot; abs again where it overflows, to raise
            with np.errstate(over="ignore"):
                mods = np.hypot(sums.real, sums.imag)
            for z in sums[np.isinf(mods)].tolist():
                abs(z)
            return mods
        # each distinct sorted subset once, with a row holding it, first seen first
        keys = list(map(tuple, ordered.tolist()))
        row_of = dict(zip(keys, range(len(keys))))
        vals = {key: self._haf_cache.get(key) for key in row_of}
        miss = [key for key, v in vals.items() if v is None]
        if miss:
            vals.update(self._misses(miss, ordered[[row_of[key] for key in miss]]))
        return np.fromiter(map(vals.__getitem__, keys), float, len(keys))

    def _mask_values(self, masks: np.ndarray) -> np.ndarray:
        """Values of the k-subsets whose click masks (bit i for vertex i)
        are given, in any order and with repeats, with `values`' bits,
        `_CHUNK` masks at a time. Density on entries with integer real and
        imaginary parts, k^2 max |a_ij| < 2^53, is a float64 product: with B
        the masks' 0/1 bit matrix, each row of (B A) * B sums to the
        subset's edge sum and every partial sum is an integer below 2^53, so
        exact in any order: `values`' sums, whose modulus hypot takes as
        there. Other masks are decoded as a pool's, ascending and distinct by
        construction, and valued by `values`' core without the subset rule."""
        n, k = self.graph.n, self.k
        a = self.graph.adjacency
        parts = np.concatenate([a.real, a.imag], axis=1)  # [Re A, Im A]
        exact = (self.kind == "density" and np.all(parts == np.round(parts))
                 and k * k * np.abs(parts).max() < 2.0**53)

        def valued(chunk):
            bits = sampler._bits(chunk, n)
            if not exact:
                modes = sampler._clicked_modes(bits, k)
                return self._values(modes, modes)
            bits = bits.astype(float)
            sums = np.einsum("ijk,ik->ji", (bits @ parts).reshape(-1, 2, n), bits)
            return np.hypot(*sums)

        chunks = np.split(masks, range(_CHUNK, masks.size, _CHUNK))
        return np.concatenate([valued(chunk) for chunk in chunks])

    def _misses(self, keys: list, rows: np.ndarray) -> list:
        """(key, |Hafnian|^2) of uncached sorted subsets, `rows` their checked
        array, valued in one stacked call and cached in order, evicting oldest
        first as one insert per key would, never over `_HAF_CACHE_MAX`."""
        haf = _hafnians(self.graph.gather(rows)).tolist()
        found = [(key, float(abs(h) ** 2)) for key, h in zip(keys, haf)]
        cache, new = self._haf_cache, found[-_HAF_CACHE_MAX:]
        drop = max(len(cache) + len(new) - _HAF_CACHE_MAX, 0)
        for key in list(itertools.islice(cache, drop)):
            del cache[key]
        for key, v in new:
            cache[key] = v
        return found


@dataclass(frozen=True)
class ProposalSource:
    """Uniform k-subsets or the clicked vertex sets of a sample pool."""

    kind: str = "uniform"
    pool: sampler.SamplePool | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "pool"):
            raise ValidationError(f"unknown proposal source {self.kind!r}")
        if self.kind == "pool" and (self.pool is None or len(self.pool) == 0):
            raise ValidationError("pool source requires a nonempty sample pool")


@dataclass(frozen=True)
class RunTrace:
    """Best-so-far objective values per step, plus the winning subset."""

    best_values: np.ndarray
    best_subset: tuple
    steps_used: int
    seed: int
    pool_wrapped: bool = False

    def value_at(self, step: int) -> float:
        if not 1 <= step <= self.steps_used:
            raise ValidationError(f"step {step} outside [1, {self.steps_used}]")
        return float(self.best_values[step - 1])

    def steps_to_reach(self, target: float) -> int | None:
        """First step at which the best value reached the target, or None."""
        hits = np.flatnonzero(self.best_values >= target)
        return int(hits[0]) + 1 if hits.size else None


def _pool_subsets(obj: Objective, source: ProposalSource) -> np.ndarray | None:
    """The pool's (P, k) subset array, or None for uniform proposals."""
    if source.kind != "pool":
        return None
    if source.pool.modes != obj.graph.n:
        raise ValidationError(
            f"pool mode count {source.pool.modes} does not match graph size "
            f"{obj.graph.n}"
        )
    return source.pool.subsets(obj.k)


def _uniform_subsets(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """`count` uniform k-subsets as a (count, k) array: row i holds the
    columns of the k smallest of row i of a (count, n) uniform block,
    ascending."""
    u = rng.random((count, n))
    return np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)


def _row_sums(a: np.ndarray, rows: np.ndarray) -> tuple[list, list]:
    """Row sums a[:, S].sum(1) of each row S of a (J, k) subset array, as J
    lists, and each one's sum over S. Both sums run along a contiguous last
    axis of length k, as they would for one subset at a time."""
    r = a[:, rows].sum(-1).T
    return r.tolist(), np.take_along_axis(r, rows, axis=1).sum(1).tolist()


def random_search(
    obj: Objective, source: ProposalSource, steps: int, seed: int
) -> RunTrace:
    """Draw one k-subset per step and keep the running best.

    Proposals are drawn and valued `_CHUNK` steps at a time; the trace
    and the best subset (the first proposal with the best value) are those
    of valuing each step in turn.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    pool = _pool_subsets(obj, source)
    rng = np.random.default_rng(seed)
    n, k = obj.graph.n, obj.k
    best_values = np.empty(steps)
    best_val = -np.inf
    best_sub: tuple = ()
    for lo in range(0, steps, _CHUNK):
        count = min(_CHUNK, steps - lo)
        props = (_uniform_subsets(rng, count, n, k) if pool is None
                 else pool[np.arange(lo, lo + count) % len(pool)])
        vals = obj._values(props, props)  # ascending, distinct and in range
        # fmax skips NaN, as the comparison `v > best` of one step does
        run = np.fmax.accumulate(vals)
        if run[-1] > best_val:
            i = int(np.argmax(vals == run[-1]))
            best_sub = tuple(props[i].tolist())
        best_values[lo:lo + count] = np.fmax(run, best_val)
        best_val = best_values[lo + count - 1]
    return RunTrace(
        best_values=best_values,
        best_subset=best_sub,
        steps_used=steps,
        seed=seed,
        pool_wrapped=bool(pool is not None and steps >= len(pool)),
    )


def simulated_annealing(
    obj: Objective,
    source: ProposalSource,
    steps: int,
    t0: float = 1.0,
    alpha: float = 0.995,
    jump_prob: float = 0.0,
    seed: int = 0,
) -> RunTrace:
    """Single-swap simulated annealing with geometric cooling.

    With a pool source, the initial subset comes from the pool and each step
    proposes a whole-subset jump to the next pool pattern with probability
    jump_prob; otherwise one inside vertex is swapped with one outside vertex.
    A worse proposal is taken with probability exp(-drop / T); once T
    underflows to 0, never, the limit of that probability. Density is
    valued from row sums, so its trace can differ from `density` of the
    same subset in the last bits on complex weights.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if not 0 < t0 < np.inf:
        raise ValidationError("initial temperature must be positive and finite")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("cooling factor alpha must lie in (0, 1)")
    if not 0.0 <= jump_prob < 1.0:
        raise ValidationError("jump probability must lie in [0, 1)")
    pool = _pool_subsets(obj, source)
    if pool is None:
        jump_prob = 0.0
    rng = np.random.default_rng(seed)
    n, k = obj.graph.n, obj.k
    a = obj.graph.adjacency
    entries = a.tolist()
    density = obj.kind == "density"

    start = _uniform_subsets(rng, 1, n, k) if pool is None else pool[:1]
    taken = 1  # pool rows taken so far, the start included
    cur = tuple(start[0].tolist())
    if density:
        (r,), (total,) = _row_sums(a, start)
        cur_val = abs(total)
    else:  # the pool's and the uniform rows pass the subset rule
        cur_val = obj._haf_of(cur)
    best_val, best_sub = cur_val, cur
    best_values = []
    temp, exp = t0, math.exp
    outside = [v for v in range(n) if v not in cur]
    for lo in range(0, steps, _CHUNK):
        draws = rng.random((min(_CHUNK, steps - lo), 4))
        jumps = (draws[:, 0] < jump_prob).tolist()
        ins = (draws[:, 1] * k).astype(int).tolist()
        outs = (draws[:, 2] * (n - k)).astype(int).tolist()
        accepts = draws[:, 3].tolist()
        if pool is not None:
            # the chunk's pool jumps, in order, taken and summed at once
            hops = pool[(taken + np.arange(jumps.count(True))) % len(pool)]
            taken += len(hops)
            hop_subs = map(tuple, hops.tolist())
            hop_sums = zip(*_row_sums(a, hops)) if density else None
        for jump, i, j, acc in zip(jumps, ins, outs, accepts):
            if jump:
                prop = next(hop_subs)
                if density:
                    prop_r, prop_total = next(hop_sums)
            else:
                u, w = cur[i], outside[j]
                if density:
                    prop_total = (total - 2 * r[u] + entries[u][u]
                                  + 2 * (r[w] - entries[w][u]) + entries[w][w])
                else:
                    prop = tuple(sorted(cur[:i] + (w,) + cur[i + 1:]))
            prop_val = abs(prop_total) if density else obj._haf_of(prop)
            if prop_val >= cur_val or temp > 0 and acc < exp((prop_val - cur_val) / temp):
                if jump:
                    outside = [v for v in range(n) if v not in prop]
                else:
                    outside[j] = u
                    outside.sort()
                    if density:
                        prop = tuple(sorted(cur[:i] + (w,) + cur[i + 1:]))
                        prop_r = [x + (p - q) for x, p, q in
                                  zip(r, entries[w], entries[u])]
                if density:
                    r, total = prop_r, prop_total
                cur, cur_val = prop, prop_val
            if cur_val > best_val:
                best_val, best_sub = cur_val, cur
            best_values.append(best_val)
            temp *= alpha
    return RunTrace(
        best_values=np.array(best_values),
        best_subset=best_sub,
        steps_used=steps,
        seed=seed,
        pool_wrapped=pool is not None and taken >= len(pool),
    )


def greedy_peel(g: Graph, k: int) -> tuple:
    """Repeatedly remove the minimum weighted-degree vertex (ties broken by
    lowest index) until k vertices remain. Defined for real nonnegative
    weights only."""
    if not 0 < gaussian._integer(k, "subgraph size k") < g.n:
        raise ValidationError(f"k must lie in (0, {g.n}), got {k}")
    a = g.adjacency
    if np.any(np.abs(a.imag) > 0) or np.any(a.real < 0):
        raise ValidationError(
            "greedy peeling is defined for real nonnegative weights only"
        )
    w = a.real
    alive = list(range(g.n))
    while len(alive) > k:
        degrees = w[np.ix_(alive, alive)].sum(axis=1)
        drop = int(np.argmin(degrees))  # argmin takes the lowest index on ties
        alive.pop(drop)
    return tuple(alive)
