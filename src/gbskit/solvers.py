"""Subgraph objectives and stochastic search algorithms.

Two objectives (largest |Hafnian|^2 and largest density), two stochastic
searchers (random search and simulated annealing) that can draw proposals
either uniformly or from a sample pool, and the deterministic greedy-peeling
baseline for dense subgraphs.

Random search does not adapt to the values it sees, so it draws its
proposals in chunks and values each chunk with one `Objective.values` call:
each distinct proposal once, |Hafnian|^2 through the stacked
`matfn.hafnians`. Its traces are bit-identical to valuing one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import Graph
from .errors import ValidationError
from .matfn import hafnian_sq_mod, hafnians
from .sampler import SamplePool

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
# random-search steps drawn and valued together
_RS_CHUNK = 1024


def density(g: Graph, subset) -> float:
    """Subgraph density |sum over the induced submatrix| (both edge
    directions counted, diagonal included as stored)."""
    verts = list(subset)
    if len(set(verts)) != len(verts):
        raise ValidationError("subset vertices must be distinct")
    if any(v < 0 or v >= g.n for v in verts):
        raise ValidationError("subset vertex out of range")
    sub = g.adjacency[np.ix_(verts, verts)]
    return float(abs(sub.sum()))


@dataclass
class Objective:
    """Either 'maxhaf' (|Hafnian|^2) or 'density' at fixed subgraph size k."""

    kind: str
    graph: Graph
    k: int
    _haf_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("maxhaf", "density"):
            raise ValidationError(f"unknown objective kind {self.kind!r}")
        if not 0 < self.k < self.graph.n:
            raise ValidationError(
                f"subgraph size k must lie in (0, {self.graph.n}), got {self.k}"
            )
        if self.kind == "maxhaf" and self.k % 2 != 0:
            raise ValidationError("maxhaf requires an even subgraph size")

    def value(self, subset) -> float:
        if self.kind == "density":
            return density(self.graph, subset)
        key = tuple(sorted(subset))
        v = self._haf_cache.get(key)
        if v is None:
            v = hafnian_sq_mod(self.graph, key)
            self._remember(key, v)
        return v

    def values(self, subsets) -> np.ndarray:
        """Values of the rows of an (N, k) vertex-index array, each distinct
        row valued once; row i gets the bits of `value(subsets[i])`."""
        rows = np.asarray(subsets)
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValidationError(
                f"expected an (N, {self.k}) subset array, got shape {rows.shape}"
            )
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValidationError(f"subset indices must be integers, not {rows.dtype}")
        bad = np.flatnonzero(((rows < 0) | (rows >= self.graph.n)).any(axis=1))
        if bad.size:
            raise ValidationError(f"subset {bad[0]}: vertex out of range")
        ordered = np.sort(rows, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size:
            raise ValidationError(f"subset {bad[0]}: vertices must be distinct")
        # maxhaf values sorted subsets, as `value` does; density sums the
        # submatrix in the order given
        if self.kind == "maxhaf":
            rows = ordered
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        a = self.graph.adjacency
        if self.kind == "density":
            sums = a[distinct[:, :, None], distinct[:, None, :]].reshape(
                len(distinct), self.k**2
            ).sum(axis=1)
            vals = [abs(z) for z in sums.tolist()]
        else:
            keys = [tuple(r) for r in distinct.tolist()]
            vals = [self._haf_cache.get(key) for key in keys]
            miss = [i for i, v in enumerate(vals) if v is None]
            if miss:
                sub = distinct[miss]
                found = hafnians(a[sub[:, :, None], sub[:, None, :]]).tolist()
                for i, h in zip(miss, found):
                    vals[i] = float(abs(h) ** 2)
                    self._remember(keys[i], vals[i])
        return np.array(vals, dtype=float)[inverse.reshape(-1)]

    def _swap_value(self, subset: tuple) -> float:
        """`value` of a subset a swap made from a valid one, unchecked."""
        if self.kind == "maxhaf":
            return self.value(subset)
        # the adjacency is exactly symmetric, so `a[v][:, v]` (the transposed
        # layout of `density`'s block) sums the same terms in the same order
        v = list(subset)
        return float(abs(self.graph.adjacency[v][:, v].sum()))

    def _remember(self, key: tuple, v: float) -> None:
        cache = self._haf_cache
        if len(cache) >= _HAF_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[key] = v


@dataclass(frozen=True)
class ProposalSource:
    """Uniform k-subsets or the clicked vertex sets of a sample pool."""

    kind: str = "uniform"
    pool: SamplePool | None = None

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


class _PoolCursor:
    """Sequential pool consumption with wrap-around."""

    def __init__(self, pool: SamplePool, k: int):
        self._subsets = pool.subsets(k)
        self._pos = 0
        self.wrapped = False

    def take(self, count: int) -> np.ndarray:
        """The next `count` subsets as a (count, k) array."""
        size = len(self._subsets)
        rows = self._subsets[(self._pos + np.arange(count)) % size]
        self.wrapped = self.wrapped or self._pos + count >= size
        self._pos = (self._pos + count) % size
        return rows

    def next(self) -> tuple:
        return tuple(self.take(1)[0].tolist())


def _check_pool(obj: Objective, source: ProposalSource) -> _PoolCursor | None:
    if source.kind != "pool":
        return None
    if source.pool.modes != obj.graph.n:
        raise ValidationError(
            f"pool mode count {source.pool.modes} does not match graph size "
            f"{obj.graph.n}"
        )
    return _PoolCursor(source.pool, obj.k)


def _uniform_subset(rng: np.random.Generator, n: int, k: int) -> tuple:
    return tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))


def random_search(
    obj: Objective, source: ProposalSource, steps: int, seed: int
) -> RunTrace:
    """Draw one k-subset per step and keep the running best.

    Proposals are drawn and valued `_RS_CHUNK` steps at a time; the trace
    and the best subset (the first proposal with the best value) are those
    of valuing each step in turn.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    cursor = _check_pool(obj, source)
    rng = np.random.default_rng(seed)
    n, k = obj.graph.n, obj.k
    best_values = np.empty(steps)
    best_val = -np.inf
    best_sub: tuple = ()
    for lo in range(0, steps, _RS_CHUNK):
        count = min(_RS_CHUNK, steps - lo)
        if cursor:
            props = cursor.take(count)
        else:
            props = np.array([_uniform_subset(rng, n, k) for _ in range(count)])
        vals = obj.values(props)
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
        pool_wrapped=bool(cursor.wrapped) if cursor else False,
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
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if t0 <= 0:
        raise ValidationError("initial temperature must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("cooling factor alpha must lie in (0, 1)")
    if not 0.0 <= jump_prob < 1.0:
        raise ValidationError("jump probability must lie in [0, 1)")
    cursor = _check_pool(obj, source)
    if cursor is None:
        jump_prob = 0.0
    rng = np.random.default_rng(seed)
    n, k = obj.graph.n, obj.k

    cur = cursor.next() if cursor else _uniform_subset(rng, n, k)
    cur_val = obj.value(cur)
    best_val, best_sub = cur_val, cur
    best_values = np.empty(steps)
    temp = t0
    outside = [v for v in range(n) if v not in cur]
    for t in range(steps):
        swap = not (cursor and rng.random() < jump_prob)
        if swap:
            i = int(rng.integers(k))
            j = int(rng.integers(n - k))
            inside = list(cur)
            inside[i] = outside[j]
            prop = tuple(sorted(inside))
            prop_val = obj._swap_value(prop)
        else:
            prop = cursor.next()
            prop_val = obj.value(prop)
        if prop_val >= cur_val or rng.random() < np.exp(
            -(cur_val - prop_val) / temp
        ):
            if swap:
                outside[j] = cur[i]
                outside.sort()
            else:
                outside = [v for v in range(n) if v not in prop]
            cur, cur_val = prop, prop_val
        if cur_val > best_val:
            best_val, best_sub = cur_val, cur
        best_values[t] = best_val
        temp *= alpha
    return RunTrace(
        best_values=best_values,
        best_subset=best_sub,
        steps_used=steps,
        seed=seed,
        pool_wrapped=bool(cursor.wrapped) if cursor else False,
    )


def greedy_peel(g: Graph, k: int) -> tuple:
    """Repeatedly remove the minimum weighted-degree vertex (ties broken by
    lowest index) until k vertices remain. Defined for real nonnegative
    weights only."""
    if not 0 < k < g.n:
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
