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
  compared with libm's exp(-(current - proposed) / T).

Stream 3 keeps stream 2's searchers above (the version before it) and adds
bench's post-selected pools and trial steps: pools built for a noise sweep,
or for an advantage study given no pool, are `sampler.sample_k_clicks`
draws, and a noise-sweep point draws its trials' first-hit steps as one
block of Geometric(q) variates from `default_rng([seed, 2000 + point])`.

Stream 4 keeps stream 3 and adds the drawn classical target: when
C(n, k) <= classical_trials * classical_budget, a noise sweep values every
k-subset once and reads each classical run's best from the sorted values at
rank max(ceil(C(n, k) u^(1/classical_budget)) - 1, 0), one uniform u per run
from one block drawn from `default_rng([seed, 3000])`; above that size the
runs are simulated as before.

Stream 5 keeps stream 4 but moves two seed keys that numpy's zero padding
made equal to others: an advantage study's pool for k index ki is keyed
[seed, ki, 0, 1], not [seed, ki] (trial 0's [seed, ki, 0]), and a noise
sweep's simulated classical run i [seed, i, 1], not [seed, i] (pool key
[seed, 1000 + gi] for i = 1000 + gi).

Random search does not adapt to the values it sees, so it values each chunk
with one `Objective.values` call: |Hafnian|^2 of each distinct proposal
once, through matfn's stacked hafnian kernel (a perfect-matching table for
k <= 10, the division-free recursion above) without re-checking the
graph's already checked submatrices. Its traces are bit-identical to
valuing one step at a time. Annealing on density keeps the complex row sums
r = a[:, S].sum(1) of its subset S and their sum t over S, and values a swap
u -> w as |t - 2 r_u + a_uu + 2 (r_w - a_wu) + a_ww|, in O(1); an accepted
swap updates r in O(n), and a pool jump recomputes r and t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import Graph
from .errors import ValidationError
from .matfn import _hafnians, hafnian_sq_mod
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
# version of the searchers' and bench pools' random stream, recorded with
# their outputs
STREAM = 5
# steps whose uniforms are drawn (and, in random search, valued) together
_CHUNK = 1024


def density(g: Graph, subset) -> float:
    """Subgraph density |sum over the induced submatrix| (both edge
    directions counted, diagonal included as stored)."""
    return float(abs(g.subgraphs([list(subset)])[0].sum()))


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
        """Values of the rows of an (N, k) vertex-index array; row i gets the
        bits of `value(subsets[i])`. |Hafnian|^2 values each distinct subset
        once."""
        rows = np.asarray(subsets)
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValidationError(
                f"expected an (N, {self.k}) subset array, got shape {rows.shape}"
            )
        if self.kind == "density":
            # one gathered sum per row, in the order given, as `density` sums
            sums = self.graph.subgraphs(rows).reshape(len(rows), self.k**2).sum(axis=1)
            # Python's abs: numpy's complex abs can differ in the last bit
            return np.array([abs(z) for z in sums.tolist()], dtype=float)
        # sorted subsets, as `value` keys them; each distinct one valued once
        # an object array may not sort; the subset rule refuses it unsorted
        ordered = rows if rows.dtype == object else np.sort(rows, axis=1)
        subs = self.graph.subgraphs(ordered)
        distinct, first, inverse = np.unique(
            ordered, axis=0, return_index=True, return_inverse=True
        )
        keys = [tuple(r) for r in distinct.tolist()]
        vals = [self._haf_cache.get(key) for key in keys]
        miss = [i for i, v in enumerate(vals) if v is None]
        if miss:
            found = _hafnians(subs[first[miss]]).tolist()
            for i, h in zip(miss, found):
                vals[i] = float(abs(h) ** 2)
                self._remember(keys[i], vals[i])
        return np.array(vals, dtype=float)[inverse.reshape(-1)]

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


def _uniform_subsets(
    rng: np.random.Generator, count: int, n: int, k: int
) -> np.ndarray:
    """`count` uniform k-subsets as a (count, k) array: row i holds the
    columns of the k smallest of row i of a (count, n) uniform block,
    ascending."""
    u = rng.random((count, n))
    return np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)


def _row_sums(a: np.ndarray, subset) -> tuple[list, complex]:
    """Row sums a[:, S].sum(1) of a subset S, as a list, and their sum over S."""
    v = list(subset)
    r = a[:, v].sum(axis=1)
    return r.tolist(), complex(r[v].sum())


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
    cursor = _check_pool(obj, source)
    rng = np.random.default_rng(seed)
    n, k = obj.graph.n, obj.k
    best_values = np.empty(steps)
    best_val = -np.inf
    best_sub: tuple = ()
    for lo in range(0, steps, _CHUNK):
        count = min(_CHUNK, steps - lo)
        props = cursor.take(count) if cursor else _uniform_subsets(rng, count, n, k)
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
    Density is valued from row sums, so its trace can differ from `density`
    of the same subset in the last bits on complex weights.
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
    a = obj.graph.adjacency
    entries = a.tolist()
    density = obj.kind == "density"

    if cursor:
        cur = cursor.next()
    else:
        cur = tuple(_uniform_subsets(rng, 1, n, k)[0].tolist())
    if density:
        r, total = _row_sums(a, cur)
        cur_val = abs(total)
    else:
        cur_val = obj.value(cur)
    best_val, best_sub = cur_val, cur
    best_values = np.empty(steps)
    temp = t0
    outside = [v for v in range(n) if v not in cur]
    for lo in range(0, steps, _CHUNK):
        count = min(_CHUNK, steps - lo)
        draws = rng.random((count, 4))
        jumps = (draws[:, 0] < jump_prob).tolist()
        ins = (draws[:, 1] * k).astype(int).tolist()
        outs = (draws[:, 2] * (n - k)).astype(int).tolist()
        accepts = draws[:, 3].tolist()
        for t, jump, i, j, acc in zip(range(lo, steps), jumps, ins, outs, accepts):
            if jump:
                prop = cursor.next()
                if density:
                    prop_r, prop_total = _row_sums(a, prop)
            else:
                u, w = cur[i], outside[j]
                prop = tuple(sorted(cur[:i] + (w,) + cur[i + 1:]))
                if density:
                    prop_total = (total - 2 * r[u] + entries[u][u]
                                  + 2 * (r[w] - entries[w][u]) + entries[w][w])
            prop_val = abs(prop_total) if density else obj.value(prop)
            if prop_val >= cur_val or acc < math.exp(-(cur_val - prop_val) / temp):
                if jump:
                    outside = [v for v in range(n) if v not in prop]
                else:
                    outside[j] = u
                    outside.sort()
                    if density:
                        prop_r = [x + (p - q) for x, p, q in
                                  zip(r, entries[w], entries[u])]
                if density:
                    r, total = prop_r, prop_total
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
