"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's algorithms: determinants by cofactor
expansion, Hafnians by explicit perfect-matching enumeration, rank
correlations by direct rank-pair counting. The searchers' references value
one proposal per step through `Objective.value`, as the library's loops did
before random search was batched.
"""

import itertools

import numpy as np


def cofactor_det(a):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        minor = a[np.ix_(rest, cols)]
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def matching_hafnian(a):
    """Sum over all perfect matchings of the index set, enumerated directly."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]

    def rec(idx):
        if not idx:
            return 1.0 + 0.0j
        i = idx[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(idx)):
            j = idx[pos]
            total += a[i, j] * rec(idx[1:pos] + idx[pos + 1:])
        return total

    return rec(tuple(range(n)))


def perfect_matching_count(adj01):
    """Count perfect matchings of a 0/1 graph by enumerating pairings."""
    return round(matching_hafnian(np.asarray(adj01, dtype=float)).real)


def all_patterns(modes):
    return list(itertools.product([0, 1], repeat=modes))


def rank_pair_spearman(x, y):
    """Spearman rho via explicit average ranks and the Pearson formula on
    ranks, O(n^2) rank computation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def ranks(v):
        r = np.empty(len(v))
        for i, vi in enumerate(v):
            less = np.sum(v < vi)
            equal = np.sum(v == vi)
            r[i] = less + (equal + 1) / 2.0
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))


class _StepwisePoolCursor:
    """Sequential pool consumption with wrap-around, one tuple per call."""

    def __init__(self, pool, k):
        bad = [i for i, p in enumerate(pool.samples) if sum(p) != k]
        if bad:
            raise ValueError(f"pool pattern {bad[0]} does not have {k} clicks")
        self._subsets = [
            tuple(i for i, b in enumerate(p) if b) for p in pool.samples
        ]
        self._pos = 0
        self.wrapped = False

    def next(self):
        sub = self._subsets[self._pos]
        self._pos += 1
        if self._pos >= len(self._subsets):
            self._pos = 0
            self.wrapped = True
        return sub


def _stepwise_start(obj, source, seed):
    cursor = _StepwisePoolCursor(source.pool, obj.k) if source.kind == "pool" else None
    return cursor, np.random.default_rng(seed)


def _stepwise_uniform(rng, n, k):
    return tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))


def stepwise_random_search(obj, source, steps, seed):
    """Random search valuing one proposal per step through `obj.value`.

    Returns (best_values, best_subset, pool_wrapped)."""
    cursor, rng = _stepwise_start(obj, source, seed)
    best_values = np.empty(steps)
    best_val = -np.inf
    best_sub = ()
    for t in range(steps):
        if cursor:
            sub = cursor.next()
        else:
            sub = _stepwise_uniform(rng, obj.graph.n, obj.k)
        v = obj.value(sub)
        if v > best_val:
            best_val, best_sub = v, sub
        best_values[t] = best_val
    return best_values, best_sub, bool(cursor.wrapped) if cursor else False


def stepwise_simulated_annealing(obj, source, steps, t0, alpha, jump_prob, seed):
    """Single-swap simulated annealing valuing every proposal through
    `obj.value` and rebuilding the outside set at every step.

    Returns (best_values, best_subset, pool_wrapped)."""
    cursor, rng = _stepwise_start(obj, source, seed)
    if cursor is None:
        jump_prob = 0.0
    n, k = obj.graph.n, obj.k
    cur = cursor.next() if cursor else _stepwise_uniform(rng, n, k)
    cur_val = obj.value(cur)
    best_val, best_sub = cur_val, cur
    best_values = np.empty(steps)
    temp = t0
    for t in range(steps):
        if cursor and rng.random() < jump_prob:
            prop = cursor.next()
        else:
            inside = list(cur)
            outside = [v for v in range(n) if v not in cur]
            i = int(rng.integers(len(inside)))
            j = int(rng.integers(len(outside)))
            inside[i] = outside[j]
            prop = tuple(sorted(inside))
        prop_val = obj.value(prop)
        if prop_val >= cur_val or rng.random() < np.exp(
            -(cur_val - prop_val) / temp
        ):
            cur, cur_val = prop, prop_val
        if cur_val > best_val:
            best_val, best_sub = cur_val, cur
        best_values[t] = best_val
        temp *= alpha
    return best_values, best_sub, bool(cursor.wrapped) if cursor else False
