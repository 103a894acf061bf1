"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's algorithms: Hafnians by explicit
perfect-matching enumeration, click distributions by inclusion-exclusion
over direct determinants (for an epsilon = 1 state, vacuum probabilities
from the N block's principal minors), rank correlations by direct rank-pair
counting, reduced states and photon numbers read off the covariance,
thermal mixing at the squeezers before the interferometer. The graph
families with degenerate or zero Takagi values (cycle, star, rank two) are
built here for the encoding and distribution tests alike, and the 0/1
generators' adjacencies by one uniform draw per pair, pair by pair. The
searchers' references read the seeded stream one step at a time (n uniforms
per uniform proposal, 4 per annealing step) and value one proposal per step
through `Objective.value`; annealing on density repeats the library's
row-sum arithmetic, in the same order, on Python complex numbers. The law
of uniform random search's best after s steps is counted over every
sequence of s proposals.
`state_with_sampling_matrix` is a fixture, not an oracle: it builds a state
through the library's Takagi factorization and device model.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from gbskit.encoding import Graph
from gbskit.gaussian import GaussianState, state_from_device
from gbskit.linalg import takagi


def reduced_state(state, keep):
    """Marginal state on the mode list `keep`: the rows and columns of the
    Husimi covariance for those modes' creation and annihilation parts."""
    keep = list(keep)
    idx = keep + [k + state.modes for k in keep]
    return GaussianState(modes=len(keep), husimi=state.husimi[np.ix_(idx, idx)])


def inclusion_exclusion_distribution(state):
    """Probability of every click pattern, indexed by click bitmask: clicks
    on C and vacuum on the rest R is the sum over Z subset of C of
    (-1)^|Z| det(sigma_{R u Z})^(-1/2), each determinant taken directly
    from the Husimi submatrix."""
    m = state.modes
    pvac = []
    for w in range(1 << m):
        idx = [i for i in range(m) if w >> i & 1]
        idx += [i + m for i in idx]
        pvac.append(np.linalg.det(state.husimi[np.ix_(idx, idx)]).real ** -0.5)
    full = (1 << m) - 1
    out = np.zeros(1 << m)
    for c in range(1 << m):
        z = c
        while True:  # every z subset of c
            out[c] += (-1) ** bin(z).count("1") * pvac[(full ^ c) | z]
            if not z:
                break
            z = (z - 1) & c
    return out


def classical_vacuum_probabilities(state, masks):
    """P_vac(W) = 1 / det(N_W) for each mode subset W given as a bitmask, on
    a state without anomalous blocks (thermal mixing at epsilon = 1, then
    any loss): its Husimi matrix is N (+) N*, so det(sigma_W) = det(N_W)^2.
    Each determinant is taken directly from the N block, the subsets of one
    size in one stacked call."""
    m, masks = state.modes, np.asarray(masks)
    n = state.husimi[:m, :m]
    members = (masks[:, None] >> np.arange(m)) & 1
    out = np.empty(len(masks))
    sizes = members.sum(axis=1)
    for size in np.unique(sizes):
        rows = sizes == size
        idx = np.nonzero(members[rows])[1].reshape(rows.sum(), size)
        out[rows] = 1.0 / np.linalg.det(n[idx[:, :, None], idx[:, None, :]]).real
    return out


def cycle_graph(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return Graph(n=n, adjacency=a)


def star_graph(n):
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return Graph(n=n, adjacency=a)


def rank_two_graph(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return Graph(n=n, adjacency=v @ v.T)


def pairwise_zero_one(n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                a[i, j] = a[j, i] = 1.0
    return Graph(n=n, adjacency=a)


def pairwise_planted_clique(n, clique_size, noise_prob, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if i < clique_size and j < clique_size:
                a[i, j] = a[j, i] = 1.0
            elif rng.random() < noise_prob:
                a[i, j] = a[j, i] = 1.0
    return Graph(n=n, adjacency=a)


def thermal_squeezer_husimi(r, u, epsilon):
    """Husimi covariance of squeezers r mixed thermally by epsilon, then
    sent through the interferometer u: the squeezer covariance with diagonal
    cosh^2 r and anomalous term (1 - epsilon) sinh r cosh r, conjugated by
    diag(U*, U)."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=complex)
    m = len(r)
    d = np.diag(np.cosh(r) ** 2)
    off = np.diag((1.0 - epsilon) * np.sinh(r) * np.cosh(r))
    sigma_in = np.block([[d, off], [off, d]])
    t = np.block([[u.conj(), np.zeros((m, m))], [np.zeros((m, m)), u]])
    return t @ sigma_in @ t.conj().T


def state_with_sampling_matrix(a):
    """Pure state whose sampling matrix A block is the symmetric matrix a
    (spectral norm below 1): squeezing arctanh of a's Takagi values through
    its Takagi unitary."""
    fac = takagi(a)
    return state_from_device(np.arctanh(fac.values), fac.unitary)


def takagi_product(fac):
    """U diag(values) U^T of a Takagi factorization, which should give back
    the factorized matrix."""
    return fac.unitary @ np.diag(fac.values) @ fac.unitary.T


def mean_photons(state):
    """Total mean photon number, tr(sigma_Q)/2 - M."""
    return float(np.trace(state.husimi).real / 2.0 - state.modes)


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
    """The k vertices holding the smallest of n uniforms, ascending."""
    u = rng.random(n).tolist()
    return tuple(sorted(sorted(range(n), key=u.__getitem__)[:k]))


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


def uniform_best_law(obj, steps):
    """Exact law of the best value uniform random search holds after `steps`
    steps, {value: P(best <= value)} as fractions: every sequence of `steps`
    k-subsets, each valued through `obj.value`, is one equally likely run."""
    values = [obj.value(s) for s in itertools.combinations(range(obj.graph.n), obj.k)]
    counts = Counter(max(run) for run in itertools.product(values, repeat=steps))
    total, below, law = len(values) ** steps, 0, {}
    for v in sorted(counts):
        below += counts[v]
        law[v] = Fraction(below, total)
    return law


def _stepwise_row_sums(a, subset):
    r = a[:, list(subset)].sum(axis=1)
    return r.tolist(), complex(r[list(subset)].sum())


def stepwise_simulated_annealing(obj, source, steps, t0, alpha, jump_prob, seed):
    """Single-swap simulated annealing reading 4 uniforms per step and
    rebuilding the outside set at every step. |Hafnian|^2 is valued through
    `obj.value`; density as |sum| from row sums, updated by the swap formula.

    Returns (best_values, best_subset, pool_wrapped)."""
    cursor, rng = _stepwise_start(obj, source, seed)
    if cursor is None:
        jump_prob = 0.0
    n, k = obj.graph.n, obj.k
    a = obj.graph.adjacency
    density = obj.kind == "density"
    cur = cursor.next() if cursor else _stepwise_uniform(rng, n, k)
    if density:
        r, total = _stepwise_row_sums(a, cur)
        cur_val = abs(total)
    else:
        cur_val = obj.value(cur)
    best_val, best_sub = cur_val, cur
    best_values = np.empty(steps)
    temp = t0
    for t in range(steps):
        jump, ui, uo, acc = rng.random(4).tolist()
        outside = [v for v in range(n) if v not in cur]
        if cursor and jump < jump_prob:
            prop = cursor.next()
            if density:
                prop_r, prop_total = _stepwise_row_sums(a, prop)
        else:
            u, w = cur[int(ui * k)], outside[int(uo * (n - k))]
            prop = tuple(sorted(set(cur) - {u} | {w}))
            if density:
                auu, awu, aww = (complex(a[x, y]) for x, y in ((u, u), (w, u), (w, w)))
                prop_total = total - 2 * r[u] + auu + 2 * (r[w] - awu) + aww
                prop_r = [r[x] + (complex(a[w, x]) - complex(a[u, x]))
                          for x in range(n)]
        prop_val = abs(prop_total) if density else obj.value(prop)
        if prop_val >= cur_val or temp > 0 and acc < math.exp(-(cur_val - prop_val) / temp):
            cur, cur_val = prop, prop_val
            if density:
                r, total = prop_r, prop_total
        if cur_val > best_val:
            best_val, best_sub = cur_val, cur
        best_values[t] = best_val
        temp *= alpha
    return best_values, best_sub, bool(cursor.wrapped) if cursor else False
