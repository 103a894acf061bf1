"""Exact Hafnian and Torontonian evaluation.

Both functions are #P-hard in general; the implementations here are exact
exponential-time algorithms sized for desk-scale inputs (Hafnian dimension
<= 24, Torontonian mode count <= 16), guarded by explicit cost caps.
Hafnians pick their algorithm by size: up to `_MATCHING_MAX_DIM` they sum
over every perfect matching read from a fixed index table, above it they
use the power-trace formula.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostGuardError, ValidationError
from .gaussian import _hermitian_bosonic, _vacuum_probabilities
from .linalg import as_matrix, symmetrized

__all__ = ["hafnian", "hafnian_sq_mod", "hafnians", "torontonian"]

HAFNIAN_MAX_DIM = 24
TORONTONIAN_MAX_MODES = 16

# complex values in one chunk's stacked submatrices (power traces) or
# gathered matching entries (matching table)
_CHUNK = 1 << 16
# largest dimension valued from the perfect-matching table: at 12 a row
# costs about a third of its power traces, at 14 (135135 matchings) nearly
# twice as much
_MATCHING_MAX_DIM = 12


def _exp_poly_coeffs(traces: np.ndarray, m: int) -> tuple:
    """Real and imaginary parts of [x^m] exp(sum_k t_k x^k / (2k)) for each
    trailing index of `traces` (shape (m, ...), t_k = traces[k - 1]).

    Runs the recurrence f' = g' f on arrays. A division by an integer d is
    a multiplication by 1/d, and every complex product is formed from real
    and imaginary parts by separate operations, since numpy's SIMD complex
    multiply fuses them and can differ in the last bit; so each row's values
    have the same bits whatever stack the row is in.
    """
    zero = np.zeros(traces.shape[1:])
    kg = []  # k * g_k
    for k in range(1, m + 1):
        t, s = traces[k - 1], 1.0 / (2 * k)
        kg.append((k * (t.real * s), k * (t.imag * s)))
    f = [(zero + 1.0, zero)]
    for j in range(1, m + 1):
        ar = ai = zero
        for k in range(1, j + 1):
            (xr, xi), (yr, yi) = kg[k - 1], f[j - k]
            ar = ar + (xr * yr - xi * yi)
            ai = ai + (xr * yi + xi * yr)
        s = 1.0 / j
        f.append((ar * s, ai * s))
    return f[m]


def _hafnian_chunk(a: np.ndarray) -> np.ndarray:
    """Power-trace hafnians of a validated, symmetrized (N, n, n) stack, n
    even and > 0. Zeroes the stack's diagonal in place."""
    n = a.shape[1]
    half = n // 2
    a[:, np.arange(n), np.arange(n)] = 0.0
    # nonempty pair-masks in increasing order; pair i holds rows 2i, 2i + 1
    masks = np.arange(1, 1 << half)
    bits = (masks[:, None] >> np.arange(half)) & 1
    npairs = bits.sum(axis=1)
    pair_rows = np.arange(n).reshape(half, 2)
    traces = np.empty((half, a.shape[0], masks.size), dtype=np.complex128)
    for p in range(1, half + 1):
        sel = np.flatnonzero(npairs == p)
        rows = pair_rows[np.nonzero(bits[sel])[1].reshape(-1, p)]
        cols = rows.reshape(-1, 2 * p)
        # B = X sub with X the direct sum of 2x2 swaps: swap row pairs
        swapped = rows[:, :, ::-1].reshape(-1, 2 * p)
        ev = np.linalg.eigvals(a[:, swapped[:, :, None], cols[:, None, :]])
        for k in range(1, half + 1):
            traces[k - 1][:, sel] = np.sum(ev**k, axis=-1)
    cr, ci = _exp_poly_coeffs(traces, half)
    # [x^half] of the empty product is 0 for half >= 1; the masks' signed
    # terms are summed one after another in mask order (a pairwise `sum`
    # would group them by length and change bits)
    sign = np.where((half - npairs) % 2, -1.0, 1.0)
    out = np.empty(a.shape[0], dtype=np.complex128)
    out.real = np.add.accumulate(sign * cr, axis=1)[:, -1]
    out.imag = np.add.accumulate(sign * ci, axis=1)[:, -1]
    return out


@lru_cache(maxsize=_MATCHING_MAX_DIM // 2)
def _matching_table(n: int) -> np.ndarray:
    """Flat indices i * n + j of the (n - 1)!! perfect matchings of range(n),
    shape (n / 2, P): column p holds matching p's pairs. Vertex 0 is paired
    with 1, ..., n - 1 in turn and the rest matched recursively, the order
    of `tests/oracles.matching_hafnian`. Built once per even n > 0 up to
    `_MATCHING_MAX_DIM`, so the memo holds at most 6 tables (0.5 MB at 12)."""
    pairs = np.zeros((1, 0, 2), dtype=np.intp)  # (P, pairs, 2) for range(0)
    for m in range(2, n + 1, 2):
        # matchings of range(m): pair 0 with j, relabel range(m - 2) onto the rest
        blocks = []
        for j in range(1, m):
            rest = np.delete(np.arange(1, m), j - 1)
            head = np.broadcast_to([[[0, j]]], (len(pairs), 1, 2))
            blocks.append(np.concatenate([head, rest[pairs]], axis=1))
        pairs = np.concatenate(blocks)
    table = (pairs[:, :, 0] * n + pairs[:, :, 1]).T.copy()
    table.setflags(write=False)
    return table


def _matching_chunk(a: np.ndarray) -> np.ndarray:
    """Hafnians of a symmetric (N, n, n) stack, 0 < n <= `_MATCHING_MAX_DIM`,
    as sums over its perfect matchings. Each matching's n / 2 factors are
    multiplied in pair order with real and imaginary parts formed by
    separate operations, and the products summed one after another in table
    order, so each row has the same bits whatever stack it is in."""
    count, n = a.shape[:2]
    table = _matching_table(n)
    flat = a.reshape(count, n * n)
    re, im = flat.real[:, table], flat.imag[:, table]  # (N, n / 2, P)
    pr, pi = re[:, 0], im[:, 0]
    for k in range(1, n // 2):
        xr, xi = re[:, k], im[:, k]
        pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
    out = np.empty(count, dtype=np.complex128)
    out.real = np.add.accumulate(pr, axis=1)[:, -1]
    out.imag = np.add.accumulate(pi, axis=1)[:, -1]
    return out


def _hafnians(a: np.ndarray) -> np.ndarray:
    """Hafnians of a finite, exactly symmetric complex (N, n, n) stack, such
    as `Graph.subgraphs` returns; `hafnians` without its entry checks.
    Refuses odd n and n above the cost cap. Rows go in chunks: the
    matching table up to `_MATCHING_MAX_DIM`, the power traces above."""
    count, n = a.shape[:2]
    if n % 2 != 0:
        raise ValidationError(f"hafnian requires even dimension, got {n}")
    if n > HAFNIAN_MAX_DIM:
        raise CostGuardError(
            f"hafnian dimension {n} exceeds the cost cap of {HAFNIAN_MAX_DIM}"
        )
    out = np.ones(count, dtype=np.complex128)
    if n == 0:
        return out
    if n <= _MATCHING_MAX_DIM:
        # a row gathers (n - 1)!! matchings of n / 2 entries
        chunk, per_row = _matching_chunk, _matching_table(n).size
    else:
        # every pair count's submatrices together hold < 2^(n/2) n^2 values;
        # the power traces zero the diagonal in place, so they get a copy
        chunk, per_row = lambda b: _hafnian_chunk(b.copy()), (1 << (n // 2)) * n * n
    step = max(1, _CHUNK // per_row)
    for lo in range(0, count, step):
        out[lo:lo + step] = chunk(a[lo:lo + step])
    return out


def hafnians(stack) -> np.ndarray:
    """Hafnians of an (N, n, n) stack of matrices, one per row.

    Up to n = `_MATCHING_MAX_DIM` (12) each row is the sum over its
    (n - 1)!! perfect matchings, read from a fixed index table. Above it the
    inclusion-exclusion power-trace algorithm runs, O(2^(n/2) n^3) per row,
    with one stacked `eigvals` call per pair count for a chunk of rows. Each
    row gives the same bits whatever stack it is in. The diagonal never
    enters a perfect matching and is ignored. Every input is checked here:
    shape, finiteness and symmetry, then dimension and cost cap.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValidationError(f"expected an (N, n, n) stack, got shape {a.shape}")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"stack row {bad[0]} contains NaN or Inf entries")
    return _hafnians(symmetrized(a, "hafnian"))


def hafnian(m) -> complex:
    """Hafnian: sum over perfect matchings of products of paired entries.

    The one-row call of `hafnians`.
    """
    return complex(hafnians(as_matrix(m)[None])[0])


def hafnian_sq_mod(graph, subset) -> float:
    """|Haf(adjacency restricted to subset)|^2. Subset size must be even.
    A `Graph`'s adjacency is already finite and symmetric, so its subgraph
    skips `hafnians`' entry checks and gets the same bits."""
    return float(abs(complex(_hafnians(graph.subgraphs([list(subset)]))[0])) ** 2)


def torontonian(o) -> float:
    """Torontonian of a 2m x 2m matrix in (first-block, second-block) ordering.

    Tor(O) = sum over Z subset of {1..m} of (-1)^(m-|Z|) / sqrt(det(I - O_Z)),
    where O_Z keeps rows/columns {i, i+m : i in Z}, each det taken from the
    recursion behind `pattern_distribution`. I - O must be Hermitian, bosonic
    and positive definite, as sigma^-1 is; anything else is unphysical.
    """
    a = as_matrix(o)
    n = a.shape[0]
    if n % 2 != 0:
        raise ValidationError(f"torontonian requires even dimension, got {n}")
    m = n // 2
    if m > TORONTONIAN_MAX_MODES:
        raise CostGuardError(f"torontonian mode count {m} exceeds the cost cap of "
                             f"{TORONTONIAN_MAX_MODES}")
    # terms[s] belongs to Z = ~s, so its sign is (-1)^|s|: fold bit by bit
    terms = _vacuum_probabilities(_hermitian_bosonic(np.eye(n) - a, "I - O"))
    for _ in range(m):
        terms = terms[0::2] - terms[1::2]
    return float(terms[0])
