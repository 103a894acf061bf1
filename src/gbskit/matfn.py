"""Exact Hafnian and Torontonian evaluation.

Both functions are #P-hard in general; the implementations here are exact
exponential-time algorithms sized for desk-scale inputs (Hafnian dimension
<= 24, Torontonian mode count <= 24, the click table's cap), guarded by
explicit cost caps.
Hafnians pick their algorithm by size: up to `_MATCHING_MAX_DIM` they sum
over every perfect matching read from a fixed index table, above it they
run Bjorklund's division-free recursion. Both only add and multiply, so
0/1 graphs get exact matching counts; the recursion, which scales a row
that would overflow, redoes a matching-table row that overflowed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostGuardError, ValidationError
from .gaussian import _check_size, _hermitian_bosonic, _vacuum_probabilities
from .linalg import as_matrix, symmetrized

__all__ = ["hafnian", "hafnian_sq_mod", "hafnians", "torontonian"]

HAFNIAN_MAX_DIM = 24

# complex values in one chunk's gathered matching entries (matching table)
# or largest level of weight coefficients (recursion)
_CHUNK = 1 << 16
# largest dimension valued from the perfect-matching table: at 10 a row
# costs about 0.8 of its recursion, at 12 (10395 matchings) about twice it
_MATCHING_MAX_DIM = 10
# the recursion scales a row with an entry part of at least 2^_SCALE_EXP
# below it first, and redoes a row that still overflows with each vertex's
# entry parts below 2^(_VERTEX_EXP + 1) (`_recursion_chunk`)
_SCALE_EXP, _VERTEX_EXP = 960, 64


def _shifted_product(ar, ai, br, bi) -> tuple:
    """Real and imaginary parts of x a b, truncated at a's degree, for
    polynomials with coefficients along axis 0 (broadcast over the rest).
    Products are formed part by part and added in order of a's degree, so
    a value's bits do not depend on its stack (see `_matching_chunk`)."""
    d = len(ar)
    outr, outi = np.zeros((2, d) + np.broadcast_shapes(ar.shape[1:], br.shape[1:]))
    for k in range(d - 1):
        xr, xi, yr, yi = ar[k], ai[k], br[:d - 1 - k], bi[:d - 1 - k]
        outr[k + 1:] += xr * yr - xi * yi
        outi[k + 1:] += xr * yi + xi * yr
    return outr, outi


def _recursion_chunk(a: np.ndarray, by_vertex: bool = False) -> np.ndarray:
    """Hafnians of a symmetric (N, n, n) stack, n even and > 0, by Bjorklund's
    division-free recursion (arXiv:1107.4466): f(G) = f(G2)(1 + x w_uv) -
    f(G1) over the last pair {u, v}, where G1 drops the pair and G2 also adds
    x (w_ui w_vj + w_vi w_uj) to every w_ij, and f(empty) = 1. The hafnian
    is [x^(n/2)] f(G).

    A row's branch states lie along axis 1, the G2 child before the G1 child.
    Each carries its factor c (degree <= n/2) and its weights, which enter f
    only times x and so stop at degree n/2 - 1. The leaves' c are added one
    after another in state order.

    Every term of degree d is a sum of products of d entries (d + 1 in a
    weight). A row with an entry part of 2^_SCALE_EXP or more is scaled by
    2^-s first, its largest entry then below 2^_SCALE_EXP, which scales each
    such term by exactly 2^(-s d) unless one underflows, and its hafnian
    back by 2^(s n / 2); for every other row s = 0 and its bits are
    unchanged. An overflow can only make a hafnian NaN or infinite, and such
    a row is redone `by_vertex`, as D A D with D = diag(2^-e_i), e_i =
    max(E_i - _VERTEX_EXP, 0) // 2 for E_i the binary exponent of vertex
    i's largest entry part: every entry part is then below 2^(_VERTEX_EXP +
    1), so no term of at most 12 factors overflows, and as each perfect
    matching meets every vertex once, its hafnian is 2^(sum e_i) Haf(D A D)."""
    count, n = a.shape[:2]
    half = n // 2
    top = np.maximum(abs(a.real), abs(a.imag)).max(axis=2)  # per vertex
    if by_vertex:
        e = np.maximum(np.frexp(top)[1] - _VERTEX_EXP, 0) // 2
        shift, back = -(e[:, :, None] + e[:, None, :]), e.sum(axis=1)
    else:
        s = np.maximum(np.frexp(top.max(axis=1))[1] - _SCALE_EXP, 0)
        shift, back = -s[:, None, None], s * half
    wr, wi = np.zeros((2, half, count, 1, n, n))
    wr[0, :, 0] = np.ldexp(a.real, shift)
    wi[0, :, 0] = np.ldexp(a.imag, shift)
    cr, ci = np.zeros((2, half + 1, count, 1))
    cr[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # seen in the result
        for u in range(n - 2, -1, -2):
            v = u + 1
            gr, gi = _shifted_product(cr, ci, wr[..., u, v], wi[..., u, v])
            cr = np.concatenate([cr + gr, -cr], axis=2)
            ci = np.concatenate([ci + gi, -ci], axis=2)
            # x w_ui w_vj; its transpose is x w_vi w_uj
            pr, pi = _shifted_product(wr[..., u, :u, None], wi[..., u, :u, None],
                                      wr[..., v, None, :u], wi[..., v, None, :u])
            rr, ri = wr[..., :u, :u], wi[..., :u, :u]
            wr = np.concatenate([rr + (pr + pr.swapaxes(-1, -2)), rr], axis=2)
            wi = np.concatenate([ri + (pi + pi.swapaxes(-1, -2)), ri], axis=2)
        cr, ci = (np.add.accumulate(z[half], axis=1)[:, -1] for z in (cr, ci))
    out = np.empty(count, dtype=np.complex128)
    out.real, out.imag = np.ldexp(cr, back), np.ldexp(ci, back)
    redo = np.flatnonzero(~np.isfinite(out))
    if redo.size and not by_vertex:
        out[redo] = _recursion_chunk(a[redo], by_vertex=True)
    return out


@lru_cache(maxsize=_MATCHING_MAX_DIM // 2)
def _matching_table(n: int) -> np.ndarray:
    """Flat indices i * n + j of the (n - 1)!! perfect matchings of range(n),
    shape (n / 2, P): column p holds matching p's pairs. Vertex 0 is paired
    with 1, ..., n - 1 in turn and the rest matched recursively, the order
    of `tests/oracles.matching_hafnian`. Built once per even n > 0 up to
    `_MATCHING_MAX_DIM`, so the memo holds at most 5 tables (38 KB at 10)."""
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
    order, so each row has the same bits whatever stack it is in. A row
    that overflows to NaN or inf is redone by `_recursion_chunk`."""
    count, n = a.shape[:2]
    table = _matching_table(n)
    flat = a.reshape(count, n * n)
    re, im = flat.real[:, table], flat.imag[:, table]  # (N, n / 2, P)
    pr, pi = re[:, 0], im[:, 0]
    out = np.empty(count, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # seen in the result
        for k in range(1, n // 2):
            xr, xi = re[:, k], im[:, k]
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
        out.real = np.add.accumulate(pr, axis=1)[:, -1]
        out.imag = np.add.accumulate(pi, axis=1)[:, -1]
    redo = np.flatnonzero(~np.isfinite(out))
    if redo.size:
        out[redo] = _recursion_chunk(a[redo])
    return out


def _hafnians(a: np.ndarray) -> np.ndarray:
    """Hafnians of a finite, exactly symmetric complex (N, n, n) stack, such
    as `Graph.subgraphs` returns; `hafnians` without its entry checks.
    Refuses odd n and n above the cost cap. Rows go in chunks: the
    matching table up to `_MATCHING_MAX_DIM`, the recursion above."""
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
        # at most 4.5 * 2^(n/2) * n/2 weight coefficients a row (3 pairs left)
        chunk, per_row = _recursion_chunk, 9 * (n // 2) << (n // 2 - 1)
    step = max(1, _CHUNK // per_row)
    for lo in range(0, count, step):
        out[lo:lo + step] = chunk(a[lo:lo + step])
    return out


def hafnians(stack) -> np.ndarray:
    """Hafnians of an (N, n, n) stack of matrices, one per row.

    Up to n = `_MATCHING_MAX_DIM` (10) each row is the sum over its
    (n - 1)!! perfect matchings, read from a fixed index table. Above it
    Bjorklund's division-free recursion runs on polynomials in x, under
    1.5 n^2 2^(n/2) coefficient products per row, vectorized over a chunk of
    rows and their branch states. Both only add and multiply, so integer
    matrices get exact hafnians while partial values stay below 2^53. A
    matching-table row that overflows is redone by the recursion. There a
    row with an entry part of 2^960 or more is scaled by a power of two and
    its hafnian scaled back, and a row that still overflows is redone with
    each vertex's row and column scaled by its own power of two, exact
    unless a scaled product underflows: pair entries 2^1000, 2^200 and
    2^-300 give exactly 2^900 at any even n from 6. Each row gives the same
    bits whatever stack it is in. The diagonal never enters a perfect
    matching and is ignored. Every input is checked here: shape, finiteness
    and symmetry, then dimension and cost cap.
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
    _check_size(m, None)
    # terms[s] belongs to Z = ~s, so its sign is (-1)^|s|: fold bit by bit
    terms = _vacuum_probabilities(_hermitian_bosonic(np.eye(n) - a, "I - O"))
    for _ in range(m):
        terms = terms[0::2] - terms[1::2]
    return float(terms[0])
