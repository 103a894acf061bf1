"""Exact Hafnian and Torontonian evaluation.

Both functions are #P-hard in general; the implementations here are exact
exponential-time algorithms sized for desk-scale inputs (Hafnian dimension
<= 24, Torontonian mode count <= 16), guarded by explicit cost caps.
"""

from __future__ import annotations

import numpy as np

from .errors import CostGuardError, PhysicalityError, ValidationError
from .linalg import as_matrix

__all__ = ["hafnian", "hafnian_sq_mod", "hafnians", "torontonian"]

HAFNIAN_MAX_DIM = 24
TORONTONIAN_MAX_MODES = 16

_SYM_TOL = 1e-10
_IMAG_TOL = 1e-8
# complex values in one chunk's stacked submatrices
_CHUNK = 1 << 16


def _exp_poly_coeffs(traces: np.ndarray, m: int) -> tuple:
    """Real and imaginary parts of [x^m] exp(sum_k t_k x^k / (2k)) for each
    trailing index of `traces` (shape (m, ...), t_k = traces[k - 1]).

    Runs the scalar recurrence f' = g' f on arrays, with its exact
    arithmetic, so every value has the bits of a one-matrix run with numpy
    scalars: a division by an integer d is a multiplication by 1/d, as
    numpy's complex division by a real is; every complex product is formed
    from real and imaginary parts by separate operations, since numpy's
    SIMD complex multiply fuses them and can differ in the last bit; and
    the products with zero that complex arithmetic with a real operand
    makes are kept, so signed zeros come out the same.
    """
    zero = np.zeros(traces.shape[1:])
    kg = []  # k * g_k
    for k in range(1, m + 1):
        tr, ti, s = traces[k - 1].real, traces[k - 1].imag, 1.0 / (2 * k)
        gr, gi = (tr + ti * 0.0) * s, (ti - tr * 0.0) * s
        kg.append((k * gr - 0.0 * gi, k * gi + 0.0 * gr))
    f = [(zero + 1.0, zero)]
    for j in range(1, m + 1):
        ar = ai = zero
        for k in range(1, j + 1):
            (xr, xi), (yr, yi) = kg[k - 1], f[j - k]
            ar = ar + (xr * yr - xi * yi)
            ai = ai + (xr * yi + xi * yr)
        s = 1.0 / j
        f.append(((ar + ai * 0.0) * s, (ai - ar * 0.0) * s))
    return f[m]


def _hafnian_chunk(a: np.ndarray) -> np.ndarray:
    """Power-trace hafnians of a validated (N, n, n) stack, n even and > 0."""
    n = a.shape[1]
    half = n // 2
    a = (a + a.transpose(0, 2, 1)) / 2.0
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
    # terms are added in mask order, as complex numbers with +-1 factors
    sign = np.where((half - npairs) % 2, -1.0, 1.0)
    term_r, term_i = sign * cr - 0.0 * ci, sign * ci + 0.0 * cr
    total_r = total_i = np.zeros(a.shape[0])
    for c in range(masks.size):
        total_r = total_r + term_r[:, c]
        total_i = total_i + term_i[:, c]
    out = np.empty(a.shape[0], dtype=np.complex128)
    out.real, out.imag = total_r, total_i
    return out


def hafnians(stack) -> np.ndarray:
    """Hafnians of an (N, n, n) stack of matrices, one per row.

    Uses the inclusion-exclusion power-trace algorithm, O(2^(n/2) n^3) per
    row, with one stacked `eigvals` call per pair count for a chunk of rows.
    Each row gives the same bits whatever stack it is in. The diagonal never
    enters a perfect matching and is ignored.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValidationError(f"expected an (N, n, n) stack, got shape {a.shape}")
    count, n = a.shape[:2]
    if n % 2 != 0:
        raise ValidationError(f"hafnian requires even dimension, got {n}")
    if n > HAFNIAN_MAX_DIM:
        raise CostGuardError(
            f"hafnian dimension {n} exceeds the cost cap of {HAFNIAN_MAX_DIM}"
        )
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"stack row {bad[0]} contains NaN or Inf entries")
    scale = np.linalg.norm(a, axis=(1, 2))
    skew = np.linalg.norm(a - a.transpose(0, 2, 1), axis=(1, 2))
    bad = np.flatnonzero((scale > 0) & (skew > _SYM_TOL * scale))
    if bad.size:
        raise ValidationError(
            f"hafnian requires a symmetric matrix; stack row {bad[0]} is not"
        )
    out = np.ones(count, dtype=np.complex128)
    if n == 0:
        return out
    # every pair count's submatrices together hold < 2^(n/2) n^2 values
    step = max(1, _CHUNK // ((1 << (n // 2)) * n * n))
    for lo in range(0, count, step):
        out[lo:lo + step] = _hafnian_chunk(a[lo:lo + step])
    return out


def hafnian(m) -> complex:
    """Hafnian: sum over perfect matchings of products of paired entries.

    The one-row call of `hafnians`.
    """
    return complex(hafnians(as_matrix(m)[None])[0])


def hafnian_sq_mod(graph, subset) -> float:
    """|Haf(adjacency restricted to subset)|^2. Subset size must be even."""
    verts = list(subset)
    if len(verts) % 2 != 0:
        raise ValidationError("hafnian objective requires an even subset size")
    if len(set(verts)) != len(verts):
        raise ValidationError("subset vertices must be distinct")
    n = graph.n
    if any(v < 0 or v >= n for v in verts):
        raise ValidationError("subset vertex out of range")
    if not verts:
        return 1.0
    sub = graph.adjacency[np.ix_(verts, verts)]
    return float(abs(hafnian(sub)) ** 2)


def torontonian(o) -> float:
    """Torontonian of a 2m x 2m matrix in (first-block, second-block) ordering.

    Tor(O) = sum over Z subset of {1..m} of (-1)^(m-|Z|) / sqrt(det(I - O_Z)),
    where O_Z keeps rows/columns {i, i+m : i in Z}. Every det(I - O_Z) must be
    a positive real; anything else marks an unphysical input.
    """
    a = as_matrix(o)
    n = a.shape[0]
    if n % 2 != 0:
        raise ValidationError(f"torontonian requires even dimension, got {n}")
    m = n // 2
    if m > TORONTONIAN_MAX_MODES:
        raise CostGuardError(
            f"torontonian mode count {m} exceeds the cost cap of "
            f"{TORONTONIAN_MAX_MODES}"
        )
    total = float((-1) ** m)  # empty subset: det of the 0x0 matrix is 1
    eye_cache = [np.eye(2 * k, dtype=np.complex128) for k in range(m + 1)]
    for mask in range(1, 1 << m):
        sel = [i for i in range(m) if (mask >> i) & 1]
        k = len(sel)
        idx = sel + [i + m for i in sel]
        d = np.linalg.det(eye_cache[k] - a[np.ix_(idx, idx)])
        if d.real <= 0 or abs(d.imag) > _IMAG_TOL * abs(d):
            raise PhysicalityError(
                f"det(I - O_Z) = {d} is not positive real; input is unphysical"
            )
        total += (-1) ** (m - k) / np.sqrt(d.real)
    return total
