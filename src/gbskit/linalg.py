"""Dense complex linear algebra kernel.

Thin, validated wrappers around LAPACK (via numpy) plus the Takagi-Autonne
decomposition of complex symmetric matrices, which is the one primitive the
rest of the toolkit needs that numpy does not ship. It is built from numpy
alone: an eigendecomposition, and a full SVD that completes the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["TakagiFactorization", "as_matrix", "inverse", "symmetrized", "takagi"]

_SINGULAR_TOL = 1e-12
# relative symmetry tolerance of `symmetrized`, and `takagi`'s zero-value cutoff
_SYM_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 2-D array and validate finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def symmetrized(a: np.ndarray, what: str) -> np.ndarray:
    """a / 2 + a^T / 2 (it cannot overflow) of each matrix in a finite complex
    (..., n, n) array, refusing one with ||a - a^T|| > `_SYM_TOL` * ||a||.
    Both norms are taken after dividing by the largest real or imaginary
    part, so no norm overflows and the rule holds at every scale. The error
    names `what` and a stack's first refused row."""
    top = np.maximum(abs(a.real), abs(a.imag)).max((-2, -1), keepdims=True, initial=0)
    s = a / np.where(top > 0, top, 1.0)
    skew = np.linalg.norm(s - np.swapaxes(s, -1, -2), axis=(-2, -1))
    bad = np.flatnonzero(skew > _SYM_TOL * np.linalg.norm(s, axis=(-2, -1)))
    if bad.size:
        row = f"; stack row {bad[0]} is not" if a.ndim > 2 else ""
        raise ValidationError(f"{what} requires a symmetric matrix{row}")
    return a / 2.0 + np.swapaxes(a, -1, -2) / 2.0


def inverse(m) -> np.ndarray:
    """Matrix inverse; rejects numerically singular inputs."""
    a = as_matrix(m)
    if a.shape[0] == 0:
        return a.copy()
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= _SINGULAR_TOL * sv[0]:
        raise ValidationError("matrix is singular to working precision")
    return np.linalg.inv(a)


@dataclass(frozen=True)
class TakagiFactorization:
    """S = U diag(values) U^T with unitary U and values >= 0, sorted descending."""

    unitary: np.ndarray
    values: np.ndarray


def takagi(s) -> TakagiFactorization:
    """Takagi-Autonne decomposition of a complex symmetric matrix.

    Route: the real symmetric embedding H = [[Re S, Im S], [Im S, -Re S]] has
    eigenvalues +-d_i. An eigenvector (x, y) of H for d >= 0 gives a Takagi
    vector u = x + i y with S conj(u) = d u, and distinct or repeated d > 0
    give orthonormal u. Values at or below `_SYM_TOL` * d_max (also the
    relative symmetry tolerance) count as zero: their vectors complete the
    others to an orthonormal basis, as S conj(v) = 0 for every v orthogonal
    to them. The r kept columns u are orthonormal, so u^H has r unit
    singular values, and the last n - r right singular vectors of its full
    SVD (LAPACK gesdd) complete the basis: the bytes of
    `scipy.linalg.null_space(u^H)`, whose rank rule keeps exactly those r.
    """
    a = symmetrized(as_matrix(s), "takagi")
    n = a.shape[0]
    if n == 0:
        return TakagiFactorization(unitary=a, values=np.zeros(0))

    h = np.block([[a.real, a.imag], [a.imag, -a.real]])
    evals, evecs = np.linalg.eigh(h)  # ascending
    vals = evals[::-1][:n]
    vecs = evecs[:, ::-1][:, :n]
    r = int(np.sum(vals > _SYM_TOL * vals[0]))
    u = vecs[:n, :r] + 1j * vecs[n:, :r]
    q = np.hstack([u, np.linalg.svd(u.conj().T)[2][r:].T.conj()])
    vals = np.concatenate([vals[:r], np.zeros(n - r)])
    return TakagiFactorization(unitary=q, values=vals)
