"""Gaussian-state device model.

States are zero-mean M-mode Gaussian states held as a 2M x 2M Husimi
covariance matrix in creation/annihilation ordering, normalized so that the
vacuum is the identity. The sampling matrix is extracted as X (I - sigma^-1)
with X the block swap.

`pattern_distribution` gives all 2^M click-pattern probabilities at once:
clicks on C with vacuum on R have probability sum over Z subset of C of
(-1)^|Z| P_vac(R u Z), P_vac(W) = det(sigma_W)^(-1/2). One mode-by-mode
Schur-complement recursion gives every subset determinant (the torontonian
takes its terms from the same step), and one subset (Yates) transform every
sum. With a click cap k, the same step runs on the inverse matrix and visits
only subsets of at most k modes, which by Jacobi's identity give every
pattern of at most k clicks: P(C) = det(sigma)^(-1/2) sum over Y subset of C
of (-1)^(|C|-|Y|) det((sigma^-1)_Y)^(-1/2), the Tor(O_C) / sqrt(det sigma)
form.

One formula gives every single-mode click probability, 1 - P_vac({j}) =
1 - (sigma_jj sigma_{j+M,j+M} - |sigma_{j,j+M}|^2)^(-1/2): `mean_clicks` and
`mode_click_probability` feed it a state's Husimi diagonals, and the scale
bisection in `encoding` a pure device's, in closed form from (r, U) with no
state built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError, PhysicalityError, ValidationError
from .linalg import as_matrix, inverse

__all__ = [
    "GaussianState",
    "SamplingMatrix",
    "state_from_device",
    "sampling_matrix",
    "apply_loss",
    "apply_thermal",
    "pattern_distribution",
    "pattern_probability",
    "mode_click_probability",
    "mean_clicks",
]

# the click distribution holds 2^M float64 values: 128 MB at this many modes
MAX_TABLE_MODES = 24
# values per stack of Schur complements handled in one numpy call; per-step
# overhead dominated both recursions at 8192 (16 modes: 29 ms uncapped and,
# at k = 6, 19 ms capped, against 17 ms and 9 ms at 1 << 15)
_CHUNK = 1 << 15

_HERM_TOL = 1e-10
_UNITARY_TOL = 1e-9
_EIG_FLOOR_TOL = 1e-8
_PURE_L_TOL = 1e-8
_A_SYM_TOL = 1e-9
_IMAG_TOL = 1e-8
_PROB_TOL = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """Immutable M-mode Gaussian state; `husimi` is validated on construction:
    Hermitian, within the uncertainty bound, and real in the quadrature basis
    (the bosonic block structure [[N, M], [M*, N*]])."""

    modes: int
    husimi: np.ndarray

    def __post_init__(self):
        sq = as_matrix(self.husimi)
        if sq.shape != (2 * self.modes, 2 * self.modes):
            raise ValidationError(
                f"husimi matrix shape {sq.shape} does not match {self.modes} modes"
            )
        sq = _hermitian_bosonic(sq, "husimi covariance")
        # ascending, so the extremes are the ends
        lo, hi = np.linalg.eigvalsh(sq)[[0, -1]].tolist()
        # tolerance scales with the covariance norm: roundoff in a strongly
        # squeezed state is relative to its largest eigenvalue
        if lo < 0.5 - _EIG_FLOOR_TOL * max(1.0, hi):
            raise PhysicalityError(
                f"husimi covariance violates the uncertainty bound "
                f"(min eigenvalue {lo:.3e} < 1/2)"
            )
        object.__setattr__(self, "husimi", sq)
        self.husimi.setflags(write=False)


def _hermitian_bosonic(sq: np.ndarray, what: str) -> np.ndarray:
    """Hermitian part of a 2M x 2M matrix `sq`, once checked to be Hermitian
    and bosonic relative to its norm, which must be finite; `what` names sq."""
    # an infinite norm (squeezing r ~ 180 and up) makes every tolerance
    # infinite; a difference that overflows fails its check
    with np.errstate(over="ignore"):
        scale = max(np.linalg.norm(sq), 1.0)
        if scale == np.inf:
            raise PhysicalityError(f"{what} norm overflows float64")
        adjoint = sq.conj().T
        if np.linalg.norm(sq - adjoint) > _HERM_TOL * scale:
            raise PhysicalityError(f"{what} is not Hermitian")
        sq = (sq + adjoint) / 2.0
        # sq is real in the quadrature basis of `_vacuum_probabilities` iff it
        # is bosonic, [[N, M], [M*, N*]]; that change of basis is unitary up
        # to a factor 2, so this is the norm of the imaginary part there
        m = len(sq) // 2
        d = sq[:m] - np.concatenate([sq[m:, m:], sq[m:, :m]], axis=1).conj()
        if np.sqrt(np.vdot(d, d).real / 2.0) > _IMAG_TOL * scale:
            raise PhysicalityError(
                f"{what} is not real in the quadrature basis "
                "(no bosonic [[N, M], [M*, N*]] block structure)"
            )
    return sq


@dataclass(frozen=True)
class SamplingMatrix:
    """Block matrix [[A, L], [L^dagger, A*]] extracted from a state."""

    a: np.ndarray
    l: np.ndarray


def state_from_device(squeezing, interferometer) -> GaussianState:
    """Pure state of squeezed vacua through an interferometer.

    Each squeezer has Husimi blocks cosh^2 r (diagonal) and sinh r cosh r
    (anomalous); the interferometer U acts as diag(U*, U). The resulting
    sampling matrix A block equals U diag(tanh r) U^T.
    """
    r = np.asarray(squeezing, dtype=float)
    if r.ndim != 1 or np.any(r < 0):
        raise ValidationError("squeezing must be a 1-D list of nonnegative reals")
    u = as_matrix(interferometer)
    m = r.shape[0]
    if u.shape[0] != m:
        raise ValidationError("squeezing list and interferometer size mismatch")
    if np.linalg.norm(u.conj().T @ u - np.eye(m)) > _UNITARY_TOL * max(1.0, np.sqrt(m)):
        raise ValidationError("interferometer matrix is not unitary")
    d = np.diag(np.cosh(r) ** 2).astype(np.complex128)
    off = np.diag(np.sinh(r) * np.cosh(r)).astype(np.complex128)
    sigma_in = np.block([[d, off], [off, d]])
    t = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    t[:m, :m] = u.conj()
    t[m:, m:] = u
    return GaussianState(modes=m, husimi=t @ sigma_in @ t.conj().T)


def sampling_matrix(state: GaussianState) -> SamplingMatrix:
    """Extract the sampling matrix [[A, L], [L^dagger, A*]] = X (I - sigma^-1),
    X the block swap: A and L are the lower row blocks of I - sigma^-1."""
    m = state.modes
    o = np.eye(2 * m) - inverse(state.husimi)
    a_blk = o[m:, :m]
    l_blk = o[m:, m:]
    scale = max(np.linalg.norm(a_blk), 1.0)
    if np.linalg.norm(a_blk - a_blk.T) > _A_SYM_TOL * scale:
        raise PhysicalityError("extracted A block is not symmetric")
    a_blk = (a_blk + a_blk.T) / 2.0
    return SamplingMatrix(a=a_blk, l=l_blk)


def apply_loss(state: GaussianState, eta) -> GaussianState:
    """Pure-loss channel: sigma -> D sigma D + (I - D^2)/2 on sigma_Q - I/2."""
    m = state.modes
    e = np.asarray(eta, dtype=float)
    if e.ndim == 0:
        e = np.full(m, float(e))
    if e.shape != (m,):
        raise ValidationError("eta must be a scalar or one value per mode")
    if not np.all((e >= 0) & (e <= 1)):  # NaN fails both
        raise ValidationError("eta values must lie in [0, 1]")
    d = np.sqrt(np.concatenate([e, e]))
    sq = d[:, None] * state.husimi * d[None, :]
    sq = sq + np.diag(1.0 - d**2)
    return GaussianState(modes=m, husimi=sq)


def apply_thermal(state: GaussianState, epsilon: float) -> GaussianState:
    """Thermal-mixing channel on the input squeezers.

    Model: each input squeezer's covariance is convexly interpolated with a
    thermal state of equal mean photon number, which scales its anomalous
    (squeezing) term by 1 - epsilon and keeps its diagonal; the result goes
    through the same interferometer. Requires a pure (lossless) input state.
    The interferometer acts on each Husimi block alone, so the output is the
    input with both off-diagonal blocks scaled by 1 - epsilon, whatever
    device produced it.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    sm = sampling_matrix(state)
    if np.linalg.norm(sm.l) > _PURE_L_TOL * max(1.0, np.linalg.norm(sm.a)):
        raise ValidationError(
            "thermal mixing is defined on pure (lossless) device states"
        )
    m = state.modes
    sq = state.husimi.copy()
    sq[:m, m:] *= 1.0 - epsilon
    sq[m:, :m] *= 1.0 - epsilon
    return GaussianState(modes=m, husimi=sq)


def _vacuum_probabilities(sq: np.ndarray, cap: int | None = None) -> np.ndarray:
    """det(sq_W)^(-1/2) at index ~W for every mode subset W of a checked
    2M x 2M matrix (P_vac(W) when sq is a Husimi matrix), in the real
    quadrature basis x0, p0, x1, p1, ..., a change that acts on each mode alone
    and keeps subset determinants. A work item covers every W whose modes
    below h are those of some masks[i]: stack[i] is the Schur complement on
    modes h and up given those modes, and dets[i] their det. Mode h is
    dropped by a slice, or added by a rank-2 update with the inverse of the
    leading 2x2 block, whose det multiplies dets[i]. Stacks of more than
    `_CHUNK` values are split along their rows first.

    With a `cap` k, only the W whose complement ~W has at most k modes are
    covered, and every other index holds 0. The recursion then runs on v^-1
    from det v, v the matrix in the quadrature basis, and its masks are the
    complements: det v_W = det v * det (v^-1)_~W (Jacobi's identity). A row
    of k - 1 modes writes its "add" child out at once and skips that child's
    rank-2 update; a row of k modes is never made."""
    m = len(sq) // 2
    w = np.kron(np.eye(m), [[1.0, 1.0], [-1j, 1j]])[:, np.r_[:2 * m:2, 1:2 * m:2]]
    v = (w @ sq @ w.conj().T / 2.0).real
    if cap is None:
        out, flip = np.empty(1 << m), (1 << m) - 1
        work = [(0, v[None], np.ones(1), np.zeros(1, dtype=int))]
    else:  # 1 / sqrt(inf) leaves 0 at every index no row reaches
        out, flip = np.full(1 << m, np.inf), 0
        work = [(0, inverse(v).real[None], np.array([np.linalg.det(v)]),
                 np.zeros(1, dtype=int))]
    while work:
        h, stack, dets, masks = work.pop()
        while stack.shape[1] and (stack.size <= _CHUNK or len(stack) == 1):
            a, b, c = stack[:, 0, 0, None], stack[:, 0, 1, None], stack[:, 1, 1, None]
            pivot = a * c - b * b
            if not (a.min() > 0 and pivot.min() > 0):
                bad = int(masks[np.flatnonzero(~((a > 0) & (pivot > 0)))[0]]) | 1 << h
                modes = [i for i in range(h + 1) if bad >> i & 1]
                raise PhysicalityError(f"modes {modes}: block not positive definite")
            x, y, rest = stack[:, 2:, 0], stack[:, 2:, 1], stack[:, 2:, 2:]
            dets_add, masks_add, rest_add = dets * pivot[:, 0], masks | 1 << h, rest
            if cap is not None:
                count = np.bitwise_count(masks)
                if (count >= cap - 1).any():  # only rows below k - 1 grow
                    ends, go = count == cap - 1, count < cap - 1
                    out[masks_add[ends]] = dets_add[ends]
                    a, b, c, pivot, x, y = a[go], b[go], c[go], pivot[go], x[go], y[go]
                    dets_add, masks_add, rest_add = dets_add[go], masks_add[go], rest[go]
            f, g = (c * x - b * y) / pivot, (a * y - b * x) / pivot
            added = (rest_add - f[:, :, None] * x[:, None, :]
                     - g[:, :, None] * y[:, None, :])
            stack = np.concatenate([rest, added])
            dets = np.concatenate([dets, dets_add])
            masks = np.concatenate([masks, masks_add])
            h += 1
        if stack.shape[1]:
            work += [(h, stack[p], dets[p], masks[p])
                     for p in (np.s_[:len(stack) // 2], np.s_[len(stack) // 2:])]
        else:
            out[flip ^ masks] = dets
    return np.divide(1.0, np.sqrt(out, out=out), out=out)  # IEEE-exact ops


def pattern_distribution(
    state: GaussianState, max_clicks: int | None = None
) -> np.ndarray:
    """Exact probability of every click pattern, as a new vector indexed by
    click bitmask (bit i = mode i).

    With `max_clicks` k, every pattern of more than k clicks reads 0, and the
    recursion visits only the sum over j <= k of C(M, j) subsets that the
    other patterns need instead of all 2^M. Their probabilities must then sum
    to at most 1, and to 1 when k = M."""
    m = state.modes
    if m > MAX_TABLE_MODES:
        raise CostGuardError(f"click distribution of {m} modes exceeds the cap "
                             f"of {MAX_TABLE_MODES} modes")
    if max_clicks is not None and not 0 <= max_clicks <= m:
        raise ValidationError(f"click count {max_clicks} out of range [0, {m}]")
    # at complement masks (at masks when capped); then Yates
    dist = _vacuum_probabilities(state.husimi, max_clicks)
    for i in range(m):
        pairs = dist.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    if max_clicks is not None:
        dist[_click_counts(m) > max_clicks] = 0.0
    lo, hi, total = dist.min(), dist.max(), dist.sum()
    whole = max_clicks in (None, m)
    if not (-_PROB_TOL <= lo and hi <= 1 + _PROB_TOL and total <= 1 + _PROB_TOL
            and (not whole or abs(total - 1) <= _PROB_TOL)):
        raise PhysicalityError(f"click probabilities in [{lo}, {hi}] sum to {total}")
    return np.clip(dist, 0.0, 1.0, out=dist)


def _click_counts(modes: int) -> np.ndarray:
    """Number of clicks of each click bitmask below 2^modes, as uint8."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(modes):
        counts = np.concatenate([counts, counts + 1])
    return counts


def pattern_probability(state: GaussianState, pattern) -> float:
    """Exact probability of a threshold-detector click pattern.

    Each call computes the whole 2^M `pattern_distribution`; for many
    patterns of one state, index that vector once instead."""
    bits = np.asarray(pattern)
    if bits.shape != (state.modes,) or np.any((bits != 0) & (bits != 1)):
        raise ValidationError("pattern must be a 0/1 vector of length modes")
    c = sum(1 << int(i) for i in np.flatnonzero(bits == 1))
    return float(pattern_distribution(state)[c])


def _click_probabilities(n_diag, n_conj_diag, anomalous) -> list:
    """1 - P_vac({j}) = 1 - (sigma_jj sigma_{j+M,j+M} - |sigma_{j,j+M}|^2)^(-1/2)
    for each mode j, from its Husimi diagonal entries: the N block's
    `n_diag`, the N* block's `n_conj_diag` and the M block's `anomalous`."""
    d = n_diag * n_conj_diag - (anomalous.real ** 2 + anomalous.imag ** 2)
    # libm pow, not numpy's SIMD power, whose last bit varies by CPU
    out = 1.0 - np.array([x ** -0.5 for x in d.tolist()])
    if not (out >= -_PROB_TOL).all():
        raise PhysicalityError(f"click probability {out.min()} outside [0, 1]")
    return np.clip(out, 0.0, 1.0).tolist()


def _state_click_probabilities(state: GaussianState, modes: np.ndarray) -> list:
    """Click probability of each of `modes`, from the state's Husimi matrix."""
    sq, conj = state.husimi, modes + state.modes
    return _click_probabilities(sq[modes, modes].real, sq[conj, conj].real,
                                sq[modes, conj])


def _device_click_probabilities(r: np.ndarray, u: np.ndarray) -> list:
    """Click probability of each mode of the pure state that `state_from_device`
    would build from squeezing r and interferometer U (neither is checked),
    without building it: its diagonals are N_jj = sum_i |U_ji|^2 cosh^2 r_i in
    both N blocks and M_jj = sum_i U*_ji^2 sinh r_i cosh r_i."""
    n_diag = (u.real ** 2 + u.imag ** 2) @ np.cosh(r) ** 2
    anomalous = (u * u).conj() @ (np.sinh(r) * np.cosh(r))
    return _click_probabilities(n_diag, n_diag, anomalous)


def mode_click_probability(state: GaussianState, mode: int) -> float:
    """Marginal click probability of a single mode, 1 - P_vac({mode})."""
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral):
        raise ValidationError(f"mode index must be an integer, not {type(mode).__name__}")
    if not 0 <= mode < state.modes:
        raise ValidationError("mode index out of range")
    return _state_click_probabilities(state, np.array([int(mode)]))[0]


def mean_clicks(state: GaussianState) -> float:
    """Expected click count: sum of single-mode marginal click probabilities."""
    return sum(_state_click_probabilities(state, np.arange(state.modes)))
