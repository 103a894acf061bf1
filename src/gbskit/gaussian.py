"""Gaussian-state device model.

States are zero-mean M-mode Gaussian states held as a 2M x 2M Husimi
covariance matrix in creation/annihilation ordering, normalized so that the
vacuum is the identity. The sampling matrix is extracted as X (I - sigma^-1)
with X the block swap.

Every threshold-detection probability comes from one kernel,
`marginal_probabilities`: the vacuum probability P_vac(W) = det(sigma_W)^(-1/2)
of a mode subset W is read off the Husimi matrix, and clicks on C with vacuum
on R have probability sum over Z subset of C of (-1)^|Z| P_vac(R u Z). The
kernel takes a batch of (R, C) bitmask rows at once. Each row's 2^|C| masks
R | Z are looked up in a dense table of 2^M float64 values on the state
(0 = not yet computed; P_vac > 0 always), allocated on first use. Misses are
de-duplicated and computed with stacked determinants grouped by subset size,
and each row's signed terms are summed by one matrix-vector product. Mask
arrays and determinant stacks are built in chunks of `_CHUNK` elements, so
their size does not grow with the batch (a row with more than 13 clicks
has more masks than that and is handled alone; at most 16 clicks are
allowed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CostGuardError, PhysicalityError, ValidationError
from .linalg import as_matrix, inverse, takagi
from .matfn import TORONTONIAN_MAX_MODES

__all__ = [
    "GaussianState",
    "SamplingMatrix",
    "NoiseConfig",
    "state_from_device",
    "pure_state_from_a",
    "sampling_matrix",
    "apply_loss",
    "apply_thermal",
    "pattern_probability",
    "marginal_probability",
    "marginal_probabilities",
    "reduce_modes",
    "mode_click_probability",
    "mean_clicks",
    "mean_photons",
]

# the vacuum table holds 2^M float64 values: 128 MB at this many modes
MAX_TABLE_MODES = 24
# elements per mask array or determinant stack handled in one numpy call
_CHUNK = 8192

_HERM_TOL = 1e-10
_EIG_FLOOR_TOL = 1e-8
_PURE_L_TOL = 1e-8
_A_SYM_TOL = 1e-9
_IMAG_TOL = 1e-8
_PROB_TOL = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """Immutable M-mode Gaussian state; `husimi` is validated on construction."""

    modes: int
    husimi: np.ndarray
    # P_vac(W) indexed by the bitmask of W, 0 where not yet computed;
    # allocated by the first probability query
    _vacuum: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        sq = as_matrix(self.husimi)
        if sq.shape != (2 * self.modes, 2 * self.modes):
            raise ValidationError(
                f"husimi matrix shape {sq.shape} does not match {self.modes} modes"
            )
        scale = max(np.linalg.norm(sq), 1.0)
        if np.linalg.norm(sq - sq.conj().T) > _HERM_TOL * scale:
            raise PhysicalityError("husimi covariance is not Hermitian")
        sq = (sq + sq.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(sq)
        # tolerance scales with the covariance norm: roundoff in a strongly
        # squeezed state is relative to its largest eigenvalue
        if eigs.min() < 0.5 - _EIG_FLOOR_TOL * max(1.0, eigs.max()):
            raise PhysicalityError(
                f"husimi covariance violates the uncertainty bound "
                f"(min eigenvalue {eigs.min():.3e} < 1/2)"
            )
        object.__setattr__(self, "husimi", sq)
        self.husimi.setflags(write=False)


@dataclass(frozen=True)
class SamplingMatrix:
    """Block matrix [[A, L], [L^dagger, A*]] extracted from a state."""

    a: np.ndarray
    l: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.block([[self.a, self.l], [self.l.conj().T, self.a.conj()]])


@dataclass(frozen=True)
class NoiseConfig:
    """Uniform device noise: transmission eta and thermal mixing epsilon."""

    eta: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")


def _block_swap(m: int) -> np.ndarray:
    x = np.zeros((2 * m, 2 * m))
    x[:m, m:] = np.eye(m)
    x[m:, :m] = np.eye(m)
    return x


def _assemble(r: np.ndarray, u: np.ndarray, epsilon: float) -> GaussianState:
    """Build the output covariance of squeezers (mixed thermally by epsilon)
    followed by the interferometer u."""
    m = u.shape[0]
    cosh2 = np.cosh(r) ** 2
    anom = (1.0 - epsilon) * np.sinh(r) * np.cosh(r)
    d = np.diag(cosh2).astype(np.complex128)
    off = np.diag(anom).astype(np.complex128)
    sigma_in = np.block([[d, off], [off, d]])
    t = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    t[:m, :m] = u.conj()
    t[m:, m:] = u
    sq = t @ sigma_in @ t.conj().T
    return GaussianState(modes=m, husimi=sq)


def _check_unitary(u: np.ndarray, tol: float = 1e-9) -> None:
    m = u.shape[0]
    if np.linalg.norm(u.conj().T @ u - np.eye(m)) > tol * max(1.0, np.sqrt(m)):
        raise ValidationError("interferometer matrix is not unitary")


def state_from_device(squeezing, interferometer) -> GaussianState:
    """Pure state of squeezed vacua through an interferometer.

    The resulting sampling matrix A block equals U diag(tanh r) U^T.
    """
    r = np.asarray(squeezing, dtype=float)
    if r.ndim != 1 or np.any(r < 0):
        raise ValidationError("squeezing must be a 1-D list of nonnegative reals")
    u = as_matrix(interferometer)
    if u.shape[0] != r.shape[0]:
        raise ValidationError("squeezing list and interferometer size mismatch")
    _check_unitary(u)
    return _assemble(r, u, epsilon=0.0)


def pure_state_from_a(a) -> GaussianState:
    """Pure state whose sampling matrix A block is the given symmetric matrix
    (spectral norm must be < 1)."""
    a = as_matrix(a)
    m = a.shape[0]
    fac = takagi(a)
    if fac.values.size and fac.values[0] >= 1.0:
        raise ValidationError("spectral norm of A must be below 1")
    x = _block_swap(m)
    a_full = np.block(
        [[a, np.zeros((m, m))], [np.zeros((m, m)), a.conj()]]
    )
    sq = inverse(np.eye(2 * m) - x @ a_full)
    return GaussianState(modes=m, husimi=sq)


def sampling_matrix(state: GaussianState) -> SamplingMatrix:
    """Extract the block sampling matrix X (I - sigma^-1)."""
    m = state.modes
    x = _block_swap(m)
    full = x @ (np.eye(2 * m) - inverse(state.husimi))
    a_blk = full[:m, :m]
    l_blk = full[:m, m:]
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
    if np.any(e < 0) or np.any(e > 1):
        raise ValidationError("eta values must lie in [0, 1]")
    d = np.sqrt(np.concatenate([e, e]))
    sq = d[:, None] * state.husimi * d[None, :]
    sq = sq + np.diag(1.0 - d**2)
    return GaussianState(modes=m, husimi=sq)


def apply_thermal(state: GaussianState, epsilon: float) -> GaussianState:
    """Thermal-mixing channel on the input squeezers.

    Model: each input squeezer's covariance is convexly interpolated with a
    thermal state of equal mean photon number, then sent through the same
    interferometer. Requires a pure (lossless) input state, whose device
    description is recovered from the Takagi factorization of its A block.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    sm = sampling_matrix(state)
    if np.linalg.norm(sm.l) > _PURE_L_TOL * max(1.0, np.linalg.norm(sm.a)):
        raise ValidationError(
            "thermal mixing is defined on pure (lossless) device states"
        )
    fac = takagi(sm.a)
    if fac.values.size and fac.values[0] >= 1.0:
        raise PhysicalityError("sampling matrix spectral norm >= 1")
    r = np.arctanh(fac.values)
    return _assemble(r, fac.unitary, epsilon)


def reduce_modes(state: GaussianState, keep) -> GaussianState:
    """Marginal state on the given mode subset."""
    keep = list(keep)
    if not keep:
        raise ValidationError("mode subset must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValidationError("mode subset must be distinct")
    m = state.modes
    if any(k < 0 or k >= m for k in keep):
        raise ValidationError("mode index out of range")
    idx = keep + [k + m for k in keep]
    sq = state.husimi[np.ix_(idx, idx)]
    return GaussianState(modes=len(keep), husimi=sq)


def _fill_vacuum(state: GaussianState, table: np.ndarray, masks: np.ndarray):
    """Store P_vac(W) = det(sigma_W)^(-1/2) for each distinct mask W."""
    m = state.modes
    flat = state.husimi.ravel()
    bits = (masks[:, None] >> np.arange(m)) & 1
    sizes = bits.sum(axis=1)
    for s in np.unique(sizes).tolist():
        sel = sizes == s
        group = masks[sel]
        modes = np.nonzero(bits[sel])[1].reshape(-1, s)
        idx = np.concatenate([modes, modes + m], axis=1)
        step = max(1, _CHUNK // (2 * s) ** 2)
        for lo in range(0, group.size, step):
            sub = idx[lo:lo + step]
            d = np.linalg.det(flat.take(sub[:, :, None] * 2 * m + sub[:, None, :]))
            bad = np.flatnonzero((d.real <= 0) | (abs(d.imag) > _IMAG_TOL * abs(d)))
            if bad.size:
                i = bad[0]
                raise PhysicalityError(
                    f"det of the husimi covariance on modes {sub[i, :s].tolist()} "
                    f"= {d[i]} is not positive real"
                )
            # libm pow, not numpy's SIMD power, whose last bit varies by CPU
            table[group[lo:lo + step]] = [x ** -0.5 for x in d.real.tolist()]


def marginal_probabilities(state: GaussianState, vacuum, clicked) -> np.ndarray:
    """For each row i, the probability of clicks on every mode of bitmask
    `clicked[i]` and vacuum on every mode of bitmask `vacuum[i]`, other modes
    unobserved."""
    table = state._vacuum
    if table is None:
        if state.modes > MAX_TABLE_MODES:
            raise CostGuardError(
                f"the vacuum-probability table for {state.modes} modes exceeds "
                f"the cap of {MAX_TABLE_MODES} modes"
            )
        table = np.zeros(1 << state.modes)
        table[0] = 1.0
        object.__setattr__(state, "_vacuum", table)
    vacuum = np.asarray(vacuum, dtype=np.int64)
    clicked = np.asarray(clicked, dtype=np.int64)
    m = state.modes
    if vacuum.ndim != 1 or vacuum.shape != clicked.shape:
        raise ValidationError("vacuum and clicked must be 1-D arrays of one length")
    both = vacuum | clicked
    if np.any(both < 0) or np.any(both >> m) or np.any(vacuum & clicked):
        raise ValidationError(
            f"vacuum and clicked must be disjoint bitmasks of {m} modes"
        )
    counts = ((clicked[:, None] >> np.arange(m)) & 1).sum(axis=1)
    if counts.size and counts.max() > TORONTONIAN_MAX_MODES:
        raise CostGuardError(
            f"{counts.max()} clicked modes exceed the cost cap of "
            f"{TORONTONIAN_MAX_MODES}"
        )
    out = np.empty(counts.size)
    for c in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == c)
        signs = np.ones(1)
        for _ in range(c):
            signs = np.concatenate([signs, -signs])
        step = max(1, _CHUNK >> c)
        for lo in range(0, rows.size, step):
            r = rows[lo:lo + step]
            masks, rest = vacuum[r, None], clicked[r]
            for _ in range(c):
                low = rest & -rest
                rest = rest ^ low
                masks = np.concatenate([masks, masks | low[:, None]], axis=1)
            vals = table[masks]
            if not vals.all():
                _fill_vacuum(state, table, np.unique(masks[vals == 0]))
                vals = table[masks]
            out[r] = vals @ signs
    bad = np.flatnonzero(~((out >= -_PROB_TOL) & (out <= 1.0 + _PROB_TOL)))
    if bad.size:
        raise PhysicalityError(f"click probability {out[bad[0]]} outside [0, 1]")
    return np.clip(out, 0.0, 1.0)


def marginal_probability(state: GaussianState, vacuum: int, clicked: int) -> float:
    """Probability of clicks on every mode of bitmask `clicked` and vacuum on
    every mode of bitmask `vacuum`, other modes unobserved."""
    return float(marginal_probabilities(state, [vacuum], [clicked])[0])


def pattern_probability(state: GaussianState, pattern) -> float:
    """Exact probability of a threshold-detector click pattern."""
    bits = np.asarray(pattern, dtype=int)
    m = state.modes
    if bits.shape != (m,) or np.any((bits != 0) & (bits != 1)):
        raise ValidationError("pattern must be a 0/1 vector of length modes")
    c = sum(1 << int(i) for i in np.flatnonzero(bits == 1))
    return marginal_probability(state, ((1 << m) - 1) ^ c, c)


def mode_click_probability(state: GaussianState, mode: int) -> float:
    """Marginal click probability of a single mode, 1 - P_vac({mode})."""
    if not 0 <= mode < state.modes:
        raise ValidationError("mode index out of range")
    return marginal_probability(state, 0, 1 << int(mode))


def mean_clicks(state: GaussianState) -> float:
    """Expected click count: sum of single-mode marginal click probabilities."""
    single = 1 << np.arange(state.modes, dtype=np.int64)
    return sum(marginal_probabilities(state, np.zeros_like(single), single).tolist())


def mean_photons(state: GaussianState) -> float:
    """Total mean photon number, tr(sigma_Q)/2 - M."""
    return float(np.trace(state.husimi).real / 2.0 - state.modes)
