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
form. A subset that can gain at most two more modes (one of k - 2 modes,
or any once two modes are left) is a leaf: the 2x2 blocks of its Schur
complement, and of that after one more mode's rank-2 update, give every
subset it grows into, and it leaves the recursion. While k is small next
to M, those values and their subset transform live on a compact slice, the
ascending bitmasks of at most k modes; for larger k, where the slice's
transform pairs would outgrow two 2^M vectors, they fill a 2^M vector,
transformed in full and then gathered.
`sampler.sample_k_clicks` reads the slice, and `pattern_distribution(state,
k)` scatters it into a 2^M vector.

One formula gives every single-mode click probability, 1 - P_vac({j}) =
1 - (sigma_jj sigma_{j+M,j+M} - |sigma_{j,j+M}|^2)^(-1/2): `mean_clicks` and
`mode_click_probability` feed it a state's Husimi diagonals, and the scale
bisection in `encoding` a pure device's, in closed form from (r, U) with no
state built.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

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
# values per stack of Schur complements handled in one numpy call, half that
# without a cap (raw, one BLAS thread, at 2^15/2^16/2^17: 16 modes at k = 6 took
# 4.6/3.9/3.7 ms; uncapped, 13.0/10.7/12.0 ms with 1.6/2.3/3.4 MB numpy peak)
_CHUNK = 1 << 16

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


@lru_cache(maxsize=MAX_TABLE_MODES + 1)
def _quadrature_basis(m: int) -> np.ndarray:
    """The change to the basis x0, p0, x1, p1, ... of `_vacuum_probabilities`
    (times sqrt 2), read-only: building it took about a sixth of a 4-mode call."""
    w = np.kron(np.eye(m), [[1.0, 1.0], [-1j, 1j]])[:, np.r_[:2 * m:2, 1:2 * m:2]]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=MAX_TABLE_MODES + 1)
def _leaf_plan(r: int) -> tuple:
    """Flat indices into a 2r x 2r Schur complement, for the pairs of modes
    j < l in `np.triu_indices` order: the a, b and c of each mode's diagonal
    block (a, b; b, c), then of each pair's j; each pair's l's a, b and c;
    and the entries x, y of l's two rows in j's two columns. With them, the
    bit offsets of no mode, each mode and each pair. Read-only."""
    i, (j, l), d = np.arange(r), np.triu_indices(r, 1), 2 * r
    t = np.concatenate([i, j])
    plan = np.concatenate([2 * t * (d + 1), 2 * t * (d + 1) + 1, (2 * t + 1) * (d + 1),
                           2 * l * (d + 1), 2 * l * (d + 1) + 1, (2 * l + 1) * (d + 1),
                           2 * l * d + 2 * j, (2 * l + 1) * d + 2 * j,
                           2 * l * d + 2 * j + 1, (2 * l + 1) * d + 2 * j + 1])
    bits = np.concatenate([[0], 1 << i, 1 << j | 1 << l])[:, None]
    for arr in (plan, bits):
        arr.setflags(write=False)
    return plan, bits


def _vacuum_probabilities(sq: np.ndarray, cap: int | None = None,
                          slots: np.ndarray | None = None) -> np.ndarray:
    """det(sq_W)^(-1/2) at index ~W for every mode subset W of a checked
    2M x 2M matrix (P_vac(W) when sq is a Husimi matrix), or with a `cap` k,
    for every W whose complement ~W has at most k modes. The matrix is taken
    to the real quadrature basis x0, p0, x1, p1, ..., a change that acts on
    each mode alone and keeps subset determinants, giving v.

    One loop has two starts: v with det 1, its masks the W, or with a cap,
    v^-1 with det v, its masks the ~W: det v_W = det v * det (v^-1)_~W
    (Jacobi's identity). A work item covers every subset whose modes below
    h are those of some masks[i]: stack[..., i] is the Schur complement on
    modes h and up given those modes, and dets[i] their det; rows lie along
    the last axis, so each entry's values are contiguous. Mode h is dropped
    by a slice, or added by a rank-2 update with the inverse of the leading
    2x2 block (a, b; b, c), which must have a > 0 and p = a c - b b > 0; p
    multiplies dets[i]. A row that can gain at most two more modes, one of
    k - 2 modes or any once two modes are left (without a cap, k is M + 1),
    leaves the stack as a leaf; below a cap of 3 the start is one. From the
    entries of its Schur complement that `_leaf_plan` names, a leaf writes
    its det; at each later mode, its det times the p of its diagonal block
    there; and at each later pair j < l, its det times j's p times the p of
    l's block after j's rank-2 update, by the loop's own operations, so
    every value keeps its bits. Its single-mode blocks (at a cap of 0 too)
    are checked before its pairs, once the item's own steps have passed
    their checks. Every row left in a stack grows. Stacks of more than
    `_CHUNK` values (half that without a cap, where a stack doubles each
    step) are split along their rows first. The values are held at the ~W
    of a 2^M vector, every other index 0, or with `slots`, the ascending
    masks of at most k modes, at the ~W's slot there."""
    m = len(sq) // 2
    w = _quadrature_basis(m)
    v = (w @ sq @ w.conj().T / 2.0).real
    if cap is None:
        cap, start, det, flip, chunk = m + 1, v, 1.0, (1 << m) - 1, _CHUNK // 2
    else:
        start, det, flip, chunk = inverse(v).real, np.linalg.det(v), 0, _CHUNK
    # 1 / sqrt(inf) leaves 0 at every index no row reaches
    out = np.full(1 << m, np.inf) if slots is None else np.empty(slots.size)

    def place(masks):
        return flip ^ masks if slots is None else np.searchsorted(slots, masks)

    def check(a, pivot, grown):
        if a.size and not (a.min() > 0 and pivot.min() > 0):
            bad = int(np.broadcast_to(grown, a.shape)[~((a > 0) & (pivot > 0))][0])
            modes = [i for i in range(m) if bad >> i & 1]
            raise PhysicalityError(f"modes {modes}: block not positive definite")

    def finish(stack, dets, masks):  # leaves, with r modes left
        r, n = len(stack) // 2, len(dets)
        plan, bits = _leaf_plan(r)
        vals, p = stack.reshape(4 * r * r, n)[plan], r * (r - 1) // 2
        grown = masks | bits << m - r  # no mode more, each mode, each pair
        a, b, c = vals[:3 * (r + p)].reshape(3, r + p, n)
        pivot = a * c - b * b  # each mode's block's, then each pair's j's
        check(a[:r], pivot[:r], grown[1:r + 1])
        res = np.empty(grown.shape)
        res[0], res[1:r + 1] = dets, dets * pivot[:r]
        if cap > 1 and p:
            l_abc = vals[3 * (r + p):3 * r + 6 * p].reshape(3, p, n)
            x, y = vals[3 * r + 6 * p:].reshape(2, 2, p, n)
            aj, bj, cj, pj = a[r:], b[r:], c[r:], pivot[r:]
            f, g = (cj * x - bj * y) / pj, (aj * y - bj * x) / pj
            ab = l_abc[:2] - f[0] * x - g[0] * y  # l's block after j's update
            c2 = l_abc[2] - f[1] * x[1] - g[1] * y[1]
            pivot2 = ab[0] * c2 - ab[1] * ab[1]
            check(ab[0], pivot2, grown[r + 1:])
            res[r + 1:] = dets * pj * pivot2
        # a cap of 0 writes the empty ~W alone, and one of 1 no pairs
        size = 1 + r + p if cap > 1 else 1 + r if cap else 1
        out[place(grown[:size])] = res[:size]

    work = [(start[..., None], np.array([det]), np.zeros(1, dtype=int))]
    while work:
        stack, dets, masks = work.pop()
        leaves = []
        while cap > 2 and len(stack) > 4 and (stack.size <= chunk or len(dets) == 1):
            a, b, c = stack[0, 0], stack[0, 1], stack[1, 1]
            pivot, grown = a * c - b * b, masks | 1 << (m - len(stack) // 2)
            check(a, pivot, grown)
            x, y, rest = stack[2:, 0], stack[2:, 1], stack[2:, 2:]
            f, g = (c * x - b * y) / pivot, (a * y - b * x) / pivot
            added = rest - f[:, None] * x[None]
            added -= g[:, None] * y[None]  # in place: one temporary at a time
            dets_add, ends = dets * pivot, np.bitwise_count(grown) == cap - 2
            if ends.any():
                leaves.append((added[..., ends], dets_add[ends], grown[ends]))
                added, dets_add, grown = added[..., ~ends], dets_add[~ends], grown[~ends]
            stack = np.concatenate([rest, added], axis=-1)
            dets, masks = np.concatenate([dets, dets_add]), np.concatenate([masks, grown])
        if cap > 2 and len(stack) > 4:
            half = len(dets) // 2
            work += [(stack[..., :half], dets[:half], masks[:half]),
                     (stack[..., half:], dets[half:], masks[half:])]
        else:  # two modes left, or the start is a leaf
            leaves.append((stack, dets, masks))
        for rows in leaves:  # once the item's own rows pass their checks
            finish(*rows)
    return np.divide(1.0, np.sqrt(out, out=out), out=out)  # IEEE-exact ops


@lru_cache(maxsize=1)
def _slice_masks(modes: int, k: int) -> np.ndarray:
    """The bitmasks of the subsets of at most k of `modes` modes, ascending,
    built by doubling over the modes. Read-only, and held for the last
    (modes, k) only."""
    masks = np.zeros(1, dtype=np.int64)
    for i in range(modes):
        masks = np.concatenate([masks, masks[np.bitwise_count(masks) < k] | 1 << i])
    masks.setflags(write=False)
    return masks


def _on_slice(modes: int, k: int) -> bool:
    """Whether the capped distribution runs on the compact slice rather than
    on a 2^M vector: while the slice's subset transform has at most 2^M
    pairs (S, S - {i}), sum over j <= k of j C(M, j). `_click_slice` keeps
    them at 16 bytes each, so they take no more than two 2^M float vectors,
    about what the 2^M path allocates for the call. Past that they cost
    more than the full transform's strided passes too, or save too little
    for their memory (whole calls, raw, one BLAS thread: 20 modes at k = 7,
    0.84 * 2^M pairs, take 44 ms on the slice against 58 ms; at k = 8,
    1.8 * 2^M, 74 against 71 ms; 16 modes at k = 6, 1.21 * 2^M, 6.7 against
    7.1 ms, but there the 1.3 MB of pairs raised the noise sweep
    benchmark's peak RSS by about 0.6 MB for no clear gain in its op time)."""
    return modes * sum(math.comb(modes - 1, j) for j in range(k)) <= 1 << modes


@lru_cache(maxsize=1)
def _click_slice(modes: int, k: int) -> tuple:
    """`_slice_masks(modes, k)` and, for each mode i, the slots (with,
    without) of every pair S and S - {i} with i in S. Read-only, and held
    for the last (modes, k) only: at 24 modes and k = 6, 190 051 masks and
    17 MB of pairs."""
    masks = _slice_masks(modes, k)
    pairs = []
    for i in range(modes):
        hi = np.flatnonzero(masks >> i & 1)
        pairs.append((hi, np.searchsorted(masks, masks[hi] ^ 1 << i)))
    for arr in itertools.chain.from_iterable(pairs):
        arr.setflags(write=False)
    return masks, tuple(pairs)


def _check_size(modes: int, max_clicks: int | None) -> None:
    """Refuse the 2^M recursion (click tables, torontonians) above
    `MAX_TABLE_MODES` modes, then a click cap outside [0, modes]."""
    if modes > MAX_TABLE_MODES:
        raise CostGuardError(f"2^M table of {modes} modes exceeds the cap "
                             f"of {MAX_TABLE_MODES} modes")
    if max_clicks is not None and not 0 <= max_clicks <= modes:
        raise ValidationError(f"click count {max_clicks} out of range [0, {modes}]")


def _checked(dist: np.ndarray, whole: bool) -> np.ndarray:
    """dist clipped to [0, 1] in place, once its values are checked to lie
    there and to sum to at most 1, and to 1 if it holds every pattern."""
    lo, hi, total = dist.min(), dist.max(), dist.sum()
    if not (-_PROB_TOL <= lo and hi <= 1 + _PROB_TOL and total <= 1 + _PROB_TOL
            and (not whole or abs(total - 1) <= _PROB_TOL)):
        raise PhysicalityError(f"click probabilities in [{lo}, {hi}] sum to {total}")
    return np.clip(dist, 0.0, 1.0, out=dist)


def pattern_distribution(
    state: GaussianState, max_clicks: int | None = None
) -> np.ndarray:
    """Exact probability of every click pattern, as a new vector indexed by
    click bitmask (bit i = mode i).

    With `max_clicks` k, every pattern of more than k clicks reads 0, and
    only the sum over j <= k of C(M, j) others are computed
    (`_capped_distribution`), and this vector scatters them. They must sum
    to at most 1, and to 1 when k = M."""
    if max_clicks is not None:
        masks, probs = _capped_distribution(state, max_clicks)
        dist = np.zeros(1 << state.modes)
        dist[masks] = probs
        return dist
    _check_size(state.modes, None)
    # at complement masks; then Yates
    dist = _vacuum_probabilities(state.husimi)
    for i in range(state.modes):
        pairs = dist.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    return _checked(dist, whole=True)


def _capped_distribution(state: GaussianState, k: int) -> tuple:
    """(masks, probabilities) of every click pattern of at most k clicks, the
    masks ascending and read-only (`_slice_masks`), the probabilities a new
    vector, from the capped recursion's sum over j <= k of C(M, j) subsets.
    While `_on_slice`, its values and the subset transform stay on them: a
    pass writes S from S - {i}, which is in the slice whenever S is, in the
    same passes as the full transform, so every value keeps its bits.
    Otherwise they fill a 2^M vector, transformed in full and then gathered.
    They must sum to at most 1, and to 1 when k = M."""
    _check_size(state.modes, k)
    m = state.modes
    if _on_slice(m, k):
        masks, pairs = _click_slice(m, k)
        dist = _vacuum_probabilities(state.husimi, k, masks)
        for hi, lo in pairs:
            dist[hi] -= dist[lo]
    else:
        masks, dist = _slice_masks(m, k), _vacuum_probabilities(state.husimi, k)
        for i in range(m):
            pairs = dist.reshape(-1, 2, 1 << i)
            pairs[:, 1] -= pairs[:, 0]
        dist = dist[masks]
    return masks, _checked(dist, whole=k == m)


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
