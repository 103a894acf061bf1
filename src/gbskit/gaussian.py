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
form. Each Schur complement is held as its lower 2x2 blocks alone, the
only entries the recursion reads, so dropping a mode is a view and adding
one updates about half the entries of a full complement, each by the full
update's operations. A subset that can gain at most two more modes (one of
k - 2 modes, or any once two modes are left) is a leaf: the 2x2 blocks of
its Schur complement, and of that after one more mode's rank-2 update, give
every subset it grows into, and it leaves the recursion. While k is small next
to M, those values and their subset transform live on a compact slice, the
ascending bitmasks of at most k modes: each value goes to its mask's rank
there, the sum of two ranks read from small tables built per call
(`_slot_places`), and each transform pass selects its pairs of slots as it
runs. For larger k, where those pairs cost more than the passes over 2^M
values (`_on_slice`), they fill a 2^M vector, transformed in full
(`_subset_transform`) and then gathered. The capped law has one form,
(masks, probabilities), read by `sampler.sample_k_clicks` and the noise
sweep, whose grid states run as one stack: they share each step and each
pass's pair selection, which moves the rule toward the slice, and each
state's values keep the bits of its own call (`_capped_distributions`).

One formula gives every single-mode click probability, 1 - P_vac({j}) =
1 - (sigma_jj sigma_{j+M,j+M} - |sigma_{j,j+M}|^2)^(-1/2): `mean_clicks` and
`mode_click_probability` feed it a state's Husimi diagonals, and the scale
bisection in `encoding` a pure device's, in closed form from (r, U) with no
state built.
"""

from __future__ import annotations

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
# values per stack of Schur complements handled in one numpy call, counted as
# full 2r x 2r complements, 4 r^2 a row, though a packed row holds 2 r (r + 1)
# (raw, one BLAS thread; full stacks at 2^15/2^16/2^17: 16 modes at k = 6 took
# 4.6/3.9/3.7 ms, uncapped 13.0/10.7/12.0 ms; at 2^15/2^16 a 3000-draw 20-mode
# `sampler.sample` took 121.2/111.2 ms, its kernel's traced peak 11.8/14.4 MB).
# Packed stacks, two runs of ten alternating process pairs at 2^16 against
# 2^17, median ms (process time): the uncapped 16-mode `pattern_distribution`
# 7.08/7.05 against 7.21/6.97 (2^17 faster in 5/7 pairs, the median ratio
# 0.995/0.994), the four-state 16-mode k = 6 slice stack 10.42/9.98 against
# 10.00/9.28 (6/8 pairs, 0.974/0.931); neither start wins nine pairs of ten.
_CHUNK = 1 << 16
# the time `_mode_pairs` takes to select a slice's pairs over that of one
# state's subtractions on them (`_on_slice`): 0.60-0.82 against 0.32-0.50 ms
# at 16 modes and k = 6, 1.6-1.9 (raw, one BLAS thread, three runs)
_SELECT_COST = 1.75

_HERM_TOL = 1e-10
_UNITARY_TOL = 1e-9
_EIG_FLOOR_TOL = 1e-8
_A_SYM_TOL = 1e-9
_IMAG_TOL = 1e-8
_PROB_TOL = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """Immutable M-mode Gaussian state, M >= 1; `husimi` is validated on
    construction: Hermitian, within the uncertainty bound, and real in the
    quadrature basis (the bosonic block structure [[N, M], [M*, N*]])."""

    modes: int
    husimi: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise ValidationError(f"a state needs at least 1 mode, got {self.modes}")
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
    if r.ndim != 1 or not np.all((0 <= r) & (r < np.inf)):
        raise ValidationError("squeezing must be a 1-D list of nonnegative reals")
    u = as_matrix(interferometer)
    m = r.shape[0]
    if u.shape[0] != m:
        raise ValidationError("squeezing list and interferometer size mismatch")
    if np.linalg.norm(u.conj().T @ u - np.eye(m)) > _UNITARY_TOL * max(1.0, np.sqrt(m)):
        raise ValidationError("interferometer matrix is not unitary")
    t = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    t[:m, :m] = u.conj()
    t[m:, m:] = u
    # cosh^2 r overflows from r ~ 355: the state refuses the non-finite matrix
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diag(np.cosh(r) ** 2).astype(np.complex128)
        off = np.diag(np.sinh(r) * np.cosh(r)).astype(np.complex128)
        husimi = t @ np.block([[d, off], [off, d]]) @ t.conj().T
    return GaussianState(modes=m, husimi=husimi)


def sampling_matrix(state: GaussianState) -> SamplingMatrix:
    """Extract the sampling matrix [[A, L], [L^dagger, A*]] = X (I - sigma^-1),
    X the block swap: A and L are the lower row blocks of I - sigma^-1. No run
    path calls it: from squeezing r ~ 9 the inverse is too inaccurate for a
    symmetric A, and from r ~ 14 it refuses the state as singular."""
    m = state.modes
    o = np.eye(2 * m) - inverse(state.husimi)
    a_blk = o[m:, :m]
    l_blk = o[m:, m:]
    scale = max(np.linalg.norm(a_blk), 1.0)
    if np.linalg.norm(a_blk - a_blk.T) > _A_SYM_TOL * scale:
        raise PhysicalityError("extracted A block is not symmetric")
    a_blk = (a_blk + a_blk.T) / 2.0
    return SamplingMatrix(a=a_blk, l=l_blk)


def _is_noise_level(value) -> bool:
    """The one rule for a noise level (eta, epsilon, a sweep's grid value):
    a real number, not a bool, within [0, 1], which NaN is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 <= value <= 1)


def apply_loss(state: GaussianState, eta) -> GaussianState:
    """Pure-loss channel: sigma -> D sigma D + (I - D^2)/2 on sigma_Q - I/2,
    eta a noise level or one per mode."""
    m = state.modes
    if np.ndim(eta) == 0:
        eta = [eta] * m
    if np.shape(eta) != (m,):
        raise ValidationError("eta must be a scalar or one value per mode")
    if not all(map(_is_noise_level, eta)):
        raise ValidationError("eta values must lie in [0, 1]")
    e = np.array(eta, dtype=float)
    d = np.sqrt(np.concatenate([e, e]))
    sq = d[:, None] * state.husimi * d[None, :] + np.diag(1.0 - d**2)
    return GaussianState(modes=m, husimi=sq)


def apply_thermal(state: GaussianState, epsilon) -> GaussianState:
    """Thermal mixing as global partial dephasing, epsilon a noise level:
    sigma -> (1 - epsilon/2) sigma + (epsilon/2) sigma_R, sigma_R the state
    after a quarter-period phase rotation of every mode (a -> i a), which
    negates both anomalous blocks, so both are scaled by 1 - epsilon. The
    covariance of a mixture of two physical states, it is valid on any
    input. The rotation commutes with loss and any interferometer: on a
    pure device each input squeezer's anomalous term is scaled and its
    diagonal kept (a thermal mixture of equal mean photon number), and on a
    lossy one the result is the thermal-then-loss state."""
    if not _is_noise_level(epsilon):
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
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
def _blocks(r: int) -> tuple:
    """The block rows I and columns J of the r(r+1)/2 lower 2x2 blocks
    I >= J of a 2r x 2r matrix in column-major block order, the layout of a
    packed Schur stack: mode 0's column (I, 0) first, then the packed
    layout of modes 1 and up. Read-only."""
    cols, rows = np.triu_indices(r)
    for arr in (rows, cols):
        arr.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=MAX_TABLE_MODES + 1)
def _leaf_plan(r: int) -> tuple:
    """Flat indices into a packed Schur complement of r modes (`_blocks`),
    for the pairs of modes j < l in `np.triu_indices` order: the a, b and c
    of each mode's diagonal block (a, b; b, c), then of each pair's j; each
    pair's l's a, b and c; and the entries x, y of l's two rows in j's two
    columns, block (l, j). With them, the bit offsets of no mode, each mode
    and each pair. Read-only."""
    i, (j, l) = np.arange(r), np.triu_indices(r, 1)
    t, block = np.concatenate([i, j]), np.zeros((r, r), dtype=np.intp)
    block[_blocks(r)] = np.arange(r * (r + 1) // 2)

    def at(row, col, p, q):  # entry (p, q) of block (row, col), row >= col
        return 4 * block[row, col] + 2 * p + q

    plan = np.concatenate([at(t, t, 0, 0), at(t, t, 0, 1), at(t, t, 1, 1),
                           at(l, l, 0, 0), at(l, l, 0, 1), at(l, l, 1, 1),
                           at(l, j, 0, 0), at(l, j, 1, 0), at(l, j, 0, 1), at(l, j, 1, 1)])
    bits = np.concatenate([[0], 1 << i, 1 << j | 1 << l])[:, None]
    for arr in (plan, bits):
        arr.setflags(write=False)
    return plan, bits


def _vacuum_probabilities(sq: np.ndarray, cap: int | None = None,
                          slots: np.ndarray | None = None) -> np.ndarray:
    """det(sq_W)^(-1/2) at index ~W for every mode subset W of a checked
    2M x 2M matrix (P_vac(W) when sq is a Husimi matrix), or with a `cap` k,
    for every W whose complement ~W has at most k modes; for a (B, 2M, 2M)
    stack of such matrices, one row of values each. Each matrix is taken to
    the real quadrature basis x0, p0, x1, p1, ..., a change that acts on
    each mode alone and keeps subset determinants, giving v.

    One loop has two starts: v with det 1, its masks the W, or with a cap,
    v^-1 with det v, its masks the ~W: det v_W = det v * det (v^-1)_~W
    (Jacobi's identity). A work item covers every subset whose modes below
    h are those of some masks[i]: with r = M - h modes left, stack[..., i]
    holds the r(r+1)/2 lower 2x2 blocks (I, J), I >= J, of the Schur
    complement on modes h and up given those modes, in column-major block
    order (`_blocks`), (r(r+1)/2, 2, 2, rows) in all, and dets[i] their det;
    rows lie along the last axis, so each entry's values are contiguous. The
    start is packed once, and r rides in the item. The B matrices start as
    B rows of one item, each row's mask carrying its matrix's index in the
    bits above M, which no popcount or refusal reads, so each step and leaf
    costs its numpy calls once for the whole stack. The first r blocks are
    mode h's column: block (0, 0) is the leading block (a, b; b, c) and the
    blocks (I, 0) below it give x and y, its two columns. Mode h is dropped
    by the view stack[r:], which is the packed complement of the modes
    after h, or added by a rank-2 update of that view with the inverse of
    (a, b; b, c), which must have a > 0 and p = a c - b b > 0; p multiplies
    dets[i]. The update computes only the lower blocks, block (I, J) as
    rest - f[I] x[J] - g[I] y[J] in that order, f and g the rows of
    (x y) (a, b; b, c)^-1, which is what the full 2r x 2r update computed
    on those entries, so each keeps its bits. The recursion reads no other
    entry: each step's a, b, c, x and y, and the diagonal blocks and blocks
    (l, j) that `_leaf_plan` names, are all lower-block entries (b is the
    upper corner of a diagonal block), and an update of lower blocks reads
    only lower blocks. A row that can gain at most two
    more modes, one of k - 2 modes or any once two modes are left (without
    a cap, k is M + 1), leaves the stack as a leaf; below a cap of 3 the
    start is one. From the entries of its Schur complement that `_leaf_plan`
    names, a leaf writes its det; at each later mode, its det times the p of
    its diagonal block there; and at each later pair j < l, its det times
    j's p times the p of l's block after j's rank-2 update, by the loop's
    own operations. Every operation is elementwise along the rows, so every
    value keeps its bits whatever else shares its stack. Its single-mode
    blocks (at a cap of 0 too) are checked before its pairs, once the item's
    own steps have passed their checks. Every row left in a stack grows.
    Stacks of more than `_CHUNK` values, counted as 4 r^2 a row, the size of
    a full complement, are split along their rows first, so the work items,
    their order and every refusal are those of full 2r x 2r stacks.
    The values are held at the ~W of a 2^M vector, every other index 0, or
    with `slots`, the ascending masks of at most k modes
    (`_slice_masks(M, k)`), at the ~W's slot there, its rank from
    `_slot_places`."""
    m = sq.shape[-1] // 2
    w = _quadrature_basis(m)
    mats = sq.reshape(math.prod(sq.shape[:-2]), 2 * m, 2 * m)
    vs = [(w @ one @ w.conj().T / 2.0).real for one in mats]
    if cap is None:
        cap, starts, dets, flip = m + 1, vs, np.ones(len(vs)), (1 << m) - 1
    else:
        starts, flip = [inverse(v).real for v in vs], 0
        dets = np.array([np.linalg.det(v) for v in vs])
    low, width = (1 << m) - 1, 1 << m if slots is None else slots.size
    # 1 / sqrt(inf) leaves 0 at every index no row reaches
    out = np.full(len(vs) * width, np.inf) if slots is None else np.empty(len(vs) * width)
    place = (lambda masks: flip ^ masks) if slots is None else _slot_places(m, cap, len(vs))

    def check(a, pivot, grown):
        if a.size and not (a.min() > 0 and pivot.min() > 0):
            bad = int(np.broadcast_to(grown, a.shape)[~((a > 0) & (pivot > 0))][0])
            modes = [i for i in range(m) if bad >> i & 1]
            raise PhysicalityError(f"modes {modes}: block not positive definite")

    def finish(stack, dets, masks, r):  # leaves, with r modes left
        n = len(dets)
        plan, bits = _leaf_plan(r)
        vals, p = stack.reshape(4 * len(stack), n)[plan], r * (r - 1) // 2
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

    rows, cols = _blocks(m)
    start = np.stack(starts, axis=-1).reshape(m, 2, m, 2, len(vs))[rows, :, cols]
    work = [(start, dets, np.arange(len(vs)) << m, m)]
    while work:
        stack, dets, masks, r = work.pop()
        leaves = []
        # the full 4 r^2 values per row, so items split where 2r x 2r stacks did
        while cap > 2 and r > 2 and (4 * r * r * len(dets) <= _CHUNK or len(dets) == 1):
            a, b, c = stack[0, 0, 0], stack[0, 0, 1], stack[0, 1, 1]
            pivot, grown = a * c - b * b, masks | 1 << (m - r)
            check(a, pivot, grown)
            x, y, rest = stack[1:r, :, 0], stack[1:r, :, 1], stack[r:]
            f, g = (c * x - b * y) / pivot, (a * y - b * x) / pivot
            rows, cols = _blocks(r - 1)  # of rest's blocks (I, J): f[I] x[J], g[I] y[J]
            added = rest - f[rows, :, None] * x[cols, None]
            added -= g[rows, :, None] * y[cols, None]  # in place: one temporary at a time
            dets_add, ends = dets * pivot, np.bitwise_count(grown & low) == cap - 2
            if ends.any():
                leaves.append((added[..., ends], dets_add[ends], grown[ends], r - 1))
                added, dets_add, grown = added[..., ~ends], dets_add[~ends], grown[~ends]
            stack, r = np.concatenate([rest, added], axis=-1), r - 1
            dets, masks = np.concatenate([dets, dets_add]), np.concatenate([masks, grown])
        if cap > 2 and r > 2:
            # views of the stack: halves of their own rows raised the traced
            # peak of four 16-mode states at k = 6 (3.06 to 3.47 MB) and
            # slowed the sweep, though they cut 20-mode peaks by 1-2 MB
            half = len(dets) // 2
            work += [(stack[..., :half], dets[:half], masks[:half], r),
                     (stack[..., half:], dets[half:], masks[half:], r)]
        else:  # two modes left, or the start is a leaf
            leaves.append((stack, dets, masks, r))
        for item in leaves:  # once the item's own rows pass their checks
            finish(*item)
    out = np.divide(1.0, np.sqrt(out, out=out), out=out)  # IEEE-exact ops
    return out.reshape(*sq.shape[:-2], width)


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


def _slot_places(modes: int, k: int, states: int):
    """The function that takes bitmasks of at most k of `modes` modes, each
    carrying the index i < `states` of its state in the bits from `modes`
    up, to their slots in a stack of slice rows: i times the slice's size,
    plus the mask's rank in `_slice_masks(modes, k)`, the number of slice
    masks below it.

    With h the mask's bits from `modes // 2` up, the state's index among
    them, and l the bits below, that slot is high[h], i times the slice's
    size plus the number of slice masks whose mode bits from `modes // 2`
    up are below h's, plus the rank of l among the low bits of at most
    k - popcount(h) modes, read from row rows[h] = k - popcount(h) of the
    low table. The tables are built per call: (k + 1) 2^(modes // 2) and
    2 states 2^(modes - modes // 2) ranks."""
    bits = modes // 2
    fits = np.bitwise_count(np.arange(1 << bits)) <= np.arange(k + 1)[:, None]
    low = (np.cumsum(fits, axis=1) - fits).ravel()  # masks below l, in each row
    spare = k - np.bitwise_count(np.arange(1 << modes - bits)).astype(np.intp)
    sizes = np.where(spare < 0, 0, fits.sum(axis=1)[spare.clip(0)])  # masks per h
    high = (np.cumsum(sizes) - sizes + np.arange(states)[:, None] * sizes.sum()).ravel()
    rows = np.tile(spare.clip(0) << bits, states)

    def place(masks):
        h = masks >> bits
        return high[h] + low[rows[h] | masks & (1 << bits) - 1]

    return place


def _on_slice(modes: int, k: int, states: int = 1) -> bool:
    """Whether the capped distribution of a stack of `states` states runs
    on the compact slice rather than on 2^M vectors. The slice's subset
    transform has pairs = sum over j <= k of j C(M, j) pairs (S, S - {i});
    each pass selects its pairs (`_mode_pairs`) once for the stack, at
    `_SELECT_COST` times one state's subtractions on them, so the slice is
    taken iff pairs (S + B) <= (S + 1) B 2^M, S that cost and B `states`.
    At B = 1 that is pairs <= 2^M: a selected and gathered pair costs about
    a strided 2^M pass entry. Whole calls, each layout forced, slice
    against vector, median ms (process time, one BLAS thread,
    `random_complex_graph(M, 1)` at 6 mean clicks, B states at
    eta 1, .75, .5, .25; pairs 1.21, 2.43, 1.80, 1.26 * 2^M):

    | B | 16/6        | 16/7        | 20/8        | 24/9       |
    | 1 | 4.2 vs 3.9  | 6.0 vs 5.0  | 56.6 vs 48.5 | 812 vs 894 |
    | 4 | 12.1 vs 13.9 | 17.9 vs 18.0 | 193 vs 203 | -          |

    At B = 4 the bound is 1.91 * 2^M. Near it the layouts tie: in three
    runs 17/7 (1.93 * 2^M) and 14/6 (2.03 * 2^M) were within 9 % either
    way, while at 22/9 (2.11 * 2^M) the vector was 6-11 % faster."""
    return (modes * sum(math.comb(modes - 1, j) for j in range(k)) * (_SELECT_COST + states)
            <= (_SELECT_COST + 1) * states * (1 << modes))


def _mode_pairs(masks: np.ndarray, small: np.ndarray, i: int) -> tuple:
    """The slots (S, S - {i}) of every S holding mode i in the slice `masks`:
    dropping i keeps their order, so the S - {i} are the masks without i
    that `small` marks (those of fewer than k modes), in order."""
    has = masks & 1 << i != 0
    return np.flatnonzero(has), np.flatnonzero(small & ~has)


def _integer(value, name: str) -> int:
    """`value` as an int; a bool or a non-integral number is refused as `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, not {type(value).__name__}")
    return int(value)


def _check_size(modes: int, max_clicks: int | None) -> None:
    """Refuse the 2^M recursion (click tables, torontonians) above
    `MAX_TABLE_MODES` modes, then a click cap other than an integer in [0, modes]."""
    if modes > MAX_TABLE_MODES:
        raise CostGuardError(f"2^M table of {modes} modes exceeds the cap "
                             f"of {MAX_TABLE_MODES} modes")
    if max_clicks is not None and not 0 <= _integer(max_clicks, "click count k") <= modes:
        raise ValidationError(f"click count {max_clicks} out of range [0, {modes}]")


def _checked(dist: np.ndarray, whole: bool) -> np.ndarray:
    """dist clipped to [0, 1] in place, once its values are checked to lie
    there and to sum to at most 1, and to 1 if it holds every pattern."""
    lo, hi, total = dist.min(), dist.max(), dist.sum()
    if not (-_PROB_TOL <= lo and hi <= 1 + _PROB_TOL and total <= 1 + _PROB_TOL
            and (not whole or abs(total - 1) <= _PROB_TOL)):
        raise PhysicalityError(f"click probabilities in [{lo}, {hi}] sum to {total}")
    return np.clip(dist, 0.0, 1.0, out=dist)


def _subset_transform(dist: np.ndarray) -> np.ndarray:
    """The subset (Yates) transform of a 2^M vector, in place. Passes i < 3
    run as 2^i strided subtractions, not on a (-1, 2, 2^i) view whose short
    rows numpy's per-call cost dominates; each entry's are the same."""
    for i in range(dist.size.bit_length() - 1):
        if i < 3:
            for j in range(1 << i):
                dist[(1 << i) + j::2 << i] -= dist[j::2 << i]
        else:
            pairs = dist.reshape(-1, 2, 1 << i)
            pairs[:, 1] -= pairs[:, 0]
    return dist


def pattern_distribution(state: GaussianState) -> np.ndarray:
    """Exact probability of every click pattern, as a new vector indexed by
    click bitmask (bit i = mode i). The capped law, the patterns of at most
    k clicks, is `_capped_distributions`' (masks, probabilities)."""
    _check_size(state.modes, None)
    # at complement masks; then Yates
    dist = _subset_transform(_vacuum_probabilities(state.husimi))
    return _checked(dist, whole=True)


def _capped_distribution(state: GaussianState, k: int) -> tuple:
    """(masks, probabilities) of every click pattern of at most k clicks: the
    one-state `_capped_distributions`."""
    return next(_capped_distributions([state], k))


def _capped_distributions(states: list, k: int):
    """Yield, for each of `states` (all of one mode count) in turn, (masks,
    probabilities) of every click pattern of at most k clicks, the masks
    ascending and read-only (`_slice_masks`), the probabilities a new
    vector (on the slice, a row of its batch's array), from the capped
    recursion's sum over j <= k of C(M, j) subsets. Each state's must sum
    to at most 1, and to 1 when k = M.

    The states' Husimi matrices run through `_vacuum_probabilities` as one
    stack, as many at a time as fill two 2^M vectors, about what the 2^M
    path allocates for one state, and at most
    2^`MAX_TABLE_MODES` values: off the slice, two states at a time below
    24 modes and one at 24. Each state's values keep the bits of its own
    one-state call. Larger batches save no time where a state's recursion
    is long, and cost memory: 16 states of `random_complex_graph(20, 1)` at
    k = 8, off the slice, took 60-67 / 63-72 / 64-83 ms a state at batches
    of 1 / 4 / 16, at +1-19 / +32-49 / +151-171 MB peak (three runs each,
    raw, one BLAS thread).

    While `_on_slice` for a stack of as many states as one slice batch
    holds (at most all of them), the values and the subset transform stay
    on it. The recursion writes each value at its mask's slot, two ranks
    read from small tables that `_slot_places` builds per call rather than
    a binary search of the slice: at 16 modes and k = 6 placing four states'
    values took 0.70-0.75 ms against 1.81-1.84 ms of a 13-16 ms recursion
    (three runs, one BLAS thread). A pass writes S from S - {i}, which is
    in the slice whenever S is, in the same passes as the full transform,
    so every value keeps its bits; each pass selects its pairs
    (`_mode_pairs`) once for the batch and drops them. Otherwise each
    state's values fill a 2^M vector, transformed in full and then
    gathered."""
    if not states:
        return
    m = states[0].modes
    _check_size(m, k)
    masks, values = _slice_masks(m, k), min(2 << m, 1 << MAX_TABLE_MODES)
    on_slice = _on_slice(m, k, min(max(1, values // masks.size), len(states)))
    small = np.bitwise_count(masks) < k if on_slice else None
    batch = max(1, values // (masks.size if on_slice else 1 << m))
    for first in range(0, len(states), batch):
        sq = np.stack([state.husimi for state in states[first:first + batch]])
        dists = _vacuum_probabilities(sq, k, masks if on_slice else None)
        if on_slice:
            for i in range(m):
                hi, lo = _mode_pairs(masks, small, i)
                for dist in dists:  # row by row: a 2-D gather took 2-3 times as long
                    dist[hi] -= dist[lo]
        else:  # gathered, so the 2^M rows go before any is read
            dists = [_subset_transform(dist)[masks] for dist in dists]
        for dist in dists:
            yield masks, _checked(dist, whole=k == m)


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
    mode = _integer(mode, "mode index")
    if not 0 <= mode < state.modes:
        raise ValidationError("mode index out of range")
    return _state_click_probabilities(state, np.array([mode]))[0]


def mean_clicks(state: GaussianState) -> float:
    """Expected click count: sum of single-mode marginal click probabilities."""
    return sum(_state_click_probabilities(state, np.arange(state.modes)))
