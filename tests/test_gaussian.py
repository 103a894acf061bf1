import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import unitary_group

from gbskit import gaussian
from gbskit.encoding import choose_scale, encode_graph
from gbskit.errors import CostGuardError, PhysicalityError, ValidationError
from gbskit.gaussian import (
    GaussianState,
    apply_loss,
    apply_thermal,
    mean_clicks,
    mode_click_probability,
    pattern_probability,
    sampling_matrix,
    state_from_device,
)
from gbskit.generators import planted_clique_graph, random_complex_graph, zero_one_graph
from gbskit.linalg import inverse, takagi
from gbskit.matfn import torontonian

from oracles import (
    all_patterns,
    classical_vacuum_probabilities,
    cycle_graph,
    inclusion_exclusion_distribution,
    mean_photons,
    rank_two_graph,
    reduced_state,
    star_graph,
    thermal_squeezer_husimi,
)


# a bool, a numeric string, NaN and values outside [0, 1]: none is a noise level
NOT_NOISE_LEVELS = [True, "0.1", np.nan, -0.1, 1.5]


def vacuum(m):
    return GaussianState(modes=m, husimi=np.eye(2 * m, dtype=complex))


def random_device(m, seed, r_max=0.9):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, r_max, m)
    u = unitary_group.rvs(m, random_state=rng)
    return r, u


# degenerate and real spectra (0/1 graphs, cycle, star) and zero singular
# values (star, rank two), small enough for the brute-force oracle
ORACLE_GRAPHS = {
    "zero-one": zero_one_graph(8, 0.5, seed=0),
    "planted-clique": planted_clique_graph(8, 4, 0.2, seed=1),
    "cycle": cycle_graph(8),
    "star": star_graph(8),
    "rank-two": rank_two_graph(8, seed=0),
}


class TestStateFromDevice:
    def test_vacuum(self):
        u = unitary_group.rvs(3, random_state=np.random.default_rng(0))
        state = state_from_device([0, 0, 0], u)
        assert np.allclose(state.husimi, np.eye(6), atol=1e-12)

    def test_single_mode_click_probability(self):
        state = state_from_device([1.0], [[1.0]])
        assert pattern_probability(state, [1]) == pytest.approx(
            1 - 1 / np.cosh(1), abs=1e-10
        )

    def test_sampling_matrix_roundtrip(self):
        r, u = random_device(2, 7)
        state = state_from_device(r, u)
        expected = u @ np.diag(np.tanh(r)) @ u.T
        assert np.linalg.norm(sampling_matrix(state).a - expected) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            state_from_device([0.5, 0.5], np.ones((2, 2)))

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValidationError):
            state_from_device([-0.1], [[1.0]])

    @pytest.mark.parametrize("r, message", [
        (np.inf, "squeezing must be a 1-D list of nonnegative reals"),
        (np.nan, "squeezing must be a 1-D list of nonnegative reals"),
        # cosh^2 400 overflows: the matrix it makes is refused, with no warning
        (400.0, "matrix contains NaN or Inf entries"),
    ], ids=["inf", "nan", "400"])
    def test_rejects_non_finite_squeezing_without_warning(self, r, message):
        with pytest.raises(ValidationError, match=message):
            state_from_device([0.5, r], np.eye(2))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError, match="interferometer size mismatch"):
            state_from_device([0.1, 0.2], np.eye(3))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValidationError, match="at least 1 mode, got 0"):
            state_from_device([], np.zeros((0, 0)))


class TestSamplingMatrix:
    def test_vacuum_gives_zero(self):
        sm = sampling_matrix(vacuum(3))
        assert np.linalg.norm(sm.a) < 1e-12 and np.linalg.norm(sm.l) < 1e-12

    def test_pure_state_l_block_vanishes(self):
        r, u = random_device(4, 3)
        sm = sampling_matrix(state_from_device(r, u))
        assert np.linalg.norm(sm.l) < 1e-8

    def test_lossy_state_l_block_nonzero(self):
        r, u = random_device(4, 3)
        state = apply_loss(state_from_device(r, u), 0.5)
        assert np.linalg.norm(sampling_matrix(state).l) > 1e-4

    def test_a_block_symmetric(self):
        r, u = random_device(5, 11)
        a = sampling_matrix(state_from_device(r, u)).a
        assert np.linalg.norm(a - a.T) < 1e-9 * np.linalg.norm(a)

    # squeezing read from a device file is unbounded: from r = 14 the Husimi
    # matrix's condition number, about e^(2r), passes the inverse's 1e12
    # guard, which then refuses the state before any block is read
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [14, 20, 30])
    def test_ill_conditioned_state_is_refused(self, r, seed):
        u = unitary_group.rvs(4, random_state=np.random.default_rng(seed))
        state = state_from_device([r] * 4, u)
        with pytest.raises(ValidationError, match="singular"):
            sampling_matrix(state)


class TestLoss:
    def test_eta_one_is_identity(self):
        r, u = random_device(3, 5)
        state = state_from_device(r, u)
        assert np.allclose(apply_loss(state, 1.0).husimi, state.husimi)

    @pytest.mark.parametrize("eta", [[1.0, 0.5], [[1.0, 1.0, 1.0]]])
    def test_rejects_eta_of_wrong_shape(self, eta):
        state = state_from_device(*random_device(3, 5))
        with pytest.raises(ValidationError, match="eta must be a scalar or one value"):
            apply_loss(state, eta)

    def test_eta_zero_gives_vacuum(self):
        r, u = random_device(3, 5)
        state = apply_loss(state_from_device(r, u), 0.0)
        assert np.allclose(state.husimi, np.eye(6), atol=1e-10)

    def test_click_probability_monotone_in_eta(self):
        probs = []
        for eta in [0.0, 0.25, 0.5, 0.75, 1.0]:
            state = apply_loss(state_from_device([1.0], [[1.0]]), eta)
            probs.append(pattern_probability(state, [1]))
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        assert probs[-1] == pytest.approx(1 - 1 / np.cosh(1), abs=1e-9)
        assert np.all(np.diff(probs) > 0)

    def test_composition(self):
        r, u = random_device(3, 8)
        state = state_from_device(r, u)
        twice = apply_loss(apply_loss(state, 0.6), 0.5)
        once = apply_loss(state, 0.3)
        assert np.linalg.norm(twice.husimi - once.husimi) < 1e-10

    def test_per_mode_eta(self):
        r, u = random_device(2, 4)
        state = apply_loss(state_from_device(r, u), [1.0, 0.0])
        red = reduced_state(state, [1])
        assert np.allclose(red.husimi, np.eye(2), atol=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_loss(vacuum(1), 1.5)

    @pytest.mark.parametrize("eta", [np.nan, [1.0, np.nan]])
    def test_rejects_nan(self, eta):
        r, u = random_device(2, 4)
        with pytest.raises(ValidationError, match=r"eta values must lie in \[0, 1\]"):
            apply_loss(state_from_device(r, u), eta)

    # the one noise-level rule, on the scalar and on each per-mode value
    @pytest.mark.parametrize("per_mode", [False, True], ids=["scalar", "per-mode"])
    @pytest.mark.parametrize("eta", NOT_NOISE_LEVELS, ids=repr)
    def test_refuses_what_is_not_a_noise_level(self, eta, per_mode):
        state = state_from_device(*random_device(2, 4))
        with pytest.raises(ValidationError, match=r"eta values must lie in \[0, 1\]"):
            apply_loss(state, [0.5, eta] if per_mode else eta)


def encoded_device(name):
    g = ORACLE_GRAPHS[name]
    dev = encode_graph(g, choose_scale(g, 3.0))
    return dev.squeezing, dev.interferometer


class TestThermal:
    def test_epsilon_zero_is_identity(self):
        for r, u in [random_device(3, 6), *map(encoded_device, ORACLE_GRAPHS)]:
            state = state_from_device(r, u)
            same = apply_thermal(state, 0.0).husimi
            assert same.tobytes() == state.husimi.tobytes()

    # the encoded graphs' degenerate and zero Takagi values leave the device
    # basis free; the channel must not depend on which basis made the state
    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["random-4", "random-7", *ORACLE_GRAPHS])
    def test_matches_squeezer_level_model(self, name, epsilon):
        if name in ORACLE_GRAPHS:
            r, u = encoded_device(name)
        else:
            r, u = random_device(int(name[-1]), 50)
        got = apply_thermal(state_from_device(r, u), epsilon).husimi
        want = thermal_squeezer_husimi(r, u, epsilon)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_epsilon_one_kills_a_block(self):
        state = apply_thermal(state_from_device([1.0], [[1.0]]), 1.0)
        assert np.linalg.norm(sampling_matrix(state).a) < 1e-10

    def test_mean_photons_invariant(self):
        state = state_from_device([1.0], [[1.0]])
        expected = np.sinh(1.0) ** 2
        for eps in [0.0, 0.5, 1.0]:
            assert mean_photons(apply_thermal(state, eps)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_multimode_mean_photons_invariant(self):
        r, u = random_device(4, 9)
        state = state_from_device(r, u)
        assert mean_photons(apply_thermal(state, 0.7)) == pytest.approx(
            mean_photons(state), rel=1e-9
        )

    def test_mixed_state_has_l_block(self):
        r, u = random_device(3, 10)
        state = apply_thermal(state_from_device(r, u), 0.5)
        assert np.linalg.norm(sampling_matrix(state).l) > 1e-6

    # dephasing commutes with loss: thermal mixing of a lossy state is the
    # squeezer-level thermal state sent through the same loss
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.5, "per-mode"])
    @pytest.mark.parametrize("m", [2, 5])
    def test_commutes_with_loss(self, m, eta, epsilon):
        r, u = random_device(m, 60 + m)
        if eta == "per-mode":
            eta = np.random.default_rng(m).uniform(0.0, 1.0, m)
        got = apply_thermal(apply_loss(state_from_device(r, u), eta), epsilon).husimi
        thermal = GaussianState(modes=m, husimi=thermal_squeezer_husimi(r, u, epsilon))
        want = apply_loss(thermal, eta).husimi
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # from r ~ 9 `sampling_matrix` refuses these devices, which the channel
    # never asks for: each output is checked as a state
    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize("r", [9, 10, 12])
    def test_strongly_squeezed_pure_devices(self, r, m):
        u = unitary_group.rvs(m, random_state=np.random.default_rng(r + m))
        got = apply_thermal(state_from_device([r] * m, u), 0.1).husimi
        want = thermal_squeezer_husimi([r] * m, u, 0.1)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_thermal(vacuum(1), -0.1)

    @pytest.mark.parametrize("epsilon", [*NOT_NOISE_LEVELS, [0.1]], ids=repr)
    def test_refuses_what_is_not_a_noise_level(self, epsilon):
        with pytest.raises(ValidationError, match=r"epsilon must lie in \[0, 1\]"):
            apply_thermal(state_from_device(*random_device(2, 4)), epsilon)


class TestPatternProbability:
    def test_vacuum_all_zero(self):
        assert pattern_probability(vacuum(3), [0, 0, 0]) == pytest.approx(1.0)

    def test_vacuum_any_click(self):
        assert pattern_probability(vacuum(3), [0, 1, 0]) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_normalization(self, seed):
        r, u = random_device(3, seed)
        state = state_from_device(r, u)
        total = sum(pattern_probability(state, p) for p in all_patterns(3))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_normalization_noisy(self):
        r, u = random_device(3, 17)
        state = apply_loss(apply_thermal(state_from_device(r, u), 0.3), 0.7)
        total = sum(pattern_probability(state, p) for p in all_patterns(3))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_matches_torontonian_reference(self):
        # Tor(O_S) / sqrt(det sigma) with O = I - sigma^-1, on a lossy and
        # thermal state
        r, u = random_device(8, 41)
        state = apply_loss(apply_thermal(state_from_device(r, u), 0.2), 0.8)
        o = np.eye(16) - np.linalg.inv(state.husimi)
        norm = np.sqrt(np.linalg.det(state.husimi).real)
        for p in all_patterns(8):
            s = [i for i, b in enumerate(p) if b]
            idx = s + [i + 8 for i in s]
            expected = torontonian(o[np.ix_(idx, idx)]) / norm
            assert pattern_probability(state, p) == pytest.approx(expected, abs=1e-12)

    def test_refuses_more_than_24_modes(self):
        state = vacuum(25)
        with pytest.raises(CostGuardError):
            pattern_probability(state, [1] * 25)

    def test_rejects_malformed_patterns(self):
        for pattern in ([0, 1, 0], [0], [-1, 0], [0.5, 0], [[0, 1]], ["0", "1"]):
            with pytest.raises(ValidationError):
                pattern_probability(vacuum(2), pattern)

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValidationError):
            pattern_probability(vacuum(2), [0, 2])


class TestPatternDistribution:
    @pytest.mark.parametrize("noisy", [False, True], ids=["lossless", "noisy"])
    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_matches_inclusion_exclusion_oracle(self, name, noisy):
        g = ORACLE_GRAPHS[name]
        state = encode_graph(g, choose_scale(g, 3.0)).build_state()
        if noisy:
            state = apply_loss(apply_thermal(state, 0.25), 0.75)
        dist = gaussian.pattern_distribution(state)
        want = inclusion_exclusion_distribution(state)
        # both sides add up to 2^8 terms of size <= 1, so every entry
        # carries a few 1e-16 of absolute rounding whatever its size
        np.testing.assert_allclose(dist, want, rtol=1e-12, atol=1e-14)
        assert abs(dist.sum() - 1.0) < 1e-12
        # the clamp to [0, 1] only ever moves rounding-level values
        assert want.min() > -1e-12

    def test_split_stacks_are_bit_identical(self, monkeypatch):
        r, u = random_device(8, 5)
        pure = state_from_device(r, u)
        monkeypatch.setattr(gaussian, "_CHUNK", 1 << 40)
        whole = gaussian.pattern_distribution(apply_loss(pure, 0.75))
        monkeypatch.setattr(gaussian, "_CHUNK", 16)
        split = gaussian.pattern_distribution(apply_loss(pure, 0.75))
        assert whole.tobytes() == split.tobytes()

    def test_each_call_returns_a_new_array(self):
        state = state_from_device(*random_device(4, 2))
        first = gaussian.pattern_distribution(state)
        second = gaussian.pattern_distribution(state)
        assert first is not second and not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()

    def test_non_positive_pivot_names_its_modes(self):
        state = vacuum(3)
        # no state built through the constructor fails this way
        object.__setattr__(state, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        with pytest.raises(PhysicalityError, match=r"modes \[1\]"):
            gaussian.pattern_distribution(state)

    def test_probabilities_above_one_are_refused(self):
        # eigenvalues 0.8 pass the construction check; P_vac of a mode is 1.25
        state = GaussianState(modes=2, husimi=0.8 * np.eye(4))
        with pytest.raises(PhysicalityError):
            gaussian.pattern_distribution(state)
        with pytest.raises(PhysicalityError):
            mean_clicks(state)


def frozen_uncapped_step(sq):
    """`gaussian._vacuum_probabilities` without a cap, as it stood before the
    cap was added. The uncapped step must keep these bits on every host, so
    they are compared in-process rather than against stored digests."""
    m = len(sq) // 2
    w = np.kron(np.eye(m), [[1.0, 1.0], [-1j, 1j]])[:, np.r_[:2 * m:2, 1:2 * m:2]]
    v = (w @ sq @ w.conj().T / 2.0).real
    out = np.empty(1 << m)
    work = [(0, v[None], np.ones(1), np.zeros(1, dtype=int))]
    while work:
        h, stack, dets, masks = work.pop()
        while stack.shape[1] and (stack.size <= gaussian._CHUNK or len(stack) == 1):
            a, b, c = stack[:, 0, 0, None], stack[:, 0, 1, None], stack[:, 1, 1, None]
            pivot = a * c - b * b
            assert a.min() > 0 and pivot.min() > 0
            x, y, rest = stack[:, 2:, 0], stack[:, 2:, 1], stack[:, 2:, 2:]
            f, g = (c * x - b * y) / pivot, (a * y - b * x) / pivot
            added = rest - f[:, :, None] * x[:, None, :] - g[:, :, None] * y[:, None, :]
            stack = np.concatenate([rest, added])
            dets = np.concatenate([dets, dets * pivot[:, 0]])
            masks = np.concatenate([masks, masks | 1 << h])
            h += 1
        if stack.shape[1]:
            work += [(h, stack[p], dets[p], masks[p])
                     for p in (np.s_[:len(stack) // 2], np.s_[len(stack) // 2:])]
        else:
            out[out.size - 1 - masks] = dets
    return np.divide(1.0, np.sqrt(out, out=out), out=out)


def frozen_capped_step(sq, cap):
    """`gaussian._vacuum_probabilities` with a cap, as it stood before its
    values could be held on the compact slice: a 2^M vector with 0 at every
    index no row reaches. Compared in-process, like `frozen_uncapped_step`."""
    m = len(sq) // 2
    w = np.kron(np.eye(m), [[1.0, 1.0], [-1j, 1j]])[:, np.r_[:2 * m:2, 1:2 * m:2]]
    v = (w @ sq @ w.conj().T / 2.0).real
    out = np.full(1 << m, np.inf)
    work = [(0, inverse(v).real[None], np.array([np.linalg.det(v)]),
             np.zeros(1, dtype=int))]
    while work:
        h, stack, dets, masks = work.pop()
        while stack.shape[1] and (stack.size <= gaussian._CHUNK or len(stack) == 1):
            a, b, c = stack[:, 0, 0, None], stack[:, 0, 1, None], stack[:, 1, 1, None]
            pivot = a * c - b * b
            assert a.min() > 0 and pivot.min() > 0
            x, y, rest = stack[:, 2:, 0], stack[:, 2:, 1], stack[:, 2:, 2:]
            dets_add, masks_add, rest_add = dets * pivot[:, 0], masks | 1 << h, rest
            count = np.bitwise_count(masks)
            if (count >= cap - 1).any():
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
            out[masks] = dets
    return np.divide(1.0, np.sqrt(out, out=out), out=out)


def unpacked_entries(r):
    """(row, column) in the 2r x 2r Schur complement of each flat entry of a
    packed stack of r modes: entry (p, q) of block k is (2 I_k + p, 2 J_k + q)."""
    rows, cols = gaussian._blocks(r)
    p, q = np.divmod(np.arange(4), 2)
    return (2 * rows[:, None] + p).ravel(), (2 * cols[:, None] + q).ravel()


def full_leaf_plan(r):
    """`gaussian._leaf_plan`'s flat indices as they stood before stacks were
    packed: into the full 2r x 2r complement, row-major."""
    i, (j, l), d = np.arange(r), np.triu_indices(r, 1), 2 * r
    t = np.concatenate([i, j])
    return np.concatenate([2 * t * (d + 1), 2 * t * (d + 1) + 1, (2 * t + 1) * (d + 1),
                           2 * l * (d + 1), 2 * l * (d + 1) + 1, (2 * l + 1) * (d + 1),
                           2 * l * d + 2 * j, (2 * l + 1) * d + 2 * j,
                           2 * l * d + 2 * j + 1, (2 * l + 1) * d + 2 * j + 1])


class TestPackedLayout:
    """A Schur stack holds the lower 2x2 blocks (I, J), I >= J, of each
    row's complement, in column-major block order."""

    @pytest.mark.parametrize("r", range(1, 9))
    def test_blocks_list_each_lower_block_once_column_major(self, r):
        rows, cols = gaussian._blocks(r)
        assert list(zip(rows.tolist(), cols.tolist())) == [
            (i, j) for j in range(r) for i in range(j, r)]

    @pytest.mark.parametrize("r", range(2, 9))
    def test_the_tail_is_the_packed_rest(self, r):
        # blocks r and up are those of modes 1 and up, in their own layout,
        # and the first r are mode 0's column
        rows, cols = gaussian._blocks(r)
        rest_rows, rest_cols = gaussian._blocks(r - 1)
        assert np.array_equal(rows[r:], rest_rows + 1)
        assert np.array_equal(cols[r:], rest_cols + 1)
        assert np.array_equal(rows[:r], np.arange(r)) and not cols[:r].any()
        full = np.random.default_rng(r).random((2 * r, 2 * r, 3))
        packed = full.reshape(r, 2, r, 2, 3)[rows, :, cols]
        rest = full[2:, 2:].reshape(r - 1, 2, r - 1, 2, 3)[rest_rows, :, rest_cols]
        assert packed[r:].tobytes() == rest.tobytes()
        row, col = unpacked_entries(r)
        assert packed.reshape(4 * len(rows), 3).tobytes() == full[row, col].tobytes()

    @pytest.mark.parametrize("r", range(1, 9))
    def test_leaf_plan_names_the_full_plans_entries(self, r):
        plan, _ = gaussian._leaf_plan(r)
        row, col = unpacked_entries(r)
        assert np.array_equal(row[plan] * 2 * r + col[plan], full_leaf_plan(r))
        # of a diagonal block it reads a, b and c, never the lower (1, 0)
        on_diagonal = row[plan] // 2 == col[plan] // 2
        assert not (on_diagonal & (row[plan] % 2 == 1) & (col[plan] % 2 == 0)).any()


# seeded random diag(P, P) matrices of 2-6 modes, P = I + s (G + G^T) / 2 with
# G standard normal, alternately with P's diagonal kept at 1: some refused at
# a cap of 0, some only from 2 or 3 modes up, some at no cap
REFUSAL_CASES = 16


class TestRefusalParity:
    @staticmethod
    def frozen_values(sq, k):
        """The frozen step's values, or None where its pivot assertion fails."""
        try:
            return frozen_uncapped_step(sq) if k is None else frozen_capped_step(sq, k)
        except AssertionError:
            return None

    @pytest.mark.parametrize("chunk", [16, gaussian._CHUNK], ids=["split", "default"])
    @pytest.mark.parametrize("modes", range(2, 7))
    def test_kernel_refuses_where_the_frozen_steps_fail(self, monkeypatch, modes, chunk):
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        rng = np.random.default_rng(600 + modes)
        outcomes = set()
        for case in range(REFUSAL_CASES):
            g = rng.normal(size=(modes, modes))
            off = rng.uniform(0.2, 1.2) * (g + g.T) / 2
            p = np.eye(modes) + off - (case % 2) * np.diag(np.diag(off))
            sq = np.kron(np.eye(2), p)
            for k in [None, *range(modes + 1)]:
                layouts = [None] if k is None else [None, gaussian._slice_masks(modes, k)]
                # a negative det v, with every block of at most k modes
                # positive definite, leaves NaN, which neither side refuses
                with np.errstate(invalid="ignore", divide="ignore"):
                    want = self.frozen_values(sq, k)
                    outcomes.add(want is None)
                    for slots in layouts:
                        if want is None:
                            with pytest.raises(PhysicalityError, match="not positive definite"):
                                gaussian._vacuum_probabilities(sq, k, slots)
                            continue
                        got = gaussian._vacuum_probabilities(sq, k, slots)
                        if slots is not None:
                            got, got[slots] = np.zeros(1 << modes), got
                        assert got.tobytes() == want.tobytes()
        assert outcomes == {True, False}


CAPPED_GRAPHS = dict(ORACLE_GRAPHS, random=random_complex_graph(8, seed=3))
# lossless, thermal, lossy and fully lost
NOISE = {"lossless": (1.0, 0.0), "thermal": (1.0, 0.25), "lossy": (0.5, 0.0),
         "lost": (0.0, 0.0)}


@functools.lru_cache(maxsize=None)
def capped_case(name, noise):
    """(state, oracle distribution, full distribution) of an oracle graph
    encoded at 3 mean clicks under a named noise level."""
    g = CAPPED_GRAPHS[name]
    eta, eps = NOISE[noise]
    state = encode_graph(g, choose_scale(g, 3.0)).build_state()
    state = apply_loss(apply_thermal(state, eps), eta)
    want = inclusion_exclusion_distribution(state)
    return state, want, gaussian.pattern_distribution(state)


# stacks split at every step (16 values), partway through the recursion,
# with leaves made by the step before waiting at k = 3..10 (512 values), or
# never (2^40)
CHUNKS = {"split": 16, "partway": 1 << 9, "whole": 1 << 40}


@functools.lru_cache(maxsize=None)
def twelve_mode_case(noise):
    """(Husimi matrix, frozen capped bytes at k = 0..12, frozen uncapped
    bytes) of a random 12-mode graph encoded at 4 mean clicks under a named
    noise level; the frozen steps' bits do not depend on the chunk."""
    g = random_complex_graph(12, seed=4)
    eta, eps = NOISE[noise]
    state = encode_graph(g, choose_scale(g, 4.0)).build_state()
    sq = apply_loss(apply_thermal(state, eps), eta).husimi
    return (sq, [frozen_capped_step(sq, k).tobytes() for k in range(13)],
            frozen_uncapped_step(sq).tobytes())


@functools.lru_cache(maxsize=None)
def fourteen_mode_case():
    """(Husimi matrix, frozen capped bytes at k = 6, frozen uncapped bytes)
    of a random 14-mode graph encoded at 4 mean clicks, thermal and lossy:
    the sweep's k with leaves at up to 11 modes left."""
    g = random_complex_graph(14, seed=5)
    state = encode_graph(g, choose_scale(g, 4.0)).build_state()
    sq = apply_loss(apply_thermal(state, 0.25), 0.75).husimi
    return sq, frozen_capped_step(sq, 6).tobytes(), frozen_uncapped_step(sq).tobytes()


def capped_vector(state, k):
    """The capped law, (masks, probabilities), scattered into a 2^M vector:
    every pattern of more than k clicks reads 0."""
    masks, probs = gaussian._capped_distribution(state, k)
    dist = np.zeros(1 << state.modes)
    dist[masks] = probs
    return dist


class TestCappedDistribution:
    @pytest.mark.parametrize("k", [0, 1, 4, 7, 8])
    @pytest.mark.parametrize("noise", NOISE)
    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_matches_oracle_and_full_distribution(self, name, noise, k):
        state, want, full = capped_case(name, noise)
        got = capped_vector(state, k)
        kept = np.bitwise_count(np.arange(256)) <= k
        # the oracle's tolerance in TestPatternDistribution
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got[kept], full[kept], rtol=0, atol=1e-14)
        assert not got[~kept].any()
        assert got.sum() <= 1.0 + 1e-12
        if k == 8:
            assert abs(got.sum() - 1.0) < 1e-12

    def test_rejects_out_of_range_cap(self):
        state = state_from_device(*random_device(3, 1))
        for k in (-1, 4):
            with pytest.raises(ValidationError, match="out of range"):
                capped_vector(state, k)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_split_stacks_are_bit_identical(self, monkeypatch, k):
        state = apply_loss(state_from_device(*random_device(8, 5)), 0.75)
        monkeypatch.setattr(gaussian, "_CHUNK", 1 << 40)
        whole = capped_vector(state, k)
        monkeypatch.setattr(gaussian, "_CHUNK", 16)
        split = capped_vector(state, k)
        assert whole.tobytes() == split.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_positive_pivot_names_its_modes(self, k):
        state = vacuum(3)
        object.__setattr__(state, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        with pytest.raises(PhysicalityError, match=r"modes \[1\]"):
            capped_vector(state, k)

    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_two_mode_block_is_refused_at_every_cap(self, monkeypatch, on_slice, k):
        # the capped step runs on v^-1 = P (x) I_2, P = I but for
        # P_01 = P_10 = 2: each single-mode block is I_2, and the block of
        # modes 0 and 1 is indefinite; at k = 2 only the leaf {0} checks it
        p = np.eye(4)
        p[0, 1] = p[1, 0] = 2.0
        state = vacuum(4)
        object.__setattr__(state, "husimi", np.kron(np.eye(2), np.linalg.inv(p)))
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        with pytest.raises(PhysicalityError, match=r"modes \[0, 1\]"):
            gaussian._capped_distribution(state, k)

    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    def test_cap_zero_checks_every_single_mode_block(self, monkeypatch, on_slice):
        # a cap of 0 writes only the empty pattern, but the start still
        # checks each single-mode block, as every other cap does
        state = vacuum(3)
        object.__setattr__(state, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        with pytest.raises(PhysicalityError, match=r"modes \[1\]"):
            gaussian._capped_distribution(state, 0)

    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    @pytest.mark.parametrize("k", [3, 4, 5, None], ids=["k3", "k4", "k5", "uncapped"])
    def test_pair_block_is_refused(self, monkeypatch, on_slice, k):
        # P = I but for -0.6 between each two of modes 2, 3 and 4: every
        # block of one or two modes is positive definite, the block of modes
        # 2, 3 and 4 is not. Modes 3 and 4 are the last two, so only a leaf's
        # pair (3, 4), l = 4's block after j = 3's update, sees it
        p = np.eye(5)
        p[2:, 2:] -= 0.6 * (1 - np.eye(3))
        assert np.linalg.eigvalsh(p)[0] < 0
        assert all(np.linalg.eigvalsh(p[np.ix_(s, s)])[0] > 0
                   for s in itertools.combinations(range(5), 2))
        state = vacuum(5)
        # the capped start runs on v^-1, the uncapped one on v
        husimi = np.kron(np.eye(2), p if k is None else np.linalg.inv(p))
        object.__setattr__(state, "husimi", husimi)
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        with pytest.raises(PhysicalityError, match=r"modes \[([01], )*2, 3, 4\]"):
            if k is None:
                gaussian.pattern_distribution(state)
            else:
                gaussian._capped_distribution(state, k)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_probabilities_above_one_are_refused(self, k):
        # P_vac of both modes is 1.5625
        state = GaussianState(modes=2, husimi=0.8 * np.eye(4))
        with pytest.raises(PhysicalityError):
            capped_vector(state, k)


class TestClickSlice:
    @staticmethod
    def slice_pairs(modes, k):
        """The slice's masks and each mode's pair slots from `_mode_pairs`."""
        masks = gaussian._slice_masks(modes, k)
        small = np.bitwise_count(masks) < k
        return masks, [gaussian._mode_pairs(masks, small, i) for i in range(modes)]

    @pytest.mark.parametrize("modes", [0, 1, 5, 8])
    def test_layout(self, modes):
        for k in range(modes + 1):
            masks, pairs = self.slice_pairs(modes, k)
            assert (np.diff(masks) > 0).all() and (np.bitwise_count(masks) <= k).all()
            assert len(masks) == sum(math.comb(modes, j) for j in range(k + 1))
            # each pass pairs every S that holds mode i with S - {i}
            for i, (hi, lo) in enumerate(pairs):
                assert np.array_equal(hi, np.flatnonzero(masks >> i & 1))
                assert np.array_equal(masks[lo], masks[hi] ^ 1 << i)

    @pytest.mark.parametrize("modes, k", [(16, 3), (16, 6), (18, 5), (20, 4), (20, 7)])
    def test_pairs_are_the_searched_slots(self, modes, k):
        # the selected slots are the ones a binary search of the masks finds
        masks, pairs = self.slice_pairs(modes, k)
        for i, (hi, lo) in enumerate(pairs):
            want_hi = np.flatnonzero(masks >> i & 1)
            assert hi.dtype == lo.dtype == np.intp
            assert np.array_equal(hi, want_hi)
            assert np.array_equal(lo, np.searchsorted(masks, masks[want_hi] ^ 1 << i))

    @staticmethod
    def searched_places(masks, states, modes, k):
        """Each of `masks` of state i's row at i times the slice's size plus
        the mask's slot, as a binary search of the slice finds it."""
        slots = gaussian._slice_masks(modes, k)
        return np.searchsorted(slots, masks) + states * slots.size

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_slot_places_are_the_searched_slots(self, size):
        # a state's index sits above the mode bits, in the high tables' reach
        for modes in range(15):
            for k in range(modes + 1):
                masks = np.tile(gaussian._slice_masks(modes, k), size)
                states = np.repeat(np.arange(size), masks.size // size)
                got = gaussian._slot_places(modes, k, size)(masks | states << modes)
                assert np.array_equal(got, self.searched_places(masks, states, modes, k))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("modes, k", [(20, 3), (20, 8), (20, 20), (24, 6), (24, 9)])
    def test_sampled_slot_places_are_the_searched_slots(self, modes, k, size):
        rng = np.random.default_rng(modes * k + size)
        slots = gaussian._slice_masks(modes, k)
        masks = slots[rng.integers(slots.size, size=3000)]
        states = rng.integers(size, size=3000)
        got = gaussian._slot_places(modes, k, size)(masks | states << modes)
        assert np.array_equal(got, self.searched_places(masks, states, modes, k))

    def test_a_slice_call_keeps_no_pairs(self):
        state = apply_loss(state_from_device(*random_device(16, 3)), 0.75)
        assert gaussian._on_slice(16, 5)
        gaussian._capped_distribution(state, 4)  # fills the kernel's own caches
        tracemalloc.start()
        try:
            masks, probs = gaussian._capped_distribution(state, 5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # each mode's pairs were dropped after its pass: what is still held
        # is the result and the cached masks, and a few small objects
        assert held <= probs.nbytes + masks.nbytes + (1 << 14)


# the states of a batch: the random 8-mode graph lossless, thermal, lossy, lost
BATCH = list(NOISE)


def batch_states(size):
    return [capped_case("random", noise)[0] for noise in BATCH[:size]]


class TestBatchedRecursion:
    """A stack of B states runs as one recursion; each row keeps the bytes
    of its state's one-state call."""

    @pytest.mark.parametrize("chunk", [16, gaussian._CHUNK], ids=["split", "default"])
    @pytest.mark.parametrize("path", ["uncapped", "vector", "slice"])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_rows_keep_their_one_state_bytes(self, monkeypatch, size, path, chunk):
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        sqs = [state.husimi for state in batch_states(size)]
        for k in [None] if path == "uncapped" else range(9):
            slots = gaussian._slice_masks(8, k) if path == "slice" else None
            rows = gaussian._vacuum_probabilities(np.stack(sqs), k, slots)
            assert rows.shape == (size, 256 if slots is None else slots.size)
            for sq, row in zip(sqs, rows):
                assert row.tobytes() == gaussian._vacuum_probabilities(sq, k, slots).tobytes()

    @pytest.mark.parametrize("chunk", [16, gaussian._CHUNK], ids=["split", "default"])
    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_distributions_keep_their_one_state_bytes(self, monkeypatch, size, on_slice,
                                                      chunk):
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        states = batch_states(size)
        for k in range(9):
            laws = list(gaussian._capped_distributions(states, k))
            assert len(laws) == size
            for state, (masks, probs) in zip(states, laws):
                want_masks, want = gaussian._capped_distribution(state, k)
                assert masks.tobytes() == want_masks.tobytes()
                assert probs.tobytes() == want.tobytes()

    # two 2^8 vectors hold five 93-value slices at k = 3, or two vectors;
    # a table budget of 2^8 values two slices, or one vector
    @pytest.mark.parametrize("budget, on_slice, batch", [
        (24, True, 5), (24, False, 2), (8, True, 2), (8, False, 1),
    ], ids=["slice", "vector", "slice-budget", "vector-budget"])
    def test_batches_hold_two_vectors_within_the_table_budget(self, monkeypatch, budget,
                                                              on_slice, batch):
        stacks, run = [], gaussian._vacuum_probabilities

        def recorded(sq, *args):
            stacks.append(len(sq))
            return run(sq, *args)

        monkeypatch.setattr(gaussian, "MAX_TABLE_MODES", budget)
        monkeypatch.setattr(gaussian, "_vacuum_probabilities", recorded)
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        states = batch_states(4) + batch_states(3)
        laws = list(gaussian._capped_distributions(states, 3))
        assert stacks == [batch] * (7 // batch) + [7 % batch] * (7 % batch > 0)
        for state, (_, probs) in zip(states, laws):
            assert probs.tobytes() == gaussian._capped_distribution(state, 3)[1].tobytes()

    def test_no_states_yield_nothing(self):
        assert list(gaussian._capped_distributions([], 3)) == []

    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, None], ids=["k0", "k1", "k2", "k3", "uncapped"])
    def test_a_non_physical_state_in_a_batch_is_refused(self, monkeypatch, on_slice, k):
        bad = vacuum(3)
        object.__setattr__(bad, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        good = apply_loss(state_from_device(*random_device(3, 1)), 0.75)
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
        # the refusal names the modes the bad state's own call names
        with pytest.raises(PhysicalityError, match=r"modes \[(0, )?1\]") as alone:
            gaussian._vacuum_probabilities(bad.husimi, k)
        with pytest.raises(PhysicalityError) as batched:
            if k is None:
                gaussian._vacuum_probabilities(np.stack([good.husimi, bad.husimi]))
            else:
                list(gaussian._capped_distributions([good, bad, good], k))
        assert str(batched.value) == str(alone.value)

    def test_probabilities_above_one_in_a_batch_are_refused(self):
        # P_vac of both modes of the second state is 1.5625
        good = state_from_device(*random_device(2, 1))
        bad = GaussianState(modes=2, husimi=0.8 * np.eye(4))
        laws = gaussian._capped_distributions([good, bad], 2)
        assert next(laws)[1].sum() == pytest.approx(1.0)
        with pytest.raises(PhysicalityError, match="click probabilities"):
            next(laws)


class TestClassicalStateStarts:
    """Both Schur starts on epsilon = 1 states, against the principal minors
    of the N block, at sizes where the inclusion-exclusion oracle is too
    slow."""

    @staticmethod
    def classical_state(modes, eta):
        g = random_complex_graph(modes, seed=modes)
        pure = encode_graph(g, choose_scale(g, modes / 3)).build_state()
        return apply_loss(apply_thermal(pure, 1.0), eta)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("modes", [12, 16, 20])
    def test_both_starts_match_the_minor_oracle(self, modes, eta):
        state, full = self.classical_state(modes, eta), (1 << modes) - 1
        # values sit at the complement ~W; every one at 12 modes, else 300
        picked = (np.arange(1 << modes) if modes == 12 else
                  np.random.default_rng(modes).integers(1 << modes, size=300))
        got = gaussian._vacuum_probabilities(state.husimi)[picked]
        want = classical_vacuum_probabilities(state, full ^ picked)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        masks = gaussian._slice_masks(modes, 4)
        got = gaussian._vacuum_probabilities(state.husimi, 4, masks)
        want = classical_vacuum_probabilities(state, full ^ masks)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_batched_capped_start_matches_the_minor_oracle(self):
        etas, full = [1.0, 0.75, 0.5, 0.25], (1 << 20) - 1
        states = [self.classical_state(20, eta) for eta in etas]
        masks = gaussian._slice_masks(20, 3)
        rows = gaussian._vacuum_probabilities(
            np.stack([state.husimi for state in states]), 3, masks)
        for state, row in zip(states, rows):
            want = classical_vacuum_probabilities(state, full ^ masks)
            np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)


class TestCappedBitsPinned:
    @pytest.mark.parametrize("chunk", [16, 1 << 40], ids=["split", "whole"])
    @pytest.mark.parametrize("noise", NOISE)
    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_step_matches_frozen_step(self, monkeypatch, name, noise, chunk):
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        sq = capped_case(name, noise)[0].husimi
        for k in range(9):
            want = frozen_capped_step(sq, k).tobytes()
            assert gaussian._vacuum_probabilities(sq, k).tobytes() == want
            masks = gaussian._slice_masks(8, k)
            got = np.zeros(256)
            got[masks] = gaussian._vacuum_probabilities(sq, k, masks)
            assert got.tobytes() == want

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("noise", ["lossless", "thermal", "lossy"])
    def test_twelve_modes_match_frozen_step(self, monkeypatch, noise, chunk):
        sq, want, _ = twelve_mode_case(noise)
        monkeypatch.setattr(gaussian, "_CHUNK", CHUNKS[chunk])
        for k in range(13):
            assert gaussian._vacuum_probabilities(sq, k).tobytes() == want[k]
            masks = gaussian._slice_masks(12, k)
            got = np.zeros(1 << 12)
            got[masks] = gaussian._vacuum_probabilities(sq, k, masks)
            assert got.tobytes() == want[k]

    @pytest.mark.parametrize("chunk", [16, gaussian._CHUNK], ids=["split", "default"])
    def test_fourteen_modes_match_frozen_step(self, monkeypatch, chunk):
        sq, want, _ = fourteen_mode_case()
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        assert gaussian._vacuum_probabilities(sq, 6).tobytes() == want
        masks = gaussian._slice_masks(14, 6)
        got = np.zeros(1 << 14)
        got[masks] = gaussian._vacuum_probabilities(sq, 6, masks)
        assert got.tobytes() == want


class TestCappedPaths:
    @pytest.mark.parametrize("noise", NOISE)
    def test_slice_and_full_vector_give_the_same_bytes(self, monkeypatch, noise):
        state = capped_case("random", noise)[0]
        for k in range(9):
            runs = []
            for on_slice in (True, False):
                monkeypatch.setattr(gaussian, "_on_slice", lambda *args: on_slice)
                runs.append(gaussian._capped_distribution(state, k))
            (masks, probs), (full_masks, full_probs) = runs
            assert masks.tobytes() == full_masks.tobytes()
            assert probs.tobytes() == full_probs.tobytes()

    def test_path_follows_the_pair_count(self):
        # sum over j <= k of j C(M, j) pairs against 2^M
        assert gaussian._on_slice(16, 5)  # 0.47 * 2^16
        assert gaussian._on_slice(24, 8)  # 0.56 * 2^24
        assert not gaussian._on_slice(16, 6)  # 1.21 * 2^16
        assert not gaussian._on_slice(24, 9)  # 1.26 * 2^24
        assert not gaussian._on_slice(20, 10)  # 5 * 2^20
        for m in range(9):
            for k in range(m + 1):
                pairs = sum(j * math.comb(m, j) for j in range(k + 1))
                assert gaussian._on_slice(m, k) == (pairs <= 2 ** m)
        # a stack of four: pairs (S + 4) <= (S + 1) 4 * 2^M, up to 1.91 * 2^M
        # at S = 1.75
        assert gaussian._on_slice(16, 6, 4)  # 1.21 * 2^16
        assert gaussian._on_slice(20, 8, 4)  # 1.80 * 2^20
        assert not gaussian._on_slice(17, 7, 4)  # 1.93 * 2^17
        assert not gaussian._on_slice(16, 7, 4)  # 2.43 * 2^16
        assert not gaussian._on_slice(24, 10, 4)  # 2.43 * 2^24

    def test_the_sweeps_grid_runs_as_one_slice_stack(self, monkeypatch):
        # four 16-mode states at k = 6 fit one slice stack, which takes the
        # slice; one state alone takes the vector
        stacks, run = [], gaussian._vacuum_probabilities

        def recorded(sq, k, slots=None):
            stacks.append((len(sq), slots is not None))
            return run(sq, k, slots)

        monkeypatch.setattr(gaussian, "_vacuum_probabilities", recorded)
        g = planted_clique_graph(16, 6, 0.2, 1)
        pure = encode_graph(g, choose_scale(g, 4.0)).build_state()
        states = [apply_loss(pure, eta) for eta in (1.0, 0.75, 0.5, 0.25)]
        laws = list(gaussian._capped_distributions(states, 6))
        alone = gaussian._capped_distribution(states[0], 6)
        assert stacks == [(4, True), (1, False)]
        assert laws[0][1].tobytes() == alone[1].tobytes()

    def test_half_the_modes_build_no_slice_pairs(self, monkeypatch):
        def refused(*args):
            raise AssertionError("slice pairs selected")

        monkeypatch.setattr(gaussian, "_mode_pairs", refused)
        g = random_complex_graph(20, seed=1)
        state = apply_loss(encode_graph(g, choose_scale(g, 10.0)).build_state(), 0.75)
        masks, probs = gaussian._capped_distribution(state, 10)
        assert len(masks) == sum(math.comb(20, j) for j in range(11))
        assert 0.0 < probs.sum() <= 1.0


class TestSubsetTransform:
    @staticmethod
    def yates_loop(dist):
        """The loop `_subset_transform` replaced: every pass on a view."""
        for i in range(dist.size.bit_length() - 1):
            pairs = dist.reshape(-1, 2, 1 << i)
            pairs[:, 1] -= pairs[:, 0]
        return dist

    @pytest.mark.parametrize("m", range(1, 19))
    def test_matches_the_view_loop_bytes(self, m):
        rng = np.random.default_rng(m)
        dist = rng.random(1 << m) * 10.0 ** rng.integers(-12, 1, 1 << m)
        want = self.yates_loop(dist.copy())
        got = gaussian._subset_transform(dist)
        assert got is dist and got.tobytes() == want.tobytes()

    def test_distribution_paths_use_it(self, monkeypatch):
        calls = []
        transform = gaussian._subset_transform

        def counted(dist):
            calls.append(dist.size)
            return transform(dist)

        state = capped_case("random", "thermal")[0]
        monkeypatch.setattr(gaussian, "_subset_transform", counted)
        gaussian.pattern_distribution(state)
        monkeypatch.setattr(gaussian, "_on_slice", lambda *args: False)
        gaussian._capped_distribution(state, 3)
        assert calls == [1 << state.modes] * 2


class TestUncappedBitsPinned:
    @pytest.mark.parametrize("noise", ["lossless", "thermal", "lossy"])
    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_step_matches_frozen_step(self, name, noise):
        sq = capped_case(name, noise)[0].husimi
        assert gaussian._vacuum_probabilities(sq).tobytes() == (
            frozen_uncapped_step(sq).tobytes())

    def test_split_step_matches_frozen_step(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_CHUNK", 16)
        sq = capped_case("random", "thermal")[0].husimi
        assert gaussian._vacuum_probabilities(sq).tobytes() == (
            frozen_uncapped_step(sq).tobytes())

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("noise", ["lossless", "thermal", "lossy"])
    def test_twelve_modes_match_frozen_step(self, monkeypatch, noise, chunk):
        sq, _, want = twelve_mode_case(noise)
        monkeypatch.setattr(gaussian, "_CHUNK", CHUNKS[chunk])
        assert gaussian._vacuum_probabilities(sq).tobytes() == want

    @pytest.mark.parametrize("chunk", [16, gaussian._CHUNK], ids=["split", "default"])
    def test_fourteen_modes_match_frozen_step(self, monkeypatch, chunk):
        sq, _, want = fourteen_mode_case()
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        assert gaussian._vacuum_probabilities(sq).tobytes() == want

    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_torontonian_matches_frozen_step(self, name):
        state = capped_case(name, "thermal")[0]
        o = np.eye(16) - np.linalg.inv(state.husimi)
        checked = gaussian._hermitian_bosonic(np.eye(16) - o, "I - O")
        terms = frozen_uncapped_step(checked)
        for _ in range(8):
            terms = terms[0::2] - terms[1::2]
        assert torontonian(o) == float(terms[0])


class TestReduce:
    def test_marginalization_identity(self):
        r, u = random_device(3, 13)
        state = state_from_device(r, u)
        marg = pattern_probability(reduced_state(state, [0]), [1])
        total = sum(
            pattern_probability(state, (1,) + p) for p in all_patterns(2)
        )
        assert marg == pytest.approx(total, abs=1e-8)


class TestStateValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError,
                           match=r"husimi matrix shape \(2, 2\) does not match 2 modes"):
            GaussianState(modes=2, husimi=np.eye(2))

    def test_rejects_non_hermitian(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(PhysicalityError):
            GaussianState(modes=1, husimi=bad)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(PhysicalityError):
            GaussianState(modes=1, husimi=0.3 * np.eye(2))

    def test_rejects_overflowing_norm(self):
        # every entry is finite, but the norm every check scales by is not
        u = unitary_group.rvs(4, random_state=np.random.default_rng(300))
        with pytest.raises(PhysicalityError, match="overflows"):
            state_from_device([300.0] * 4, u)

    def test_rejects_non_bosonic_covariance(self):
        # Hermitian with eigenvalues >= 1/2, but no [[N, M], [M*, N*]] blocks:
        # an N block entry without its conjugate in the N* block
        h = np.eye(4, dtype=complex)
        h[0, 1] = h[1, 0] = 0.3
        with pytest.raises(PhysicalityError, match="not real in the quadrature"):
            GaussianState(modes=2, husimi=h)


class TestMeanClicks:
    def test_vacuum(self):
        assert mean_clicks(vacuum(5)) == pytest.approx(0.0)

    def test_sum_of_marginals(self):
        r, u = random_device(3, 21)
        state = state_from_device(r, u)
        by_patterns = sum(
            sum(p) * pattern_probability(state, p) for p in all_patterns(3)
        )
        assert mean_clicks(state) == pytest.approx(by_patterns, abs=1e-8)


class TestClickFormula:
    @pytest.mark.parametrize("fraction", [0.05, 0.999], ids=["small", "near-saturation"])
    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_device_closed_form_matches_built_state(self, name, fraction):
        # scale as a fraction of 1 / lambda_max; at 0.999 modes click with
        # probability up to 0.99. Nearer 1 both sides lose digits to the
        # cancellation in N^2 - |M|^2 (6e-14 apart at 1 - 1e-6)
        g = CAPPED_GRAPHS[name]
        dev = encode_graph(g, fraction / takagi(g.adjacency).values[0])
        state = dev.build_state()
        got = gaussian._device_click_probabilities(dev.squeezing, dev.interferometer)
        want = [mode_click_probability(state, j) for j in range(g.n)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_single_mode_closed_form(self):
        # one squeezed mode: 1 - 1 / cosh r
        for r in (0.0, 0.3, 2.0):
            got = gaussian._device_click_probabilities(np.array([r]), np.eye(1))
            assert got[0] == pytest.approx(1 - 1 / np.cosh(r), abs=1e-15)

    @pytest.mark.parametrize("mode", [1.7, True, np.float64(2.9), np.bool_(True), "1"],
                             ids=["float", "bool", "numpy-float", "numpy-bool", "str"])
    def test_mode_must_be_an_integer(self, mode):
        state = state_from_device(*random_device(4, 2))
        with pytest.raises(ValidationError, match="integer"):
            mode_click_probability(state, mode)

    def test_integer_modes_are_read(self):
        state = state_from_device(*random_device(4, 2))
        probs = [mode_click_probability(state, j) for j in range(4)]
        assert mode_click_probability(state, np.int64(2)) == probs[2]
        assert sum(probs) == mean_clicks(state)
        for mode in (-1, 4):
            with pytest.raises(ValidationError, match="out of range"):
                mode_click_probability(state, mode)
