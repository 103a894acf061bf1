import itertools

import numpy as np
import pytest
from scipy.stats import unitary_group

from gbskit import gaussian
from gbskit.errors import CostGuardError, PhysicalityError, ValidationError
from gbskit.gaussian import (
    GaussianState,
    NoiseConfig,
    apply_loss,
    apply_thermal,
    mean_clicks,
    mean_photons,
    pattern_probability,
    pure_state_from_a,
    reduce_modes,
    sampling_matrix,
    state_from_device,
)
from gbskit.matfn import torontonian

from oracles import all_patterns


def vacuum(m):
    return GaussianState(modes=m, husimi=np.eye(2 * m, dtype=complex))


def random_device(m, seed, r_max=0.9):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, r_max, m)
    u = unitary_group.rvs(m, random_state=rng)
    return r, u


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


class TestSamplingMatrix:
    def test_vacuum_gives_zero(self):
        sm = sampling_matrix(vacuum(3))
        assert np.linalg.norm(sm.full) < 1e-12

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

    def test_full_block_assembly(self):
        r, u = random_device(3, 2)
        sm = sampling_matrix(apply_loss(state_from_device(r, u), 0.7))
        full = sm.full
        m = 3
        assert np.allclose(full[:m, :m], sm.a)
        assert np.allclose(full[m:, :m], sm.l.conj().T)
        assert np.allclose(full[m:, m:], sm.a.conj())


class TestLoss:
    def test_eta_one_is_identity(self):
        r, u = random_device(3, 5)
        state = state_from_device(r, u)
        assert np.allclose(apply_loss(state, 1.0).husimi, state.husimi)

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
        red = reduce_modes(state, [1])
        assert np.allclose(red.husimi, np.eye(2), atol=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_loss(vacuum(1), 1.5)


class TestThermal:
    def test_epsilon_zero_is_identity(self):
        r, u = random_device(3, 6)
        state = state_from_device(r, u)
        assert np.linalg.norm(apply_thermal(state, 0.0).husimi - state.husimi) < 1e-9

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

    def test_rejects_lossy_input(self):
        r, u = random_device(2, 1)
        state = apply_loss(state_from_device(r, u), 0.5)
        with pytest.raises(ValidationError):
            apply_thermal(state, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_thermal(vacuum(1), -0.1)


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

    def test_refuses_more_than_16_clicks(self):
        with pytest.raises(CostGuardError):
            pattern_probability(vacuum(17), [1] * 17)

    def test_kernel_refuses_more_than_16_clicks(self):
        with pytest.raises(CostGuardError):
            gaussian.marginal_probability(vacuum(17), 0, (1 << 17) - 1)

    def test_kernel_rejects_bad_masks(self):
        for vac, clk in [(1, 1), (0, 1 << 3), (-1, 0)]:
            with pytest.raises(ValidationError):
                gaussian.marginal_probability(vacuum(3), vac, clk)

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValidationError):
            pattern_probability(vacuum(2), [0, 2])


class TestReduce:
    def test_keep_all_is_identity(self):
        r, u = random_device(3, 2)
        state = state_from_device(r, u)
        assert np.allclose(reduce_modes(state, [0, 1, 2]).husimi, state.husimi)

    def test_vacuum_reduces_to_vacuum(self):
        assert np.allclose(reduce_modes(vacuum(4), [1, 3]).husimi, np.eye(4))

    def test_marginalization_identity(self):
        r, u = random_device(3, 13)
        state = state_from_device(r, u)
        marg = pattern_probability(reduce_modes(state, [0]), [1])
        total = sum(
            pattern_probability(state, (1,) + p) for p in all_patterns(2)
        )
        assert marg == pytest.approx(total, abs=1e-8)

    def test_rejects_empty_subset(self):
        with pytest.raises(ValidationError):
            reduce_modes(vacuum(2), [])


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(PhysicalityError):
            GaussianState(modes=1, husimi=bad)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(PhysicalityError):
            GaussianState(modes=1, husimi=0.3 * np.eye(2))

    def test_noise_config_bounds(self):
        NoiseConfig(eta=0.5, epsilon=0.1)
        with pytest.raises(ValidationError):
            NoiseConfig(eta=-0.1)
        with pytest.raises(ValidationError):
            NoiseConfig(epsilon=1.5)

    def test_pure_state_from_a_spectral_norm_guard(self):
        with pytest.raises(ValidationError):
            pure_state_from_a(np.eye(2) * 1.5)


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
