import functools
import itertools
import math

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
    cycle_graph,
    inclusion_exclusion_distribution,
    mean_photons,
    rank_two_graph,
    reduced_state,
    star_graph,
    thermal_squeezer_husimi,
)


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
        with pytest.raises(ValidationError, match="singular"):
            apply_thermal(state, 0.1)


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


class TestCappedDistribution:
    @pytest.mark.parametrize("k", [0, 1, 4, 7, 8])
    @pytest.mark.parametrize("noise", NOISE)
    @pytest.mark.parametrize("name", CAPPED_GRAPHS)
    def test_matches_oracle_and_full_distribution(self, name, noise, k):
        state, want, full = capped_case(name, noise)
        got = gaussian.pattern_distribution(state, k)
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
                gaussian.pattern_distribution(state, k)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_split_stacks_are_bit_identical(self, monkeypatch, k):
        state = apply_loss(state_from_device(*random_device(8, 5)), 0.75)
        monkeypatch.setattr(gaussian, "_CHUNK", 1 << 40)
        whole = gaussian.pattern_distribution(state, k)
        monkeypatch.setattr(gaussian, "_CHUNK", 16)
        split = gaussian.pattern_distribution(state, k)
        assert whole.tobytes() == split.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_positive_pivot_names_its_modes(self, k):
        state = vacuum(3)
        object.__setattr__(state, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        with pytest.raises(PhysicalityError, match=r"modes \[1\]"):
            gaussian.pattern_distribution(state, k)

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
        monkeypatch.setattr(gaussian, "_on_slice", lambda m, k: on_slice)
        with pytest.raises(PhysicalityError, match=r"modes \[0, 1\]"):
            gaussian._capped_distribution(state, k)

    @pytest.mark.parametrize("on_slice", [True, False], ids=["slice", "vector"])
    def test_cap_zero_checks_every_single_mode_block(self, monkeypatch, on_slice):
        # a cap of 0 writes only the empty pattern, but the start still
        # checks each single-mode block, as every other cap does
        state = vacuum(3)
        object.__setattr__(state, "husimi", np.diag([1.0, -1.0, 1.0] * 2))
        monkeypatch.setattr(gaussian, "_on_slice", lambda m, k: on_slice)
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
        monkeypatch.setattr(gaussian, "_on_slice", lambda m, k: on_slice)
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
            gaussian.pattern_distribution(state, k)


class TestClickSlice:
    @pytest.mark.parametrize("modes", [0, 1, 5, 8])
    def test_layout(self, modes):
        for k in range(modes + 1):
            masks, pairs = gaussian._click_slice(modes, k)
            assert (np.diff(masks) > 0).all() and (np.bitwise_count(masks) <= k).all()
            assert len(masks) == sum(math.comb(modes, j) for j in range(k + 1))
            assert len(pairs) == modes
            # each pass pairs every S that holds mode i with S - {i}
            for i, (hi, lo) in enumerate(pairs):
                assert np.array_equal(hi, np.flatnonzero(masks >> i & 1))
                assert np.array_equal(masks[lo], masks[hi] ^ 1 << i)

    def test_pattern_distribution_scatters_the_slice(self):
        state = capped_case("random", "thermal")[0]
        for k in range(9):
            masks, probs = gaussian._capped_distribution(state, k)
            dist = gaussian.pattern_distribution(state, k)
            assert dist[masks].tobytes() == probs.tobytes()
            assert not np.delete(dist, masks).any()


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
                monkeypatch.setattr(gaussian, "_on_slice", lambda m, k: on_slice)
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

    def test_half_the_modes_build_no_slice_pairs(self, monkeypatch):
        def refused(*args):
            raise AssertionError("slice pairs built")

        monkeypatch.setattr(gaussian, "_click_slice", refused)
        g = random_complex_graph(20, seed=1)
        state = apply_loss(encode_graph(g, choose_scale(g, 10.0)).build_state(), 0.75)
        masks, probs = gaussian._capped_distribution(state, 10)
        assert len(masks) == sum(math.comb(20, j) for j in range(11))
        assert 0.0 < probs.sum() <= 1.0


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
