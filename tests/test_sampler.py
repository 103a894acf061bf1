import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.stats import unitary_group

from gbskit import gaussian
from gbskit.errors import CostGuardError, ValidationError
from gbskit.generators import random_complex_symmetric
from gbskit.matfn import hafnian, torontonian
from gbskit.sampler import (
    SamplePool,
    load_pool,
    postselect,
    sample,
    save_pool,
)

from oracles import all_patterns


def random_state(m, seed, r_max=0.8):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.2, r_max, m)
    u = unitary_group.rvs(m, random_state=rng)
    return gaussian.state_from_device(r, u)


def noisy_state():
    state = gaussian.apply_thermal(random_state(5, 12), 0.3)
    return gaussian.apply_loss(state, 0.7)


def torontonian_prefix(state, k, clicked):
    """Probability of clicks on bitmask `clicked` and vacuum on the other
    modes below k: Tor(O_S)/sqrt(det sigma) on the reduced state of modes < k."""
    red = gaussian.reduce_modes(state, range(k))
    o = np.eye(2 * k) - np.linalg.inv(red.husimi)
    s = [i for i in range(k) if clicked >> i & 1]
    idx = s + [i + k for i in s]
    return torontonian(o[np.ix_(idx, idx)]) / np.sqrt(np.linalg.det(red.husimi).real)


class TestSample:
    def test_vacuum_all_zero(self):
        state = gaussian.GaussianState(modes=3, husimi=np.eye(6, dtype=complex))
        pool = sample(state, 50, seed=1)
        assert all(p == [0, 0, 0] for p in pool.samples.tolist())

    def test_seed_determinism(self):
        state = random_state(4, 7)
        assert np.array_equal(
            sample(state, 200, seed=3).samples, sample(state, 200, seed=3).samples
        )

    def test_different_seeds_differ(self):
        state = random_state(4, 7)
        assert not np.array_equal(
            sample(state, 200, seed=3).samples, sample(state, 200, seed=4).samples
        )

    def test_prefix_probabilities_match_torontonian(self):
        # every prefix marginal the chain rule uses, against Tor(O_S)/sqrt(det)
        # on the reduced state of the prefix modes
        state = noisy_state()
        for k in range(1, 6):
            for bits in itertools.product([0, 1], repeat=k):
                clicked = sum(1 << i for i, b in enumerate(bits) if b)
                got = gaussian.marginal_probability(
                    state, ((1 << k) - 1) ^ clicked, clicked
                )
                assert got == pytest.approx(
                    torontonian_prefix(state, k, clicked), abs=1e-12
                )

    def test_lockstep_draws_replay_torontonian_chain_rule(self):
        # each draw walked on its own with its own uniforms and the reference
        # prefix probabilities makes the same click decision at every mode
        state = noisy_state()
        pool = sample(state, 300, seed=23)
        uniforms = np.random.default_rng(23).random((300, 5))
        for u, drawn in zip(uniforms, pool.samples):
            clicked, p = 0, 1.0
            for k in range(5):
                p0 = torontonian_prefix(state, k + 1, clicked)
                if u[k] * p < p - p0:
                    clicked |= 1 << k
                    p -= p0
                else:
                    p = p0
                assert drawn[k] == clicked >> k & 1

    def test_table_holds_direct_determinants(self):
        state = random_state(6, 14)
        sample(state, 500, seed=2)
        table = state._vacuum
        filled = np.flatnonzero(table)
        assert filled.size > 6
        for w in filled.tolist():
            idx = [i for i in range(6) if w >> i & 1]
            idx += [i + 6 for i in idx]
            d = np.linalg.det(state.husimi[np.ix_(idx, idx)]).real
            assert table[w] == pytest.approx(d ** -0.5, abs=1e-12)

    def test_empirical_distribution_m3(self):
        state = random_state(3, 5)
        pool = sample(state, 20000, seed=9)
        counts = {p: 0 for p in all_patterns(3)}
        for p in map(tuple, pool.samples.tolist()):
            counts[p] += 1
        tvd = 0.5 * sum(
            abs(counts[p] / 20000 - gaussian.pattern_probability(state, p))
            for p in all_patterns(3)
        )
        assert tvd < 0.03

    def test_proportional_to_hafnian_squared(self):
        # click patterns of even size are ranked consistently with |Haf(A_S)|^2
        a = random_complex_symmetric(4, seed=31, spectral_norm=0.7)
        state = gaussian.pure_state_from_a(a)
        probs, hafs = [], []
        for bits in all_patterns(4):
            k = sum(bits)
            if k == 0 or k % 2:
                continue
            sub = [i for i, b in enumerate(bits) if b]
            probs.append(gaussian.pattern_probability(state, bits))
            hafs.append(abs(hafnian(a[np.ix_(sub, sub)])) ** 2)
        rho, _ = stats.spearmanr(probs, hafs)
        assert rho > 0

    def test_mode_cost_guard(self):
        state = gaussian.GaussianState(modes=25, husimi=np.eye(50, dtype=complex))
        with pytest.raises(CostGuardError):
            sample(state, 1, seed=0)

    def test_click_cost_guard(self):
        state = gaussian.state_from_device([2.5] * 20, np.eye(20))
        with pytest.raises(CostGuardError):
            sample(state, 1, seed=0)

    def test_rejects_negative_count(self):
        state = random_state(2, 0)
        with pytest.raises(ValidationError):
            sample(state, -1, seed=0)


class TestPostselect:
    def test_popcount_filter(self):
        state = random_state(4, 2)
        pool = sample(state, 500, seed=5)
        kept = postselect(pool, 2)
        assert all(sum(p) == 2 for p in kept.samples)
        assert len(kept) == sum(1 for p in pool.samples if sum(p) == 2)

    def test_order_preserved(self):
        pool = SamplePool(modes=2, samples=((1, 0), (0, 1), (1, 0)))
        kept = postselect(pool, 1)
        assert kept.samples.tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_k_zero_on_vacuum_pool(self):
        pool = SamplePool(modes=3, samples=((0, 0, 0),) * 4)
        assert len(postselect(pool, 0)) == 4

    def test_rejects_out_of_range(self):
        pool = SamplePool(modes=3, samples=())
        with pytest.raises(ValidationError):
            postselect(pool, 4)


class TestPoolIO:
    def test_roundtrip(self, tmp_path):
        state = random_state(4, 8)
        pool = sample(state, 300, seed=17)
        path = tmp_path / "pool.txt"
        save_pool(pool, path)
        loaded = load_pool(path)
        assert np.array_equal(loaded.samples, pool.samples)
        assert loaded.modes == pool.modes
        assert loaded.seed == pool.seed
        assert loaded.provenance == pool.provenance

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", fail)
        with pytest.raises(OSError):
            save_pool(SamplePool(modes=2, samples=((0, 1),)), path)
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_save_is_byte_stable(self, tmp_path):
        pool = SamplePool(modes=2, samples=((0, 1), (1, 1)), seed=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_pool(pool, p1)
        save_pool(pool, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_format_is_pinned(self, tmp_path):
        pool = SamplePool(
            modes=3,
            samples=((1, 0, 1), (0, 0, 0), (0, 1, 1)),
            provenance={"kind": "simulated", "count": 3},
            seed=11,
        )
        path = tmp_path / "pool.txt"
        save_pool(pool, path)
        assert path.read_text() == (
            '# provenance: {"count": 3, "kind": "simulated"}\n'
            "# seed: 11\n"
            "modes=3\n"
            "101\n"
            "000\n"
            "011\n"
        )

    def test_header_only_gives_empty_pool(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("modes=4\n")
        assert len(load_pool(path)) == 0

    def test_single_pattern(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("modes=4\n0101\n")
        pool = load_pool(path)
        assert pool.samples.tolist() == [[0, 1, 0, 1]]

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\nmodes=2\n# another\n10\n")
        assert load_pool(path).samples.tolist() == [[1, 0]]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0101\n")
        with pytest.raises(ValidationError, match="modes"):
            load_pool(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("modes=4\n0101\n012\n")
        with pytest.raises(ValidationError, match=":3:"):
            load_pool(path)

    def test_malformed_provenance_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('# provenance: {"kind": \n# seed: 3\nmodes=2\n10\n')
        with pytest.raises(ValidationError, match=r"bad\.txt:1: provenance"):
            load_pool(path)

    def test_malformed_seed_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('# provenance: {}\n# seed: x3\nmodes=2\n10\n')
        with pytest.raises(ValidationError, match=r"bad\.txt:2: seed"):
            load_pool(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_pool(path)


class TestSamplePool:
    def test_rejects_wrong_length_pattern(self):
        with pytest.raises(ValidationError):
            SamplePool(modes=3, samples=((0, 1),))

    def test_click_counts(self):
        pool = SamplePool(modes=3, samples=((1, 1, 0), (0, 0, 0)))
        assert pool.click_counts().tolist() == [2, 0]

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ((2, 0, 0), "pattern 1 is not a 0/1 pattern"),
            ((-1, 0, 0), "pattern 1 is not a 0/1 pattern"),
            ((0.5, 0, 0), "pattern 1 is not a 0/1 pattern"),
            ((0, 1), "pattern 1 does not have 3 entries"),
        ],
    )
    def test_rejects_bad_row_by_index(self, bad_row, message):
        with pytest.raises(ValidationError, match=message):
            SamplePool(modes=3, samples=((1, 0, 1), bad_row, (0, 0, 0)))

    def test_samples_are_read_only_uint8_array(self):
        pool = SamplePool(modes=3, samples=[[1, 0, 1], [0, 1, 0]])
        assert pool.samples.dtype == np.uint8
        assert pool.samples.shape == (2, 3)
        assert pool.samples.flags.c_contiguous
        with pytest.raises(ValueError):
            pool.samples[0, 0] = 0

    def test_input_array_is_copied(self):
        bits = np.array([[1, 0], [0, 1]])
        pool = SamplePool(modes=2, samples=bits)
        bits[0, 0] = 0
        assert pool.samples.tolist() == [[1, 0], [0, 1]]

    def test_empty_pool_has_mode_columns(self):
        assert SamplePool(modes=4, samples=()).samples.shape == (0, 4)

    def test_subsets(self):
        pool = SamplePool(modes=4, samples=((1, 0, 1, 0), (0, 1, 0, 1)))
        assert pool.subsets(2).tolist() == [[0, 2], [1, 3]]

    def test_subsets_rejects_wrong_click_count(self):
        pool = SamplePool(modes=4, samples=((1, 0, 1, 0), (1, 1, 1, 0)))
        with pytest.raises(ValidationError, match="pattern 1 has 3 clicks"):
            pool.subsets(2)
