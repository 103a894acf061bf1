import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.stats import unitary_group

from gbskit import gaussian, sampler
from gbskit.errors import CostGuardError, ValidationError
from gbskit.generators import random_complex_symmetric
from gbskit.matfn import hafnian, torontonian
from gbskit.sampler import (
    SamplePool,
    _bits,
    _clicked_modes,
    _prefix_marginals,
    load_pool,
    postselect,
    sample,
    sample_k_clicks,
    save_pool,
)

from oracles import (
    all_patterns,
    inclusion_exclusion_distribution,
    reduced_state,
    state_with_sampling_matrix,
)


def random_state(m, seed, r_max=0.8):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.2, r_max, m)
    u = unitary_group.rvs(m, random_state=rng)
    return gaussian.state_from_device(r, u)


def noisy_state(m=5):
    state = gaussian.apply_thermal(random_state(m, 12), 0.3)
    return gaussian.apply_loss(state, 0.7)


def torontonian_prefix(state, k, clicked):
    """Probability of clicks on bitmask `clicked` and vacuum on the other
    modes below k: Tor(O_S)/sqrt(det sigma) on the reduced state of modes < k."""
    red = reduced_state(state, range(k))
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
        # every prefix marginal the chain rule reads, the lower half of each
        # level j at dist[2^M - 2^j:], against Tor(O_S)/sqrt(det) on the
        # reduced state of the prefix modes
        state = noisy_state()
        dist = _prefix_marginals(gaussian.pattern_distribution(state))
        assert dist[-1] == pytest.approx(1.0)
        for j in range(1, 6):
            for clicked in range(1 << j - 1):
                assert dist[dist.size - (1 << j) + clicked] == pytest.approx(
                    torontonian_prefix(state, j, clicked), abs=1e-12
                )

    def test_fold_allocates_no_second_vector(self):
        dist = np.random.default_rng(8).random(1 << 16)
        dist /= dist.sum()
        # each level summed into a fresh vector; the chain rule reads the
        # lower halves, which the fold must leave with the same bits
        want, levels = dist.copy(), []
        for j in reversed(range(16)):
            levels.append(want)
            want = want[:1 << j] + want[1 << j:]
        tracemalloc.start()
        try:
            folded = _prefix_marginals(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert folded is dist and peak < dist.nbytes / 16
        for level in levels:
            half = level.size // 2
            assert np.array_equal(dist[dist.size - level.size:][:half], level[:half])
        assert dist[-1] == want[0]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_lockstep_draws_replay_torontonian_chain_rule(self, m):
        # each draw walked on its own with its own uniforms and the reference
        # prefix probabilities makes the same click decision at every mode
        state = noisy_state(m)
        pool = sample(state, 300, seed=23)
        uniforms = np.random.default_rng(23).random((300, m))
        for u, drawn in zip(uniforms, pool.samples):
            clicked, p = 0, 1.0
            for k in range(m):
                p0 = torontonian_prefix(state, k + 1, clicked)
                if u[k] * p < p - p0:
                    clicked |= 1 << k
                    p -= p0
                else:
                    p = p0
                assert drawn[k] == clicked >> k & 1

    def test_table_holds_direct_determinants(self):
        # the distribution a pool is drawn from, against inclusion-exclusion
        # over direct determinants
        state = random_state(6, 14)
        want = inclusion_exclusion_distribution(state)
        np.testing.assert_allclose(
            gaussian.pattern_distribution(state), want, rtol=1e-12, atol=1e-14
        )

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
        state = state_with_sampling_matrix(a)
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

    # the mode cap refuses before the 2^M distribution is allocated
    def test_mode_cost_guard(self):
        state = gaussian.GaussianState(modes=25, husimi=np.eye(50, dtype=complex))
        with pytest.raises(CostGuardError):
            sample(state, 1, seed=0)

    def test_click_cost_guard(self):
        # 16.7 expected clicks cost no more than few: only the mode cap guards
        state = gaussian.state_from_device([2.5] * 20, np.eye(20))
        clicks = sample(state, 2000, seed=0).click_counts()
        se = clicks.std(ddof=1) / np.sqrt(clicks.size)
        assert abs(clicks.mean() - gaussian.mean_clicks(state)) < 5 * se

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

    @pytest.mark.parametrize("k, kind", [(1.5, "float"), (1.0, "float"), (True, "bool")])
    def test_rejects_a_non_integer_k(self, k, kind):
        pool = SamplePool(modes=3, samples=((1, 0, 0), (1, 1, 0)))
        with pytest.raises(ValidationError,
                           match=f"click count k must be an integer, not {kind}"):
            postselect(pool, k)

    def test_numpy_integer_k(self):
        pool = SamplePool(modes=3, samples=((1, 0, 0), (1, 1, 0)))
        assert postselect(pool, np.int64(2)).samples.tolist() == [[1, 1, 0]]


def vacuum_state(m):
    return gaussian.GaussianState(modes=m, husimi=np.eye(2 * m, dtype=complex))


def k_click_slice(state, k):
    """(masks, probabilities over P_k, P_k) of the k-click patterns."""
    dist = gaussian.pattern_distribution(state)
    masks = np.flatnonzero(np.bitwise_count(np.arange(1 << state.modes)) == k)
    return masks, dist[masks] / dist[masks].sum(), dist[masks].sum()


def pool_masks(pool):
    return pool.samples.astype(np.int64) @ (1 << np.arange(pool.modes))


class TestSampleKClicks:
    @pytest.mark.parametrize("k, kind", [(1.5, "float"), (True, "bool")])
    def test_rejects_a_non_integer_k(self, k, kind):
        with pytest.raises(ValidationError,
                           match=f"click count k must be an integer, not {kind}"):
            sample_k_clicks(random_state(4, 7), 10, k, 0)

    def test_kept_count_is_binomial(self):
        state, n, k, runs = random_state(4, 7), 200, 2, 600
        p_k = k_click_slice(state, k)[2]
        kept = np.array([len(sample_k_clicks(state, n, k, s)) for s in range(runs)])
        mean, var = n * p_k, n * p_k * (1 - p_k)
        assert abs(kept.mean() - mean) < 5 * np.sqrt(var / runs)
        # a sample variance's SE is about var * sqrt(2 / (runs - 1))
        assert abs(kept.var(ddof=1) - var) < 5 * var * np.sqrt(2 / (runs - 1))

    def test_patterns_follow_the_k_click_slice(self):
        state, k = random_state(6, 3), 3
        masks, probs, _ = k_click_slice(state, k)
        pool = sample_k_clicks(state, 400000, k, seed=8)
        got = pool_masks(pool)
        assert np.isin(got, masks).all()
        freq = (got[:, None] == masks[None, :]).mean(axis=0)
        se = np.sqrt(probs * (1 - probs) / len(pool))
        assert (np.abs(freq - probs) < 5 * se).all()

    def test_matches_postselected_chain_rule_pools(self):
        state, n, k = noisy_state(), 20000, 2
        drawn = sample_k_clicks(state, n, k, seed=21)
        chained = postselect(sample(state, n, seed=22), k)
        p_k = k_click_slice(state, k)[2]
        se_kept = np.sqrt(2 * n * p_k * (1 - p_k))
        assert abs(len(drawn) - len(chained)) < 5 * se_kept
        # each mode's mean click count, within the two pools' combined SE
        a, b = drawn.samples.mean(axis=0), chained.samples.mean(axis=0)
        se = np.sqrt(a * (1 - a) / len(drawn) + b * (1 - b) / len(chained))
        assert (np.abs(a - b) < 5 * se).all()

    def test_provenance_is_postselects(self):
        state = random_state(4, 2)
        drawn = sample_k_clicks(state, 100, 2, seed=9)
        chained = postselect(sample(state, 100, seed=9), 2)
        assert drawn.provenance == chained.provenance
        assert drawn.provenance == {"kind": "simulated", "count": 100,
                                    "postselected_clicks": 2}
        assert drawn.seed == 9

    @pytest.mark.parametrize("state", [
        vacuum_state(3), gaussian.apply_loss(random_state(3, 4), 0.0),
    ], ids=["vacuum", "fully-lost"])
    def test_no_k_click_patterns_gives_empty_pool(self, state):
        pool = sample_k_clicks(state, 500, 2, seed=1)
        assert pool.samples.shape == (0, 3)
        assert len(sample_k_clicks(state, 500, 0, seed=1)) == 500

    def test_k_zero_and_k_all_modes(self):
        state, n = random_state(4, 5), 3000
        dist = gaussian.pattern_distribution(state)
        for k, mask in ((0, 0), (4, 15)):
            pool = sample_k_clicks(state, n, k, seed=k)
            assert (pool_masks(pool) == mask).all()
            se = np.sqrt(n * dist[mask] * (1 - dist[mask]))
            assert abs(len(pool) - n * dist[mask]) < 5 * se

    def test_seed_determinism(self):
        state = noisy_state()
        a = sample_k_clicks(state, 2000, 2, seed=4)
        b = sample_k_clicks(state, 2000, 2, seed=4)
        c = sample_k_clicks(state, 2000, 2, seed=5)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.samples.tobytes() != c.samples.tobytes()

    def test_rejects_bad_count_and_k(self):
        state = random_state(3, 1)
        with pytest.raises(ValidationError):
            sample_k_clicks(state, -1, 1, seed=0)
        for k in (-1, 4):
            with pytest.raises(ValidationError, match="out of range"):
                sample_k_clicks(state, 10, k, seed=0)


class TestChainRulePoolsPinned:
    # sha256 of pool bytes drawn before the capped kernel existed; pools are
    # 0/1 decisions, so a last-bit change in a probability flips none of them
    @pytest.mark.parametrize("noisy, digest", [
        (False, "29aa419a31b7be0978940c0a5934c65c7bc45e41fa7c632f88d6431654039a49"),
        (True, "205819e7ed6810b87fe7d25213e1d42f49ae0e813e431b74ac12250e86c1d228"),
    ], ids=["lossless", "noisy"])
    def test_pool_bytes(self, noisy, digest):
        state = random_state(6, 3)
        if noisy:
            state = gaussian.apply_loss(gaussian.apply_thermal(state, 0.25), 0.5)
        pool = sample(state, 3000, seed=5)
        assert hashlib.sha256(pool.samples.tobytes()).hexdigest() == digest


class TestPoolIO:
    # every pool save_pool writes, load_pool reads back
    @pytest.mark.parametrize("pool", [
        sample(random_state(4, 8), 300, seed=17),
        SamplePool(modes=1, samples=[[0], [1]]),
        SamplePool(modes=3, samples=[]),
        SamplePool(modes=np.int64(4), samples=np.eye(4, dtype=np.uint8)),
    ], ids=["sampled", "one-mode", "empty", "numpy-modes"])
    def test_roundtrip(self, tmp_path, pool):
        path = tmp_path / "pool.txt"
        save_pool(pool, path)
        loaded = load_pool(path)
        assert np.array_equal(loaded.samples, pool.samples)
        assert loaded.modes == pool.modes
        assert loaded.seed == pool.seed
        assert loaded.provenance == pool.provenance

    def test_numpy_count_writes_the_bytes_of_an_int(self, tmp_path):
        state = random_state(4, 8)
        written = []
        for count in (5, np.int64(5)):
            path = tmp_path / "pool.txt"
            save_pool(sample(state, count, 7), path)
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert b'"count": 5' in written[1]

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("modes=x\n10\n", r"bad\.txt:1: malformed mode count in header$"),
            ("# seed: 1\nmodes=1.5\n", r"bad\.txt:2: malformed mode count in header$"),
            ("modes=0\n", r"bad\.txt:1: modes must be positive$"),
            ("modes=-2\n", r"bad\.txt:1: modes must be positive$"),
            ("# provenance: [1]\nmodes=2\n",
             r"bad\.txt:1: provenance header is not a JSON object$"),
            ("# provenance: 3\nmodes=2\n",
             r"bad\.txt:1: provenance header is not a JSON object$"),
            # a JSON number too long for int() fails as a ValueError, not a JSONDecodeError
            pytest.param(f'# provenance: {{"n": {"1" * 5000}}}\nmodes=2\n',
                         r"bad\.txt:1: provenance header is not a JSON object$",
                         id="provenance-int-too-long"),
            ("modes=2\n# seed:\n", r"bad\.txt:2: seed header is not an integer$"),
            ("modes=2\n# seed: 2.0\n", r"bad\.txt:2: seed header is not an integer$"),
            ("mode=2\n", r"bad\.txt:1: expected 'modes=M' header, got 'mode=2'$"),
            ("modes\n", r"bad\.txt:1: expected 'modes=M' header, got 'modes'$"),
        ],
    )
    def test_header_refusals_name_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_pool(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("\n# seed: 4\n\nmodes=2\n10\n\n  \n01\n\n")
        pool = load_pool(path)
        assert pool.samples.tolist() == [[1, 0], [0, 1]]
        assert pool.seed == 4

    def test_header_comments_by_name_and_colon(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "#provenance:{\"kind\": \"x\"}\n"
            "#   seed:  5 \n"
            "# provenance\n"  # no colon: a plain comment
            "# seed : 6\n"  # not the seed header
            "# modes: 9\n"  # not a comment header
            "# note: 7\n"
            "modes=2\n11\n"
        )
        pool = load_pool(path)
        assert (pool.provenance, pool.seed, pool.modes) == ({"kind": "x"}, 5, 2)

    @staticmethod
    def line_by_line(path):
        """`load_pool` as it stood reading one line per Python iteration:
        (modes, sample bytes, provenance, seed), or the refusal text."""
        comments, modes, patterns = {"provenance": {}, "seed": None}, None, []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if not line:
                        continue
                    if line.startswith("#"):
                        name, colon, text = line[1:].lstrip().partition(":")
                        if colon and name in comments:
                            comments[name] = sampler._header_value(path, lineno, name, text)
                    elif modes is None:
                        if not line.startswith("modes="):
                            raise ValidationError(
                                f"{path}:{lineno}: expected 'modes=M' header, got {line!r}")
                        modes = sampler._header_value(path, lineno, "modes", line[6:])
                        if modes <= 0:
                            raise ValidationError(f"{path}:{lineno}: modes must be positive")
                    elif len(line) != modes or line.strip("01"):
                        raise ValidationError(
                            f"{path}:{lineno}: expected a {modes}-character 0/1 pattern, "
                            f"got {line!r}")
                    else:
                        patterns.append(line)
            if modes is None:
                raise ValidationError(f"{path}: missing 'modes=M' header")
        except ValidationError as exc:
            return str(exc)
        digits = "".join(patterns).encode("ascii")
        return modes, digits, comments["provenance"], comments["seed"]

    @pytest.mark.parametrize("text", [
        "modes=4\n0101\n1100\n",
        "modes=4\r\n0101\r\n1100\r\n",
        "modes=4\r0101\r1100",
        "modes=4\n 0101 \n\t1100\x0b\n\x1c0011\u3000\n\u00850000\n",
        "modes=2\n10\n 01\n11\n\t00\n10\n00 \n",
        "\n# c\n\n  modes=3 \n\n111\n  \n000\n\n",
        "modes=4",
        "modes=4\n0101",
        "modes=4\n0101\x00\n",
        "modes=4\n\x00\n",
        "modes=4\n# seed: 3\x00\n0101\n",
        "modes=4\n010\n# seed: x\n",
        "modes=4\n# seed: x\n010\n",
        "modes=4\n0101\n#seed:9\n1111\n# seed : 4\n#\n# seed 5\n",
        "modes=4\n0121\n",
        "modes=4\n01010\n",
        "modes=4\n\u0661\u0660\u0661\u0660\n",
        "modes=2\n1 0\n",
        "modes=2\n# provenance: {\"a\": 1}\n10\n# provenance: [1]\n",
        "modes=2\n10\n01\n11\nx\n00\n",
        "modes=0\n",
        "0101\n",
        "",
    ])
    def test_reads_as_line_by_line(self, tmp_path, text):
        # the lines after the header are sorted all at once; every pool and
        # every refusal is the one reading them one at a time gave
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode("utf-8"))
        want = self.line_by_line(path)
        try:
            pool = load_pool(path)
        except ValidationError as exc:
            assert str(exc) == want
        else:
            assert (pool.modes, (pool.samples + ord("0")).tobytes(), pool.provenance,
                    pool.seed) == want

    # ASCII and Unicode whitespace that str.strip removes; none ends a line
    _PADDING = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028",
                "\u3000"]

    @classmethod
    def _mixed_file(cls, rng, modes):
        """A seeded pool file at `modes` modes, mixing every line kind."""
        def pick(options):
            return options[rng.integers(len(options))]

        def pattern():
            return "".join(pick("01") for _ in range(modes))

        kinds = [
            pattern,
            lambda: pick(cls._PADDING) + pattern() + pick(["", *cls._PADDING]),
            lambda: pick(["", " ", "\t", "\u3000"]),
            lambda: pick(["#", "# a comment", "# seed 5", "# seed : 4", "# modes: 9"]),
            lambda: pick([f"# seed: {rng.integers(100)}", "#seed:7", "# seed: x",
                          "# seed: 2.0"]),
            lambda: pick(['# provenance: {"a": 1}', "#provenance:{}", "# provenance: [1]",
                          '# provenance: {"a": ']),
            lambda: pick([pattern()[1:] + "\x00", "\x00" + pattern(), "# seed: 3\x00"]),
            lambda: pattern().replace("1", pick(["\u0661", "\uff11", "\u00b9"])),
            lambda: pick([pattern() + "0", pattern()[1:], "2" * modes, "x", "1 0"]),
        ]
        if rng.random() < 0.25:  # save_pool's layout, or one byte off it at the end
            lines = [*(kinds[4]() for _ in range(rng.integers(0, 3))), f"modes={modes}",
                     *(pattern() for _ in range(rng.integers(0, 12)))]
            return "\n".join(lines) + pick(["\n", "\n", "", "0", "1\n"])
        weights = np.array([60, 8, 6, 4, 3, 3, 2, 2, 2]) / 90
        lines = [kinds[i]() for i in rng.choice(9, rng.integers(0, 4), p=weights)]
        lines.append(pick([f"modes={modes}", f" modes={modes}\t", "modes=x", "mode=2",
                           pattern()]) if rng.random() < 0.1 else f"modes={modes}")
        lines += [kinds[i]() for i in rng.choice(9, rng.integers(0, 15), p=weights)]
        ends = [pick(["\n", "\r\n", "\r"]) for _ in lines]
        if rng.random() < 0.5:  # one ending for every line
            ends = [ends[0]] * len(lines)
        if rng.random() < 0.2:  # no final newline
            ends[-1] = ""
        return "".join(line + end for line, end in zip(lines, ends))

    def test_mixed_files_read_as_line_by_line(self, tmp_path):
        # seeded files at 1-6 modes mixing plain, padded, CR- and CRLF-ended,
        # blank, comment, header, NUL, non-ASCII digit and bad lines: each
        # gives line_by_line's pool, provenance and seed, or its refusal text
        rng = np.random.default_rng(35)
        path = tmp_path / "p.txt"
        outcomes = {"read": 0, "refused": 0}
        for _ in range(3000):
            text = self._mixed_file(rng, int(rng.integers(1, 7)))
            path.write_bytes(text.encode("utf-8"))
            want = self.line_by_line(path)
            try:
                pool = load_pool(path)
            except ValidationError as exc:
                got, outcomes["refused"] = str(exc), outcomes["refused"] + 1
            else:
                got = (pool.modes, (pool.samples + ord("0")).tobytes(), pool.provenance,
                       pool.seed)
                outcomes["read"] += 1
            assert got == want, repr(text)
        assert min(outcomes.values()) > 500

    def test_large_mode_count_allocates_no_windows(self, tmp_path):
        # no line has M bytes, so no M-byte window is built before the refusal
        path = tmp_path / "p.txt"
        path.write_text(f"modes={10 ** 8}\n0101\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as refused:
                load_pool(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == self.line_by_line(path)
        assert peak < 1 << 20

    def test_later_header_wins(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# seed: 1\n# seed: 2\nmodes=1\n# seed: 3\n1\n")
        assert load_pool(path).seed == 3

    def test_missing_comment_headers_default(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("modes=1\n1\n")
        pool = load_pool(path)
        assert (pool.provenance, pool.seed) == ({}, None)


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

    # the 0/1 check against `np.isin(arr, (0, 1))`, the rule it replaced: the
    # same first bad row, or none, on every kind of input, with no warning
    @pytest.mark.parametrize("samples", [
        [[0, 1], [1, 2]],
        [[0.0, 1.0], [1.0, 0.5]],
        [[True, False], [False, True]],
        [["0", "1"], ["1", "0"]],
        [[b"0", b"1"], [b"1", b"0"]],
        np.array([[0, 1.0], [True, np.uint8(0)]], dtype=object),
        np.array([[0, 1], ["1", None]], dtype=object),
        [[1.0, 0.0], [np.nan, 1.0]],
        [[-0.0, 1.0], [0.0, -0.0]],
        np.zeros((0, 2)),
    ], ids=["int", "float", "bool", "str", "bytes", "object", "object-bad",
            "nan", "negative-zero", "empty"])
    def test_zero_one_check_matches_isin(self, samples):
        arr = np.asarray(samples)
        bad = np.flatnonzero(~np.isin(arr, (0, 1)).all(axis=1))
        if bad.size:
            with pytest.raises(ValidationError, match=f"pattern {bad[0]} is not a 0/1"):
                SamplePool(modes=2, samples=samples)
        else:
            pool = SamplePool(modes=2, samples=samples)
            assert pool.samples.tolist() == arr.astype(np.uint8).tolist()

    # unlike `np.isin`, the rule refuses a complex entry, even 1+0j, which
    # the uint8 cast would otherwise meet
    @pytest.mark.parametrize("samples, bad", [
        ([[1 + 0j, 0j]], 0),
        (np.array([[1 + 0j, 0j]], dtype=object), 0),
        ([[0j, 1 + 0j], [1j, 1]], 0),
        (np.array([[1, 0], [0, np.complex64(1)]], dtype=object), 1),
    ], ids=["complex", "object", "complex-rows", "object-row"])
    def test_rejects_complex_entries(self, samples, bad):
        with pytest.raises(ValidationError, match=f"pattern {bad} is not a 0/1 pattern"):
            SamplePool(modes=2, samples=samples)

    @pytest.mark.parametrize("modes, samples, message", [
        (-1, [], "a pool needs at least 1 mode, got -1"),
        (0, [[], []], "a pool needs at least 1 mode, got 0"),
        (2.0, [[1, 0]], "modes must be an integer, not float"),
        (True, [[1]], "modes must be an integer, not bool"),
    ])
    def test_rejects_modes_below_one_or_not_integer(self, modes, samples, message):
        with pytest.raises(ValidationError, match=message):
            SamplePool(modes=modes, samples=samples)

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

    def test_rejects_array_of_wrong_rank(self):
        with pytest.raises(ValidationError, match=r"patterns do not form an \(N, 3\) array"):
            SamplePool(modes=3, samples=np.zeros((2, 3, 1)))

    def test_subsets(self):
        pool = SamplePool(modes=4, samples=((1, 0, 1, 0), (0, 1, 0, 1)))
        assert pool.subsets(2).tolist() == [[0, 2], [1, 3]]

    @pytest.mark.parametrize("masks", [
        np.zeros(0, dtype=np.int64),
        np.array([0b1000110000100101]),
        gaussian._slice_masks(16, 6)[np.bitwise_count(gaussian._slice_masks(16, 6)) == 6],
    ], ids=["empty", "one-row", "table"])
    def test_decoder_is_nonzero_bytes(self, masks):
        bits = _bits(masks, 16)
        got, want = _clicked_modes(bits, 6), np.nonzero(bits)[1].reshape(len(bits), 6)
        assert got.dtype == want.dtype == np.intp and got.shape == (len(masks), 6)
        assert got.tobytes() == want.tobytes()
        pool = SamplePool(modes=16, samples=bits)
        assert pool.subsets(6).tobytes() == want.tobytes()

    def test_subsets_rejects_wrong_click_count(self):
        pool = SamplePool(modes=4, samples=((1, 0, 1, 0), (1, 1, 1, 0)))
        with pytest.raises(ValidationError, match="pattern 1 has 3 clicks"):
            pool.subsets(2)
