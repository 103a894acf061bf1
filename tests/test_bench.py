import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from gbskit import bench, encoding, files, gaussian, sampler, solvers
from gbskit.encoding import Graph, choose_scale, encode_graph
from gbskit.errors import CostGuardError, ValidationError
from gbskit.gaussian import apply_loss, apply_thermal
from gbskit.generators import (
    planted_clique_graph,
    random_complex_graph,
    random_complex_symmetric,
    zero_one_graph,
)
from gbskit.matfn import hafnian, torontonian
from gbskit.sampler import SamplePool
from gbskit.solvers import Objective, RunTrace

from oracles import rank_pair_spearman, state_with_sampling_matrix, uniform_best_law


def click_masks(bits):
    """The click bitmask of each row of a 0/1 pattern array, bit i = column i."""
    return (bits.astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1)


def make_trace(values, seed=0):
    arr = np.maximum.accumulate(np.asarray(values, dtype=float))
    return RunTrace(best_values=arr, best_subset=(0, 1), steps_used=len(arr), seed=seed)


class TestCorrelationStudy:
    def test_row_count_and_determinism(self):
        a = bench.correlation_study(20, seed=5)
        b = bench.correlation_study(20, seed=5)
        assert len(a.rows) == 20
        assert a.rows == b.rows

    def test_matches_rank_pair_oracle(self):
        table = bench.correlation_study(50, seed=9)
        arr = np.array(table.rows)
        assert table.spearman_tor_haf == pytest.approx(
            rank_pair_spearman(arr[:, 0], arr[:, 1]), abs=1e-10
        )
        assert table.spearman_tor_density == pytest.approx(
            rank_pair_spearman(arr[:, 0], arr[:, 2]), abs=1e-10
        )

    def test_matches_state_reference(self):
        # O = I - sigma^-1 from the state whose sampling matrix is A
        table = bench.correlation_study(30, seed=11)
        rows = []
        for i in range(30):
            a = random_complex_symmetric(
                4, seed=np.random.default_rng([11, i]).integers(2**32)
            )
            sigma = state_with_sampling_matrix(a).husimi
            tor = torontonian(np.eye(8) - np.linalg.inv(sigma))
            rows.append((tor, float(abs(hafnian(a)) ** 2), float(abs(a.sum()))))
        for got, want in zip(table.rows, rows):
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            assert got[1:] == want[1:]
        arr = np.array(rows)
        rho_h, p_h = stats.spearmanr(arr[:, 0], arr[:, 1])
        rho_d, p_d = stats.spearmanr(arr[:, 0], arr[:, 2])
        assert (table.spearman_tor_haf, table.pvalue_tor_haf) == (rho_h, p_h)
        assert (table.spearman_tor_density, table.pvalue_tor_density) == (rho_d, p_d)

    def test_positive_correlation(self):
        table = bench.correlation_study(200, seed=3)
        assert table.spearman_tor_haf > 0
        assert table.spearman_tor_density > 0

    def test_rejects_too_few(self):
        with pytest.raises(ValidationError):
            bench.correlation_study(1, seed=0)

    @pytest.mark.parametrize("mode_count", [26, 10 ** 6])
    def test_cost_cap_before_any_matrix(self, monkeypatch, mode_count):
        def no_work(*args, **kwargs):
            raise AssertionError("a matrix was drawn before the cost cap")

        monkeypatch.setattr(bench, "random_complex_symmetric", no_work)
        with pytest.raises(CostGuardError, match=f"2\\^M table of {mode_count} modes "
                           "exceeds the cap of 24 modes$"):
            bench.correlation_study(2, seed=0, mode_count=mode_count)


class TestScoreAdvantage:
    def test_identical_sets_give_one(self):
        traces = [make_trace([1, 2, 3]), make_trace([2, 2, 4])]
        ratio, se = bench.score_advantage(traces, traces, at_step=3)
        assert ratio == pytest.approx(1.0)

    def test_known_ratio(self):
        ratio, _ = bench.score_advantage(
            [make_trace([4.0])], [make_trace([2.0])], at_step=1
        )
        assert ratio == pytest.approx(2.0)

    def test_hand_computed_means(self):
        enhanced = [make_trace([3.0]), make_trace([5.0])]
        classical = [make_trace([1.0]), make_trace([3.0])]
        ratio, _ = bench.score_advantage(enhanced, classical, at_step=1)
        assert ratio == pytest.approx(4.0 / 2.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            bench.score_advantage([], [make_trace([1.0])], at_step=1)

    def test_rejects_zero_classical_mean(self):
        with pytest.raises(ValidationError):
            bench.score_advantage(
                [make_trace([1.0])], [make_trace([0.0])], at_step=1
            )


class TestSpeedAdvantage:
    def test_identical_traces_give_one(self):
        traces = [make_trace([1, 2, 3])]
        adv = bench.speed_advantage(traces, traces, budget=3)
        assert adv.ratio == pytest.approx(1.0)
        assert adv.censored == 0

    def test_known_ratio(self):
        enhanced = [make_trace([0.0] * 4 + [5.0] * 46)]
        classical = [make_trace([0.0] * 49 + [5.0])]
        adv = bench.speed_advantage(enhanced, classical, budget=50)
        assert adv.ratio == pytest.approx(10.0)

    def test_censoring_flagged(self):
        enhanced = [make_trace([1.0, 1.0, 1.0])]
        classical = [make_trace([1.0, 2.0, 3.0])]
        adv = bench.speed_advantage(enhanced, classical, budget=3)
        assert adv.censored == 1

    def test_geometric_ratio_recovered(self):
        rng = np.random.default_rng(0)
        p_c, p_e = 0.01, 0.1
        enhanced, classical = [], []
        budget = 2000
        for _ in range(500):
            ce = min(int(rng.geometric(p_e)), budget)
            cc = min(int(rng.geometric(p_c)), budget)
            ev = np.zeros(budget)
            ev[ce - 1:] = 1.0
            cv = np.zeros(budget)
            cv[cc - 1:] = 1.0
            enhanced.append(make_trace(ev))
            classical.append(make_trace(cv))
        adv = bench.speed_advantage(enhanced, classical, budget=budget)
        assert adv.ratio == pytest.approx(10.0, rel=0.2)

    def test_rejects_unpaired(self):
        with pytest.raises(ValidationError):
            bench.speed_advantage([make_trace([1.0])], [], budget=1)

    def test_rejects_unequal_lengths(self):
        traces = [make_trace([1.0]), make_trace([2.0])]
        with pytest.raises(ValidationError, match="requires paired trace sets"):
            bench.speed_advantage(traces, traces[:1], budget=1)


class TestGeometricFit:
    def test_immediate_success(self):
        assert bench.geometric_fit([1, 1, 1]).p_hat == pytest.approx(1.0)

    def test_mean_two(self):
        fit = bench.geometric_fit([2, 2, 2])
        assert fit.p_hat == pytest.approx(0.5)
        assert fit.ci95[0] <= 0.5 <= fit.ci95[1]

    def test_recovers_synthetic_p(self):
        rng = np.random.default_rng(4)
        draws = rng.geometric(0.1, size=5000)
        fit = bench.geometric_fit(draws)
        assert fit.p_hat == pytest.approx(0.1, rel=0.1)
        assert fit.ci95[0] < 0.1 < fit.ci95[1]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            bench.geometric_fit([])

    def test_rejects_below_one(self):
        with pytest.raises(ValidationError):
            bench.geometric_fit([0, 2])

    @pytest.mark.parametrize("steps", [[np.nan], [np.inf, 1], [2, -np.inf]],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_steps(self, steps):
        with pytest.raises(ValidationError, match="step counts must be finite"):
            bench.geometric_fit(steps)

    def test_rejects_zero_p_hat(self):
        with pytest.raises(ValidationError, match=r"p_hat must lie in \(0, 1\]"):
            bench.GeometricFit(p_hat=0.0, n_trials=3, ci95=(0.0, 0.1))

    def test_rejects_interval_missing_p_hat(self):
        with pytest.raises(ValidationError, match="interval must contain p_hat"):
            bench.GeometricFit(p_hat=0.5, n_trials=3, ci95=(0.6, 0.9))


class TestResampledPoolSource:
    def test_deterministic(self):
        pool = SamplePool(modes=3, samples=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        a = bench.resampled_pool_source(pool, 10, seed=2)
        b = bench.resampled_pool_source(pool, 10, seed=2)
        assert np.array_equal(a.pool.samples, b.pool.samples)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValidationError):
            bench.resampled_pool_source(SamplePool(modes=2, samples=()), 5, seed=0)


class TestNoiseSweep:
    def test_grid_shape_and_fields(self):
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        rows = bench.noise_sweep(
            g, 3, [1.0, 0.5], [0.0], trials=10, seed=7,
            pool_size=400, classical_budget=50, classical_trials=5,
        )
        assert [(r.eta, r.epsilon) for r in rows] == [(1.0, 0.0), (0.5, 0.0)]
        target = bench._classical_target(Objective("density", g, 3), 50, 5, 7)
        assert [r.target for r in rows] == [target, target]
        for r in rows:
            if not r.no_success:
                assert 0 < r.p_hat <= 1
                assert r.ci95[0] <= r.p_hat <= r.ci95[1]

    def test_full_loss_reports_no_success(self):
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        rows = bench.noise_sweep(
            g, 3, [0.0], [0.0], trials=5, seed=7,
            pool_size=100, classical_budget=20, classical_trials=3,
        )
        assert rows[0].no_success
        # an empty pool runs no trials and fits nothing
        assert (rows[0].trials, rows[0].kept) == (0, 0)
        assert (rows[0].p_hat, rows[0].ci95) == (None, None)

    def test_refuses_too_many_modes_before_the_target(self, monkeypatch):
        # one vertex above gaussian.MAX_TABLE_MODES: refused before any
        # subset is valued, searched or sampled
        def refuse(*args, **kwargs):
            raise AssertionError("ran past the cost guard")

        for name in ("values", "_values", "_mask_values"):
            monkeypatch.setattr(Objective, name, refuse)
        monkeypatch.setattr(bench, "random_search", refuse)
        monkeypatch.setattr(gaussian, "_capped_distributions", refuse)
        monkeypatch.setattr(sampler, "_k_click_masks", refuse)
        g = zero_one_graph(25, 0.5, seed=0)
        with pytest.raises(CostGuardError, match="25 modes"):
            bench.noise_sweep(g, 3, [1.0], [0.0], trials=5, seed=1)

    def test_pools_reuse_the_targets_masks(self):
        # the table's masks are the ones the k-click pools read: built once
        gaussian._slice_masks.cache_clear()
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        bench.noise_sweep(g, 3, [1.0, 0.5], [0.0], trials=10, seed=7, pool_size=400,
                          classical_budget=50, classical_trials=5)
        info = gaussian._slice_masks.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_deterministic(self):
        g = zero_one_graph(8, 0.6, seed=2)
        kw = dict(trials=5, seed=11, pool_size=200,
                  classical_budget=30, classical_trials=3)
        a = bench.noise_sweep(g, 3, [1.0], [0.0], **kw)
        b = bench.noise_sweep(g, 3, [1.0], [0.0], **kw)
        assert a == b

    @staticmethod
    def one_beating_pool(monkeypatch, size):
        """Patch every sweep pool of `planted_clique_graph(8, 3, 0.2, 1)` at
        k 3 to `size` patterns, the first the best 3-subset and the rest the
        worst, so one pattern beats the target and q = 1/size exactly."""
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        obj = Objective(kind="density", graph=g, k=3)
        subsets = np.array([s for s in itertools.combinations(range(8), 3)])
        vals = obj.values(subsets)
        bits = np.zeros((size, 8), dtype=np.uint8)
        bits[0, subsets[vals.argmax()]] = 1
        bits[1:, subsets[vals.argmin()]] = 1
        monkeypatch.setattr(sampler, "_k_click_masks", lambda *args: click_masks(bits))
        return g, obj, SamplePool(modes=8, samples=bits)

    def test_trial_steps_keep_the_per_trial_loop_law(self, monkeypatch):
        # one target-beating pattern in a pool of 40, so q = 1/40 exactly
        g, obj, pool = self.one_beating_pool(monkeypatch, 40)
        seed, trials = 3, 4000
        (row,) = bench.noise_sweep(g, 3, [1.0], [0.0], trials=trials, seed=seed,
                                   classical_budget=20, classical_trials=3)
        assert (row.kept, row.trials) == (40, trials)

        # the loop the geometric draws replace: each trial replays uniform
        # pool indices, 64 at a time, until its first hit
        target = bench._classical_target(obj, 20, 3, seed)
        good = obj.values(pool.subsets(3)) >= target
        assert good.sum() == 1
        steps = []
        for t in range(trials):
            rng, drawn = np.random.default_rng([seed, 2000, t]), 0
            while not (hits := np.flatnonzero(good[rng.integers(40, size=64)])).size:
                drawn += 64
            steps.append(drawn + hits[0] + 1)
        steps = np.array(steps, dtype=float)
        se_mean = steps.std(ddof=1) * np.sqrt(2 / trials)
        assert abs(1 / row.p_hat - steps.mean()) < 5 * se_mean

    def test_p_hat_is_calibrated(self, monkeypatch):
        # q = 1/2000 at the default settings: every one of 200 trials is
        # fitted, so p_hat is unbiased up to 1/mean's O(1/trials) and its
        # CI covers q at about the nominal 95 %
        g, _, _ = self.one_beating_pool(monkeypatch, 2000)
        q, seeds = 1 / 2000, 200
        rows = [bench.noise_sweep(g, 3, [1.0], [0.0], trials=200, seed=s)[0]
                for s in range(seeds)]
        assert all(r.kept == 2000 and not r.no_success for r in rows)
        covered = sum(r.ci95[0] <= q <= r.ci95[1] for r in rows)
        # 0.88 is 0.95 less 4.5 binomial standard deviations (0.0154) of 200 seeds
        assert covered / seeds >= 0.88
        assert abs(np.mean([r.p_hat for r in rows]) / q - 1) < 0.05

    def test_zero_fraction_reports_no_success(self, monkeypatch):
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        obj = Objective(kind="density", graph=g, k=3)
        subsets = np.array([s for s in itertools.combinations(range(8), 3)])
        bits = np.zeros((5, 8), dtype=np.uint8)
        bits[:, subsets[obj.values(subsets).argmin()]] = 1
        monkeypatch.setattr(sampler, "_k_click_masks", lambda *args: click_masks(bits))
        (row,) = bench.noise_sweep(g, 3, [1.0], [0.0], trials=7, seed=3,
                                   classical_budget=20, classical_trials=3)
        assert row.no_success
        assert (row.trials, row.kept, row.p_hat, row.ci95) == (0, 5, None, None)

    def test_grid_of_1001_points_keeps_its_seeds_apart(self, monkeypatch):
        # point gi keys its pool [seed, gi, 2] and simulated run i [seed, i, 1],
        # so no grid size makes two of them meet
        pools, runs = [], []
        search = bench.random_search

        def pool_of(law, size, k, seed):
            pools.append(seed)
            return np.zeros(0, dtype=np.int64)

        def run(*args, seed, **kw):
            runs.append(seed)
            return search(*args, seed=seed, **kw)

        monkeypatch.setattr(gaussian, "_capped_distributions",
                            lambda states, k: itertools.repeat(None))
        monkeypatch.setattr(sampler, "_k_click_masks", pool_of)
        monkeypatch.setattr(bench, "random_search", run)
        # C(16, 8) = 12870 > 1001 * 1 subsets: the runs are simulated
        rows = bench.noise_sweep(planted_clique_graph(16, 6, 0.2, seed=1), 8,
                                 [1.0] * 7, [0.0] * 143, trials=2, seed=3,
                                 classical_budget=1, classical_trials=1001)
        assert len(rows) == len(set(pools)) == len(runs) == 1001
        assert not set(pools) & set(runs)

    def test_one_thermal_state_per_epsilon(self, monkeypatch):
        # each epsilon's thermal state is built once and serves every eta;
        # each point's state keeps the bytes of its own thermal-then-loss build
        thermal, states, laws = [], [], gaussian._capped_distributions

        def counted(state, eps):
            thermal.append(eps)
            return apply_thermal(state, eps)

        def laws_of(grid, k):
            states.extend(grid)
            return laws(grid, k)

        monkeypatch.setattr(gaussian, "apply_thermal", counted)
        monkeypatch.setattr(gaussian, "_capped_distributions", laws_of)
        g = zero_one_graph(8, 0.6, seed=2)
        etas, epss = [1.0, 0.75, 0.5], [0.0, 0.25]
        bench.noise_sweep(g, 3, etas, epss, trials=5, seed=0,
                          classical_budget=20, classical_trials=3)
        assert thermal == epss
        pure = encode_graph(g, choose_scale(g, 3.0)).build_state()
        want = [apply_loss(apply_thermal(pure, p), e) for e in etas for p in epss]
        assert [s.husimi.tobytes() for s in states] == [
            s.husimi.tobytes() for s in want]

    @staticmethod
    def recorded_pools(monkeypatch, modes):
        """Each k-click pool a sweep of a `modes`-vertex graph draws, in order."""
        pools, draw = [], sampler._k_click_masks

        def masks_of(*args):
            masks = draw(*args)
            pools.append(SamplePool(modes=modes, samples=sampler._bits(masks, modes)))
            return masks

        monkeypatch.setattr(sampler, "_k_click_masks", masks_of)
        return pools

    @staticmethod
    def recorded_qs(monkeypatch):
        """The q of each point's geometric step draws, in order: every
        `np.random.default_rng` generator records it and defers the rest."""
        qs, rng = [], np.random.default_rng

        class Recorder:
            def __init__(self, key):
                self.gen = rng(key)

            def geometric(self, q, size):
                qs.append(q)
                return self.gen.geometric(q, size)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        return qs

    @pytest.mark.parametrize("objective", ["density", "maxhaf"])
    @pytest.mark.parametrize("graph", [
        planted_clique_graph(16, 6, 0.2, 1), random_complex_graph(16, 29),
    ], ids=["readme", "complex"])
    def test_table_q_is_the_objective_values_q(self, monkeypatch, graph, objective):
        # C(16, 6) = 8008 <= 40 * 1000: each pool is read from the table
        pools, qs = self.recorded_pools(monkeypatch, 16), self.recorded_qs(monkeypatch)
        rows = bench.noise_sweep(graph, 6, [1.0, 0.75], [0.0, 0.25], trials=50, seed=7,
                                 pool_size=3000, objective=objective, mean_clicks=4.0)
        obj = Objective(objective, graph, 6)
        want = [float(np.mean(obj.values(p.subsets(6)) >= rows[0].target))
                for p in pools]
        assert len(pools) == 4 and min(map(len, pools)) > 0
        assert len(qs) >= 2 and qs == [q for q in want if q > 0]

    def test_table_path_refuses_a_pattern_without_k_clicks(self, monkeypatch):
        bits = np.zeros((3, 8), dtype=np.uint8)
        bits[:, :3] = 1
        bits[1, 5] = 1
        pool = SamplePool(modes=8, samples=bits)
        with pytest.raises(ValidationError) as refused:
            pool.subsets(3)
        monkeypatch.setattr(sampler, "_k_click_masks", lambda *args: click_masks(bits))
        # C(8, 3) = 56 <= 3 * 20: the table path
        with pytest.raises(ValidationError) as swept:
            bench.noise_sweep(planted_clique_graph(8, 3, 0.2, seed=1), 3, [1.0], [0.0],
                              trials=5, seed=1, classical_budget=20, classical_trials=3)
        assert str(swept.value) == str(refused.value) == (
            "pool pattern 1 has 4 clicks, expected 3")

    # C(8, 3) = 56: at most 3 * 20 = 60 the table, above 3 * 18 = 54 none
    @pytest.mark.parametrize("classical_budget, table", [(20, True), (18, False)])
    def test_every_pool_is_valued_through_mask_values(self, monkeypatch,
                                                      classical_budget, table):
        pools, valued = self.recorded_pools(monkeypatch, 8), []
        mask_values = Objective._mask_values

        def recorded(self, masks):
            valued.append(masks.tolist())
            return mask_values(self, masks)

        def refused(self, subsets):
            raise AssertionError("a sweep valued rows through the subset rule")

        monkeypatch.setattr(Objective, "_mask_values", recorded)
        monkeypatch.setattr(Objective, "values", refused)
        bench.noise_sweep(planted_clique_graph(8, 3, 0.2, seed=1), 3, [1.0, 0.5], [0.0],
                          trials=10, seed=7, pool_size=400,
                          classical_budget=classical_budget, classical_trials=3)
        assert len(pools) == 2 and min(map(len, pools)) > 0
        # the table's call, if any, then one call for each pool, in order
        assert len(valued) == 2 + table
        assert valued[table:] == [click_masks(p.samples).tolist() for p in pools]

    # C(8, 3) = 56 against 3 * 20 = 60 and 3 * 18 = 54, C(8, 4) = 70 against
    # 3 * 24 = 72 and 3 * 23 = 69: each objective on both sides of the table
    @pytest.mark.parametrize("objective, k, classical_budget", [
        ("density", 3, 20), ("density", 3, 18), ("maxhaf", 4, 24), ("maxhaf", 4, 23),
    ], ids=["density-table", "density-runs", "maxhaf-table", "maxhaf-runs"])
    def test_sweep_rows_skip_the_subset_rule(self, monkeypatch, objective, k,
                                             classical_budget):
        # every row a sweep values is decoded from a mask or drawn uniformly,
        # so its rows are those of a sweep whose subset rule refuses all
        def sweep():
            return bench.noise_sweep(
                random_complex_graph(8, seed=3), k, [1.0, 0.5], [0.0, 0.25],
                trials=10, seed=7, pool_size=400, classical_budget=classical_budget,
                classical_trials=3, objective=objective)

        def refused(self, subsets):
            raise AssertionError("the subset rule ran")

        want = sweep()
        assert all(r.kept > 0 for r in want) and not all(r.no_success for r in want)
        monkeypatch.setattr(Graph, "checked_subsets", refused)
        assert sweep() == want

    def test_one_takagi_factorization_per_study(self, monkeypatch):
        calls, takagi = [], encoding.takagi

        def counting(a):
            calls.append(1)
            return takagi(a)

        monkeypatch.setattr(encoding, "takagi", counting)
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        bench.noise_sweep(g, 3, [1.0, 0.5], [0.0, 0.5], trials=5, seed=7, pool_size=200,
                          classical_budget=20, classical_trials=3)
        assert len(calls) == 1
        bench.advantage_study(zero_one_graph(8, 0.6, seed=2), [2, 4], steps=5, trials=2,
                              seed=3, pool_size=200)
        assert len(calls) == 2

    def test_rejects_bad_grid(self):
        g = zero_one_graph(8, 0.6, seed=2)
        # a bool is an int, so only its type tells it from 1 or 0
        for etas, epss in [([1.5], [0.0]), (["a"], [0.0]), ([1.0], [None]),
                           ([True], [0.0]), ([1.0], [False])]:
            with pytest.raises(ValidationError, match="must hold real numbers within"):
                bench.noise_sweep(g, 3, etas, epss, trials=5, seed=0)


class TestClassicalTarget:
    """The noise sweep's classical target: the expected best of a uniform
    random search run, exact over every k-subset when C(n, k) <= trials *
    budget, the mean best of simulated runs above that size."""

    @staticmethod
    def exact_mean(law):
        """Mean of a {value: P(best <= value)} law, as a fraction."""
        below, mean = Fraction(0), Fraction(0)
        for v in sorted(law):
            mean += Fraction(v) * (law[v] - below)
            below = law[v]
        return mean

    @staticmethod
    def sorted_table(obj):
        n, k = obj.graph.n, obj.k
        return np.sort(obj.values(np.array(list(itertools.combinations(range(n), k)))))

    @pytest.mark.parametrize("kind, graph", [
        ("density", zero_one_graph(5, 0.6, seed=2)),  # tied values
        ("density", random_complex_graph(5, seed=3)),
        ("maxhaf", random_complex_graph(5, seed=4)),
    ])
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_table_target_is_the_sequence_law_mean(self, kind, graph, budget):
        obj = Objective(kind=kind, graph=graph, k=2)
        # C(5, 2) = 10 <= 10 * budget: the table path, whatever the seed
        (got,) = {bench._classical_target(obj, budget, 10, seed=s) for s in range(5)}
        want = self.exact_mean(uniform_best_law(obj, budget))
        # the quotients, pow, products and the sum each round
        assert abs(Fraction(got) - want) <= Fraction(4, 1 << 53) * want

    def test_readme_graph_target_is_the_exact_expectation(self):
        g = planted_clique_graph(16, 6, 0.2, 1)  # the README graph
        obj = Objective(kind="density", graph=g, k=6)
        budget, table = 1000, self.sorted_table(obj)
        values, counts = np.unique(table, return_counts=True)
        law = {v: Fraction(int(c), len(table)) ** budget
               for v, c in zip(values.tolist(), np.cumsum(counts))}
        got = bench._classical_target(obj, budget, 40, seed=42)
        want = self.exact_mean(law)
        # pow's rounding of F(v) is raised to the 1000th power
        assert abs(Fraction(got) - want) <= Fraction(budget, 1 << 52) * want
        assert math.isclose(got, 24.452102, rel_tol=1e-7)
        # only the clique's 30-valued subsets beat it
        assert set(table[table >= got].tolist()) == {30.0}

    @staticmethod
    def table_calls(monkeypatch):
        """The (rows, values) of every call of `Objective._values`, the
        unchecked core of `values` that values a table's decoded rows, in
        order."""
        calls, values = [], Objective._values

        def recorded(self, rows, ordered):
            out = values(self, rows, ordered)
            calls.append((rows.copy(), out))
            return out

        monkeypatch.setattr(Objective, "_values", recorded)
        return calls

    # one row a call, several calls a table, one call a table; complex
    # weights, so the rows go through `Objective._values`
    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    def test_table_rows_hold_every_subset_once(self, monkeypatch, chunk):
        monkeypatch.setattr(solvers, "_CHUNK", chunk)
        calls = self.table_calls(monkeypatch)
        for n in range(2, 12):
            g = random_complex_graph(n, seed=n)
            for k in range(1, n):
                calls.clear()
                size = math.comb(n, k)
                bench._classical_target(Objective("density", g, k), size, 1, seed=0)
                assert all(len(rows) == chunk for rows, _ in calls[:-1])
                assert 0 < len(calls[-1][0]) <= chunk
                rows = np.concatenate([rows for rows, _ in calls])
                assert rows.dtype == np.intp and rows.shape == (size, k)
                assert np.all(np.diff(rows, axis=1) > 0)
                want = itertools.combinations(range(n), k)
                assert sorted(map(tuple, rows.tolist())) == list(want)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_table_is_the_combinations_table_bytes(self, monkeypatch, kind):
        monkeypatch.setattr(solvers, "_CHUNK", 37)
        calls = self.table_calls(monkeypatch)
        obj = Objective(kind, random_complex_graph(10, seed=6), 4)
        bench._classical_target(obj, math.comb(10, 4), 1, seed=0)
        table = np.sort(np.concatenate([vals for _, vals in calls]))
        assert table.tobytes() == self.sorted_table(obj).tobytes()

    @staticmethod
    def mask_rows(masks, n):
        """The vertices of each mask, ascending, as an (N, k) array."""
        return np.array([[i for i in range(n) if mask >> i & 1] for mask in masks.tolist()])

    @staticmethod
    def target_table(monkeypatch, obj):
        """The (masks, values) of the one `Objective._mask_values` call of
        the exact target at C(n, k) = budget, one trial."""
        calls, mask_values = [], Objective._mask_values

        def recorded(self, masks):
            out = mask_values(self, masks)
            calls.append((masks, out))
            return out

        with monkeypatch.context() as patched:
            patched.setattr(Objective, "_mask_values", recorded)
            bench._classical_target(obj, math.comb(obj.graph.n, obj.k), 1, seed=0)
        (table,) = calls
        return table

    @staticmethod
    def signed_integer_graph(n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-40, 41, (n, n)) + 1j * rng.integers(-40, 41, (n, n))
        return Graph(n=n, adjacency=a + a.T)

    @pytest.mark.parametrize("graph", [
        zero_one_graph(12, 0.5, seed=3),
        planted_clique_graph(16, 6, 0.2, 1),
        signed_integer_graph(11, seed=5),
    ], ids=["zero-one", "planted-clique", "signed-integer"])
    def test_integer_density_table_is_one_product_with_values_bits(self, monkeypatch,
                                                                   graph):
        calls, n = self.table_calls(monkeypatch), graph.n
        for k in sorted({1, 2, 5, n // 2, n - 1}):
            obj = Objective("density", graph, k)
            masks, table = self.target_table(monkeypatch, obj)
            assert not calls  # no row went through `_values`
            want = obj.values(self.mask_rows(masks, n))
            calls.clear()
            assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, graph", [
        ("density", random_complex_graph(10, seed=6)),
        ("density", Graph(n=10, adjacency=0.5 * zero_one_graph(10, 0.5, seed=3).adjacency)),
        ("maxhaf", planted_clique_graph(10, 4, 0.2, seed=1)),
    ], ids=["complex", "half-integer", "maxhaf"])
    def test_other_tables_are_valued_row_by_row(self, monkeypatch, kind, graph):
        calls = self.table_calls(monkeypatch)
        masks, table = self.target_table(monkeypatch, Objective(kind, graph, 4))
        assert len(calls) == 1 and calls[0][1].tobytes() == table.tobytes()
        assert calls[0][0].tolist() == self.mask_rows(masks, 10).tolist()

    @pytest.mark.parametrize("kind, graph", [
        ("maxhaf", planted_clique_graph(10, 4, 0.2, seed=1)),
        ("density", random_complex_graph(10, seed=6)),
    ], ids=["maxhaf", "complex-density"])
    def test_table_rows_skip_the_subset_rule(self, monkeypatch, kind, graph):
        # a table's decoded rows are ascending and distinct by construction
        def refused(self, subsets):
            raise AssertionError("the subset rule ran")

        masks = gaussian._slice_masks(10, 4)
        masks = masks[np.bitwise_count(masks) == 4]
        with monkeypatch.context() as patched:
            patched.setattr(Graph, "checked_subsets", refused)
            table = Objective(kind, graph, 4)._mask_values(masks)
        want = Objective(kind, graph, 4).values(self.mask_rows(masks, 10))
        assert table.tobytes() == want.tobytes()

    @staticmethod
    def past_two_to_the_53_graph():
        # entries 2^50: k^2 2^50 is below 2^53 at k = 2, not at k = 3
        a = 2.0**50 * zero_one_graph(8, 0.6, seed=2).adjacency
        return Graph(n=8, adjacency=a - 1j * a)

    def test_sums_past_two_to_the_53_are_valued_row_by_row(self, monkeypatch):
        calls = self.table_calls(monkeypatch)
        g = self.past_two_to_the_53_graph()
        for k, rows in [(2, False), (3, True)]:
            calls.clear()
            obj = Objective("density", g, k)
            masks, table = self.target_table(monkeypatch, obj)
            assert bool(calls) == rows
            assert table.tobytes() == obj.values(self.mask_rows(masks, 8)).tobytes()

    @staticmethod
    def drawn_masks(n, k, size, seed):
        """`size` masks of k of n bits in draw order, uniform with replacement."""
        masks = [sum(1 << i for i in s) for s in itertools.combinations(range(n), k)]
        return np.random.default_rng(seed).choice(np.array(masks), size)

    # product: whether the masks are valued as one exact product, no row decoded
    @pytest.mark.parametrize("kind, graph, k, product", [
        ("density", zero_one_graph(12, 0.5, seed=3), 5, True),
        ("density", signed_integer_graph(11, seed=5), 4, True),
        ("density", Graph(n=10, adjacency=0.5 * zero_one_graph(10, 0.5, seed=3).adjacency),
         4, False),
        ("density", random_complex_graph(10, seed=6), 4, False),
        ("maxhaf", planted_clique_graph(10, 4, 0.2, seed=1), 4, False),
        ("density", past_two_to_the_53_graph(), 2, True),
        ("density", past_two_to_the_53_graph(), 3, False),
    ], ids=["zero-one", "signed-integer", "half-integer", "complex", "maxhaf",
            "below-2^53", "past-2^53"])
    @pytest.mark.parametrize("size", [0, 2500])
    def test_pool_masks_are_values_bits(self, monkeypatch, kind, graph, k, product,
                                        size):
        # a pool's masks: in draw order, with repeats, across chunks, or none
        masks = self.drawn_masks(graph.n, k, size, seed=size + k)
        assert size == 0 or len(np.unique(masks)) < size
        rows = self.mask_rows(masks, graph.n).reshape(size, k)
        want = Objective(kind, graph, k).values(rows)
        calls = self.table_calls(monkeypatch)
        got = Objective(kind, graph, k)._mask_values(masks)
        assert got.dtype == float and got.tobytes() == want.tobytes()
        assert sum(len(decoded) for decoded, _ in calls) == (0 if product else size)

    @pytest.mark.parametrize("trials, budget, runs, tables", [
        (7, 8, 0, 1),   # C(8, 3) = 56 = trials * budget: the drawn table
        (5, 11, 5, 0),  # 55, one below: the simulated runs
    ])
    def test_table_iff_it_costs_no_more_valuations(self, monkeypatch, trials, budget,
                                                   runs, tables):
        calls = {"runs": 0, "tables": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        for name, module, attr in [("runs", bench, "random_search"),
                                   ("tables", Objective, "_mask_values")]:
            monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        obj = Objective(kind="density", graph=g, k=3)
        bench._classical_target(obj, budget, trials, seed=4)
        assert calls == {"runs": runs, "tables": tables}

    def test_simulated_run_seeds_are_no_pool_seeds(self, monkeypatch):
        # numpy pads keys with zeros, so run i keyed [seed, i] would share
        # a stream keyed [seed, i, 0]; it is keyed [seed, i, 1] instead
        pools, runs = [], []
        search = bench.random_search

        def pool_of(law, size, k, seed):
            pools.append(seed)
            return np.full(3, (1 << k) - 1)

        def run(*args, seed, **kw):
            runs.append(seed)
            return search(*args, seed=seed, **kw)

        monkeypatch.setattr(sampler, "_k_click_masks", pool_of)
        monkeypatch.setattr(bench, "random_search", run)
        # C(16, 8) = 12870 > 1004 * 1 subsets: the runs are simulated
        bench.noise_sweep(planted_clique_graph(16, 6, 0.2, seed=1), 8, [1.0, 0.5],
                          [0.0, 0.25], trials=2, seed=3,
                          classical_budget=1, classical_trials=1004)
        assert len(pools) == 4 and len(runs) == 1004
        assert not set(pools) & set(runs)


class TestAdvantageStudy:
    def test_rejects_pool_without_k_clicks(self):
        g = zero_one_graph(4, 0.6, seed=2)
        pool = SamplePool(modes=4, samples=((1, 1, 1, 0), (0, 0, 0, 0)))
        with pytest.raises(ValidationError,
                           match="no pool samples left after post-selecting to 2 clicks"):
            bench.advantage_study(g, [2], steps=5, trials=1, seed=0, pool=pool)

    def test_rejects_non_integer_k(self):
        g = zero_one_graph(8, 0.6, seed=2)
        with pytest.raises(ValidationError, match="k must be an integer"):
            bench.advantage_study(g, [2, "4"], steps=5, trials=1, seed=0,
                                  pool_size=50)

    def test_numpy_integer_k_is_an_int(self, tmp_path):
        g = zero_one_graph(8, 0.6, seed=2)
        kw = dict(steps=5, trials=2, seed=0, pool_size=50)
        reports = bench.advantage_study(g, [np.int64(2)], **kw)
        assert reports == bench.advantage_study(g, [2], **kw)
        assert type(reports[0].photon_click_k) is int
        json_path = tmp_path / "advantage.json"
        files.save_advantage_report(reports, tmp_path / "advantage.csv", json_path)
        assert json.loads(json_path.read_text())["reports"][0]["photon_click_k"] == 2

    def test_pool_seed_is_no_trial_seed(self, monkeypatch):
        # numpy pads seed keys with zeros, so a pool keyed [seed, ki] would
        # share trial 0's stream [seed, ki, 0]
        pools, trials = [], []
        resampled = bench.resampled_pool_source

        def pool_of(state, size, k, seed):
            pools.append(seed)
            bits = np.zeros((3, 8), dtype=np.uint8)
            bits[:, :k] = 1
            return SamplePool(modes=8, samples=bits)

        def source(pool, steps, seed):
            trials.append(seed)
            return resampled(pool, steps, seed)

        monkeypatch.setattr(sampler, "sample_k_clicks", pool_of)
        monkeypatch.setattr(bench, "resampled_pool_source", source)
        g = random_complex_graph(8, seed=2)
        for seed in (0, 5, 42):
            bench.advantage_study(g, [2, 3, 2, 3], steps=2, trials=3, seed=seed)
        assert len(pools) == 12 and len(trials) == 36
        assert not set(pools) & set(trials)


@pytest.mark.parametrize("study, k", [
    ("advantage_study", [2, True]),
    ("advantage_study", [2, 4.0]),
    ("noise_sweep", True),
    ("noise_sweep", 3.0),
])
def test_studies_refuse_a_non_integer_k_before_any_pool(monkeypatch, study, k):
    def no_pool(*args, **kw):
        raise AssertionError("a pool was drawn before k was checked")

    monkeypatch.setattr(sampler, "sample_k_clicks", no_pool)
    monkeypatch.setattr(gaussian, "_capped_distributions", no_pool)
    monkeypatch.setattr(sampler, "_k_click_masks", no_pool)
    g = planted_clique_graph(8, 3, 0.2, seed=1)
    kw = (dict(k_values=k, steps=5, trials=2) if study == "advantage_study" else
          dict(k=k, eta_grid=[1.0], epsilon_grid=[0.0], trials=5,
               classical_budget=20, classical_trials=3))
    with pytest.raises(ValidationError, match="k must be an integer"):
        getattr(bench, study)(g, seed=0, **kw)


def forbid_study_work(monkeypatch):
    """Make every step a study takes after its up-front checks fail."""
    def no_work(*args, **kw):
        raise AssertionError("the study ran before checking its grid")

    for module, name in [(sampler, "sample_k_clicks"), (sampler, "_k_click_masks"),
                         (gaussian, "_capped_distributions"), (gaussian, "_slice_masks"),
                         (gaussian, "apply_thermal"), (gaussian, "apply_loss"),
                         (bench, "choose_scale"), (bench, "random_search")]:
        monkeypatch.setattr(module, name, no_work)
    for name in ("values", "_values", "_mask_values"):
        monkeypatch.setattr(Objective, name, no_work)


@pytest.mark.parametrize("study, kwargs, message", [
    ("noise_sweep", dict(eta_grid=[]), "noise grids"),
    ("noise_sweep", dict(epsilon_grid=[]), "noise grids"),
    ("noise_sweep", dict(eta_grid=[], epsilon_grid=[]), "noise grids"),
    ("advantage_study", dict(k_values=[]), "k_values"),
], ids=["eta_grid", "epsilon_grid", "both", "k_values"])
def test_studies_refuse_an_empty_grid_before_any_work(monkeypatch, study, kwargs,
                                                      message):
    forbid_study_work(monkeypatch)
    g = planted_clique_graph(8, 3, 0.2, seed=1)
    base = {
        "noise_sweep": dict(graph=g, k=3, eta_grid=[1.0], epsilon_grid=[0.0],
                            trials=5, seed=7, pool_size=100,
                            classical_budget=20, classical_trials=3),
        "advantage_study": dict(graph=g, k_values=[2], steps=5, trials=2, seed=0,
                                pool_size=50),
    }[study]
    with pytest.raises(ValidationError, match=message):
        getattr(bench, study)(**dict(base, **kwargs))


# the noise-level rule of `apply_loss` and `apply_thermal`, on every grid value
@pytest.mark.parametrize("level", [True, "0.1", [0.1], np.nan, -0.1, 1.5], ids=repr)
@pytest.mark.parametrize("grid", ["eta_grid", "epsilon_grid"])
def test_noise_sweep_refuses_a_bad_level_before_any_work(monkeypatch, grid, level):
    forbid_study_work(monkeypatch)
    grids = {"eta_grid": [1.0], "epsilon_grid": [0.0], grid: [0.5, level]}
    with pytest.raises(ValidationError, match="noise grids"):
        bench.noise_sweep(planted_clique_graph(8, 3, 0.2, seed=1), 3, trials=5,
                          seed=7, pool_size=100, classical_budget=20,
                          classical_trials=3, **grids)


@pytest.mark.parametrize("study, kwargs", [
    ("noise_sweep", dict(classical_trials=0)),
    ("noise_sweep", dict(classical_budget=0)),
    ("noise_sweep", dict(trials=0)),
    ("noise_sweep", dict(pool_size=0)),
    ("correlation_study", dict(mode_count=0)),
    ("advantage_study", dict(steps=0)),
    ("advantage_study", dict(trials=0)),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_studies_refuse_degenerate_sizes_before_any_work(monkeypatch, study, kwargs):
    def no_work(*args, **kw):
        raise AssertionError("the study ran before checking its sizes")

    monkeypatch.setattr(sampler, "sample", no_work)
    monkeypatch.setattr(sampler, "sample_k_clicks", no_work)
    monkeypatch.setattr(gaussian, "_capped_distributions", no_work)
    monkeypatch.setattr(sampler, "_k_click_masks", no_work)
    monkeypatch.setattr(bench, "random_search", no_work)
    monkeypatch.setattr(bench, "torontonian", no_work)
    # the noise-sweep base case values every subset for its target
    monkeypatch.setattr(gaussian, "_slice_masks", no_work)
    for name in ("values", "_values", "_mask_values"):
        monkeypatch.setattr(Objective, name, no_work)
    g = planted_clique_graph(8, 3, 0.2, seed=1)
    base = {
        "noise_sweep": dict(graph=g, k=3, eta_grid=[1.0], epsilon_grid=[0.0],
                            trials=5, seed=7, pool_size=100,
                            classical_budget=20, classical_trials=3),
        "correlation_study": dict(n_matrices=3, seed=1),
        "advantage_study": dict(graph=g, k_values=[2], steps=5, trials=2, seed=0,
                                pool_size=50),
    }[study]
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        getattr(bench, study)(**dict(base, **kwargs))
