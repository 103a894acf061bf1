import numpy as np
import pytest

from gbskit import bench
from gbskit.errors import ValidationError
from gbskit.generators import planted_clique_graph, zero_one_graph
from gbskit.sampler import SamplePool
from gbskit.solvers import RunTrace

from oracles import rank_pair_spearman


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

    def test_positive_correlation(self):
        table = bench.correlation_study(200, seed=3)
        assert table.spearman_tor_haf > 0
        assert table.spearman_tor_density > 0

    def test_rejects_too_few(self):
        with pytest.raises(ValidationError):
            bench.correlation_study(1, seed=0)


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
            pool_size=400, budget=200, classical_budget=50, classical_trials=5,
        )
        assert [(r.eta, r.epsilon) for r in rows] == [(1.0, 0.0), (0.5, 0.0)]
        for r in rows:
            if not r.no_success:
                assert 0 < r.p_hat <= 1
                assert r.ci95[0] <= r.p_hat <= r.ci95[1]

    def test_full_loss_reports_no_success(self):
        g = planted_clique_graph(8, 3, 0.2, seed=1)
        rows = bench.noise_sweep(
            g, 3, [0.0], [0.0], trials=5, seed=7,
            pool_size=100, budget=50, classical_budget=20, classical_trials=3,
        )
        assert rows[0].no_success

    def test_deterministic(self):
        g = zero_one_graph(8, 0.6, seed=2)
        kw = dict(trials=5, seed=11, pool_size=200, budget=100,
                  classical_budget=30, classical_trials=3)
        a = bench.noise_sweep(g, 3, [1.0], [0.0], **kw)
        b = bench.noise_sweep(g, 3, [1.0], [0.0], **kw)
        assert a == b

    def test_rejects_bad_grid(self):
        g = zero_one_graph(8, 0.6, seed=2)
        with pytest.raises(ValidationError):
            bench.noise_sweep(g, 3, [1.5], [0.0], trials=5, seed=0)
