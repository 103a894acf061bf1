from itertools import combinations

import numpy as np
import pytest

from gbskit import matfn, solvers
from gbskit.bench import resampled_pool_source
from gbskit.encoding import Graph
from gbskit.errors import ValidationError
from gbskit.generators import planted_clique_graph, random_complex_graph, zero_one_graph
from gbskit.matfn import hafnian_sq_mod, hafnians
from gbskit.sampler import SamplePool
from gbskit.solvers import (
    Objective,
    ProposalSource,
    RunTrace,
    density,
    greedy_peel,
    random_search,
    simulated_annealing,
)

from oracles import (
    rank_two_graph,
    stepwise_random_search,
    stepwise_simulated_annealing,
)


def complete_graph(n):
    return Graph(n=n, adjacency=1.0 - np.eye(n))


def pool_from_subsets(n, subsets):
    patterns = tuple(
        tuple(1 if i in s else 0 for i in range(n)) for s in subsets
    )
    return SamplePool(modes=n, samples=patterns)


class TestDensity:
    def test_complete_graph(self):
        g = complete_graph(8)
        for k in [2, 4, 6]:
            assert density(g, range(k)) == pytest.approx(k * (k - 1))

    def test_empty_subgraph(self):
        g = Graph(n=4, adjacency=np.zeros((4, 4)))
        assert density(g, [0, 2]) == 0.0

    def test_matches_direct_sum(self):
        g = random_complex_graph(9, seed=3)
        subset = [0, 2, 4, 6, 8]
        direct = abs(sum(
            g.adjacency[i, j] for i in subset for j in subset
        ))
        assert density(g, subset) == pytest.approx(direct, rel=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            density(complete_graph(4), [1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            density(complete_graph(4), [0, 5])


class TestObjective:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            Objective(kind="cut", graph=complete_graph(4), k=2)

    def test_rejects_odd_k_for_maxhaf(self):
        with pytest.raises(ValidationError):
            Objective(kind="maxhaf", graph=complete_graph(6), k=3)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValidationError):
            Objective(kind="density", graph=complete_graph(4), k=4)

    def test_maxhaf_value(self):
        obj = Objective(kind="maxhaf", graph=complete_graph(6), k=4)
        assert obj.value([0, 1, 2, 3]) == pytest.approx(9.0)

    def test_cache_reuse(self):
        obj = Objective(kind="maxhaf", graph=complete_graph(6), k=4)
        obj.value([3, 2, 1, 0])
        assert tuple(sorted([0, 1, 2, 3])) in obj._haf_cache


class TestProposalSource:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ProposalSource(kind="greedy")

    def test_rejects_empty_pool(self):
        with pytest.raises(ValidationError):
            ProposalSource(kind="pool", pool=SamplePool(modes=3, samples=()))


class TestRunTrace:
    def test_value_at_bounds(self):
        tr = RunTrace(best_values=np.array([1.0, 2.0]), best_subset=(0, 1),
                      steps_used=2, seed=0)
        assert tr.value_at(1) == 1.0
        with pytest.raises(ValidationError):
            tr.value_at(3)

    def test_steps_to_reach(self):
        tr = RunTrace(best_values=np.array([1.0, 1.0, 3.0]), best_subset=(0, 1),
                      steps_used=3, seed=0)
        assert tr.steps_to_reach(2.5) == 3
        assert tr.steps_to_reach(0.5) == 1
        assert tr.steps_to_reach(4.0) is None


class TestRandomSearch:
    def test_single_step(self):
        g = random_complex_graph(8, seed=1)
        obj = Objective(kind="density", graph=g, k=3)
        tr = random_search(obj, ProposalSource(kind="uniform"), 1, seed=5)
        assert tr.value_at(1) == pytest.approx(density(g, tr.best_subset))

    def test_pool_with_planted_optimum(self):
        g = planted_clique_graph(10, 4, 0.1, seed=0)
        obj = Objective(kind="density", graph=g, k=4)
        src = ProposalSource(kind="pool", pool=pool_from_subsets(10, [{0, 1, 2, 3}]))
        tr = random_search(obj, src, 5, seed=0)
        assert tr.value_at(1) == pytest.approx(12.0)
        assert tr.pool_wrapped

    def test_trace_monotone(self):
        g = random_complex_graph(10, seed=4)
        obj = Objective(kind="density", graph=g, k=4)
        tr = random_search(obj, ProposalSource(kind="uniform"), 200, seed=2)
        assert np.all(np.diff(tr.best_values) >= 0)

    def test_seed_determinism(self):
        g = random_complex_graph(10, seed=4)
        obj = Objective(kind="density", graph=g, k=4)
        a = random_search(obj, ProposalSource(kind="uniform"), 100, seed=7)
        b = random_search(obj, ProposalSource(kind="uniform"), 100, seed=7)
        assert np.array_equal(a.best_values, b.best_values)
        assert a.best_subset == b.best_subset

    def test_finds_exhaustive_optimum(self):
        g = random_complex_graph(10, seed=8)
        obj = Objective(kind="density", graph=g, k=3)
        opt = max(obj.value(s) for s in combinations(range(10), 3))
        tr = random_search(obj, ProposalSource(kind="uniform"), 3000, seed=1)
        assert tr.value_at(3000) == pytest.approx(opt)

    def test_rejects_pool_with_wrong_click_count(self):
        g = complete_graph(6)
        obj = Objective(kind="density", graph=g, k=3)
        src = ProposalSource(kind="pool", pool=pool_from_subsets(6, [{0, 1}]))
        with pytest.raises(ValidationError):
            random_search(obj, src, 10, seed=0)

    def test_rejects_pool_pattern_that_is_not_zero_one(self):
        with pytest.raises(ValidationError, match="pattern 1 is not a 0/1"):
            SamplePool(modes=4, samples=((1, 1, 0, 0), (2, 0, 0, 0)))

    def test_rejects_pool_mode_mismatch(self):
        g = complete_graph(6)
        obj = Objective(kind="density", graph=g, k=3)
        src = ProposalSource(kind="pool", pool=pool_from_subsets(5, [{0, 1, 2}]))
        with pytest.raises(ValidationError):
            random_search(obj, src, 10, seed=0)

    def test_rejects_zero_steps(self):
        obj = Objective(kind="density", graph=complete_graph(4), k=2)
        with pytest.raises(ValidationError):
            random_search(obj, ProposalSource(kind="uniform"), 0, seed=0)


class TestSimulatedAnnealing:
    def test_schedule_validation(self):
        obj = Objective(kind="density", graph=complete_graph(4), k=2)
        src = ProposalSource(kind="uniform")
        with pytest.raises(ValidationError, match="steps must be >= 1"):
            simulated_annealing(obj, src, 0)
        for t0 in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="initial temperature must be positive"):
                simulated_annealing(obj, src, 10, t0=t0)
        with pytest.raises(ValidationError):
            simulated_annealing(obj, src, 10, alpha=1.0)
        with pytest.raises(ValidationError):
            simulated_annealing(obj, src, 10, jump_prob=1.0)

    def test_hill_climbing_limit(self):
        # near-zero temperature accepts only improvements
        g = planted_clique_graph(8, 3, 0.0, seed=0)
        obj = Objective(kind="density", graph=g, k=3)
        tr = simulated_annealing(
            obj, ProposalSource(kind="uniform"), 500, t0=1e-9, alpha=0.9, seed=4
        )
        assert np.all(np.diff(tr.best_values) >= 0)
        assert tr.value_at(500) == pytest.approx(6.0)

    def test_pool_initialization(self):
        g = planted_clique_graph(10, 4, 0.0, seed=0)
        obj = Objective(kind="density", graph=g, k=4)
        src = ProposalSource(kind="pool", pool=pool_from_subsets(10, [{0, 1, 2, 3}]))
        tr = simulated_annealing(obj, src, 10, jump_prob=0.0, seed=0)
        assert tr.value_at(1) >= 12.0 or tr.best_values[-1] >= 12.0

    def test_finds_planted_clique(self):
        g = planted_clique_graph(12, 6, 0.1, seed=2)
        obj = Objective(kind="density", graph=g, k=6)
        found = sum(
            simulated_annealing(
                obj, ProposalSource(kind="uniform"), 5000, seed=s
            ).value_at(5000) >= 30.0
            for s in range(10)
        )
        assert found >= 9

    def test_seed_determinism(self):
        g = random_complex_graph(10, seed=4)
        obj = Objective(kind="density", graph=g, k=4)
        a = simulated_annealing(obj, ProposalSource(kind="uniform"), 100, seed=3)
        b = simulated_annealing(obj, ProposalSource(kind="uniform"), 100, seed=3)
        assert np.array_equal(a.best_values, b.best_values)


class TestGreedyPeel:
    def test_complete_graph_tie_rule(self):
        # equal degrees everywhere: the lowest index is peeled each round
        assert greedy_peel(complete_graph(6), 3) == (3, 4, 5)

    def test_star_graph_keeps_center(self):
        a = np.zeros((6, 6))
        a[0, 1:] = a[1:, 0] = 1.0
        g = Graph(n=6, adjacency=a)
        subset = greedy_peel(g, 2)
        assert 0 in subset
        assert density(g, subset) == pytest.approx(2.0)

    def test_recovers_planted_clique(self):
        g = planted_clique_graph(16, 6, 0.1, seed=1)
        assert greedy_peel(g, 6) == (0, 1, 2, 3, 4, 5)

    def test_deterministic(self):
        g = zero_one_graph(12, 0.5, seed=5)
        assert greedy_peel(g, 5) == greedy_peel(g, 5)

    def test_rejects_complex_weights(self):
        g = random_complex_graph(6, seed=0)
        with pytest.raises(ValidationError):
            greedy_peel(g, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            greedy_peel(complete_graph(4), 4)

    @pytest.mark.parametrize("k, kind", [(2.5, "float"), (2.0, "float"), (True, "bool")])
    def test_rejects_a_non_integer_k(self, k, kind):
        with pytest.raises(ValidationError,
                           match=f"subgraph size k must be an integer, not {kind}"):
            greedy_peel(planted_clique_graph(8, 3, 0.2, seed=1), k)


def stepwise_sources(n, k, seed):
    """Uniform, a pool, a 7-pattern pool (wraps) and a resampled pool."""
    rng = np.random.default_rng(seed)
    subsets = [set(rng.choice(n, size=k, replace=False).tolist()) for _ in range(60)]
    pool = pool_from_subsets(n, subsets)
    return {
        "uniform": ProposalSource(kind="uniform"),
        "pool": ProposalSource(kind="pool", pool=pool),
        "short-pool": ProposalSource(
            kind="pool", pool=pool_from_subsets(n, subsets[:7])
        ),
        "resampled": resampled_pool_source(pool, 400, seed + 1),
    }


SEARCH_GRAPHS = {
    "complex": (random_complex_graph(10, seed=4), 4),
    # 0/1 weights: many proposals tie on the best value
    "zero-one": (zero_one_graph(12, 0.5, seed=6), 4),
    # a nonzero complex diagonal, which density counts
    "rank-two": (rank_two_graph(10, seed=7), 4),
}


def assert_same_trace(trace, reference):
    values, subset, wrapped = reference
    assert trace.best_values.tobytes() == values.tobytes()
    assert trace.best_subset == subset
    assert all(type(v) is int for v in trace.best_subset)
    assert trace.pool_wrapped == wrapped


class TestMatchesStepwiseLoops:
    @pytest.mark.parametrize("graph", sorted(SEARCH_GRAPHS))
    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    @pytest.mark.parametrize("source", ["uniform", "pool", "short-pool", "resampled"])
    def test_random_search(self, graph, kind, source):
        g, k = SEARCH_GRAPHS[graph]
        src = stepwise_sources(g.n, k, 3)[source]
        for steps, seed in [(1, 0), (37, 1), (400, 2)]:
            tr = random_search(Objective(kind, g, k), src, steps, seed)
            ref = stepwise_random_search(Objective(kind, g, k), src, steps, seed)
            assert_same_trace(tr, ref)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_random_search_across_chunks(self, kind, monkeypatch):
        g, k = SEARCH_GRAPHS["zero-one"]
        src = stepwise_sources(g.n, k, 5)["pool"]
        monkeypatch.setattr(solvers, "_CHUNK", 16)
        for source in (src, ProposalSource(kind="uniform")):
            tr = random_search(Objective(kind, g, k), source, 250, seed=9)
            ref = stepwise_random_search(Objective(kind, g, k), source, 250, 9)
            assert_same_trace(tr, ref)

    def test_random_search_longer_than_one_chunk(self):
        g, k = SEARCH_GRAPHS["complex"]
        steps = solvers._CHUNK + 300
        tr = random_search(Objective("density", g, k), ProposalSource(), steps, 4)
        ref = stepwise_random_search(
            Objective("density", g, k), ProposalSource(), steps, 4
        )
        assert_same_trace(tr, ref)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_simulated_annealing_across_chunks(self, kind, monkeypatch):
        g, k = SEARCH_GRAPHS["complex"]
        src = stepwise_sources(g.n, k, 5)["pool"]
        monkeypatch.setattr(solvers, "_CHUNK", 16)
        for source in (src, ProposalSource(kind="uniform")):
            args = (source, 250, 2.0, 0.99, 0.3, 9)
            tr = simulated_annealing(Objective(kind, g, k), *args)
            ref = stepwise_simulated_annealing(Objective(kind, g, k), *args)
            assert_same_trace(tr, ref)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_simulated_annealing_wraps_the_pool_inside_a_chunk(self, kind):
        # about 0.9 * _CHUNK jumps a chunk, taken at once from 7 patterns
        g, k = SEARCH_GRAPHS["complex"]
        src = stepwise_sources(g.n, k, 3)["short-pool"]
        args = (src, 2 * solvers._CHUNK + 5, 2.0, 0.99, 0.9, 5)
        tr = simulated_annealing(Objective(kind, g, k), *args)
        ref = stepwise_simulated_annealing(Objective(kind, g, k), *args)
        assert_same_trace(tr, ref)
        assert tr.pool_wrapped

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_random_search_wraps_at_the_pool_size(self, kind):
        # the flag is set by the step that takes the pool's last pattern
        g, k = SEARCH_GRAPHS["complex"]
        src = stepwise_sources(g.n, k, 3)["pool"]
        size = len(src.pool)
        for steps, wrapped in [(size - 1, False), (size, True), (size + 1, True)]:
            for count in (steps, np.int64(steps)):
                tr = random_search(Objective(kind, g, k), src, count, 8)
                assert tr.pool_wrapped is wrapped
            ref = stepwise_random_search(Objective(kind, g, k), src, steps, 8)
            assert_same_trace(tr, ref)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_simulated_annealing_wraps_at_the_pool_size(self, kind):
        # the start and 9 jumps take all 10 patterns: the flag turns at the
        # step of the 9th jump, as in the stepwise loop
        g, k = SEARCH_GRAPHS["complex"]
        src = ProposalSource(kind="pool", pool=SamplePool(
            modes=g.n, samples=stepwise_sources(g.n, k, 3)["pool"].pool.samples[:10]))
        flags = []
        for steps in range(1, 41):
            args = (src, steps, 2.0, 0.99, 0.5, 6)
            tr = simulated_annealing(Objective(kind, g, k), *args)
            ref = stepwise_simulated_annealing(Objective(kind, g, k), *args)
            assert_same_trace(tr, ref)
            flags.append(tr.pool_wrapped)
        assert flags == sorted(flags) and False in flags and True in flags

    @pytest.mark.parametrize("graph", sorted(SEARCH_GRAPHS))
    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    @pytest.mark.parametrize("source", ["uniform", "pool", "short-pool", "resampled"])
    def test_simulated_annealing(self, graph, kind, source):
        g, k = SEARCH_GRAPHS[graph]
        src = stepwise_sources(g.n, k, 3)[source]
        for jump_prob, seed in [(0.0, 1), (0.3, 2)]:
            args = (src, 300, 2.0, 0.99, jump_prob, seed)
            tr = simulated_annealing(Objective(kind, g, k), *args)
            ref = stepwise_simulated_annealing(Objective(kind, g, k), *args)
            assert_same_trace(tr, ref)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_simulated_annealing_past_zero_temperature(self, kind):
        # at alpha 0.3 the temperature underflows to 0 after about 620 steps;
        # from then on every worse proposal is rejected
        g = random_complex_graph(12, seed=3)
        args = (ProposalSource(), 2000, 1.0, 0.3, 0.0, 1)
        tr = simulated_annealing(Objective(kind, g, 4), *args)
        ref = stepwise_simulated_annealing(Objective(kind, g, 4), *args)
        assert_same_trace(tr, ref)


class TestStream:
    def test_uniform_proposals_include_each_vertex_at_rate_k_over_n(self):
        n, k, count = 16, 6, 20000
        rows = solvers._uniform_subsets(np.random.default_rng(0), count, n, k)
        assert rows.shape == (count, k)
        assert np.all(np.diff(rows, axis=1) > 0)
        p = k / n
        rate = np.bincount(rows.ravel(), minlength=n) / count
        assert np.all(np.abs(rate - p) < 5 * np.sqrt(p * (1 - p) / count))

    @pytest.mark.parametrize("graph", sorted(SEARCH_GRAPHS))
    @pytest.mark.parametrize("source", ["uniform", "resampled"])
    def test_annealed_density_matches_direct_sum(self, graph, source):
        # hot, slow schedules accept many swaps, each a row-sum update
        g, k = SEARCH_GRAPHS[graph]
        src = stepwise_sources(g.n, k, 3)[source]
        for t0, alpha, seed in [(1.0, 0.995, 0), (20.0, 0.9995, 1), (50.0, 0.9999, 2)]:
            tr = simulated_annealing(
                Objective("density", g, k), src, 4000, t0, alpha, 0.05, seed
            )
            want = density(g, tr.best_subset)
            if graph == "zero-one":
                assert tr.best_values[-1] == want
            else:
                assert tr.best_values[-1] == pytest.approx(want, rel=1e-12, abs=0)

    def test_pool_random_search_trace_is_pinned(self):
        # pool proposals read no uniforms: this trace predates stream 2
        g = zero_one_graph(16, 0.3, seed=2)
        src = stepwise_sources(16, 6, 3)["pool"]
        tr = random_search(Objective("density", g, 6), src, 400, seed=2)
        steps = np.flatnonzero(np.diff(tr.best_values, prepend=-1.0)) + 1
        assert [(int(t), tr.value_at(t)) for t in steps] == [
            (1, 4.0), (2, 8.0), (4, 14.0), (14, 16.0), (17, 18.0)
        ]
        assert tr.best_subset == (0, 4, 8, 10, 12, 15)


class TestObjectiveValues:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rows_match_the_one_subset_functions(self, k):
        # |Hafnian|^2 is valued on the sorted subset, the cache key
        g = random_complex_graph(10, seed=2)
        rng = np.random.default_rng(k)
        rows = np.array([rng.choice(10, size=k, replace=False) for _ in range(300)])
        got = Objective("density", g, k).values(rows)
        assert got.tobytes() == np.array([density(g, r) for r in rows]).tobytes()
        got = Objective("maxhaf", g, k).values(rows)
        want = np.array([hafnian_sq_mod(g, np.sort(r)) for r in rows])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    @pytest.mark.parametrize("subset", [[0, 1], [0, 1, 2, 3, 4, 5]])
    def test_value_refuses_a_subset_of_the_wrong_size(self, kind, subset):
        obj = Objective(kind, random_complex_graph(8, seed=1), 4)
        with pytest.raises(ValidationError, match=r"expected an \(N, 4\)"):
            obj.value(subset)
        assert obj._haf_cache == {}

    @pytest.mark.parametrize("graph", [
        random_complex_graph(12, seed=4),
        zero_one_graph(12, 0.5, seed=4),
        planted_clique_graph(12, 6, 0.2, seed=4),
    ], ids=["complex", "zero-one", "planted-clique"])
    @pytest.mark.parametrize("k", [2, 6, 10])
    def test_values_equal_checked_hafnians(self, graph, k):
        # values and value skip hafnians' entry checks: same bits regardless
        rng = np.random.default_rng(k)
        rows = np.sort([rng.choice(12, size=k, replace=False) for _ in range(60)])
        haf = hafnians(graph.subgraphs(rows)).tolist()
        checked = np.array([abs(h) ** 2 for h in haf]).tobytes()
        assert Objective("maxhaf", graph, k).values(rows).tobytes() == checked
        assert np.array([hafnian_sq_mod(graph, r) for r in rows]).tobytes() == checked

    def test_density_moduli_are_python_abs_bits(self):
        # libm's hypot, as Python's abs, over moduli from 1e-200 to 1e200
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.integers(-200, 201, (2, 100_000))
        re, im = rng.standard_normal((2, 100_000)) * scale
        want = np.array([abs(complex(x, y)) for x, y in zip(re.tolist(), im.tolist())])
        assert np.hypot(re, im).tobytes() == want.tobytes()
        g = random_complex_graph(16, seed=29)
        rows = np.array(list(combinations(range(16), 6)))
        sums = g.subgraphs(rows).reshape(len(rows), 36).sum(axis=1).tolist()
        got = Objective("density", g, 6).values(rows)
        assert got.tobytes() == np.array([abs(z) for z in sums]).tobytes()

    def test_density_modulus_overflow_raises_as_abs_does(self):
        # each 3-subset sums to 1.35e308 (1 + i), finite, whose modulus is not
        g = Graph(n=6, adjacency=np.full((6, 6), 1.5e307 * (1 + 1j)))
        with pytest.raises(OverflowError):
            abs(complex(1.35e308, 1.35e308))
        with pytest.raises(OverflowError):
            Objective("density", g, 3).values([[0, 1, 2]])

    def test_values_each_distinct_subset_once(self, monkeypatch):
        g = random_complex_graph(8, seed=1)
        stacks = []

        def counting(stack):
            stacks.append(len(stack))
            return matfn._hafnians(stack)

        monkeypatch.setattr(solvers, "_hafnians", counting)
        obj = Objective("maxhaf", g, 4)
        obj.values([[0, 1, 2, 3], [3, 2, 1, 0], [4, 5, 6, 7], [0, 1, 2, 3]])
        obj.values([[4, 5, 6, 7], [0, 1, 2, 4]])
        assert stacks == [2, 1]

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_refusal_names_the_callers_row_past_cached_rows(self, kind):
        obj = Objective(kind, random_complex_graph(10, seed=2), 4)
        obj.values([[0, 1, 2, 3]])
        with pytest.raises(ValidationError, match="subset 2: vertex out of range"):
            obj.values([[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 10]])

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_no_rows_give_an_empty_float_array(self, kind):
        obj = Objective(kind, random_complex_graph(10, seed=2), 4)
        got = obj.values(np.empty((0, 4), dtype=int))
        assert got.dtype == float and got.shape == (0,)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1, 2]], "expected an"),
            ([[0, 1, 2, 9], [0, 1, 2, 10]], "subset 1: vertex out of range"),
            ([[0, 1, 2, 3], [0, 1, 1, 3]], "subset 1: vertices must be distinct"),
            ([[0.0, 1.0, 2.0, 3.0]], "integers"),
        ],
    )
    def test_rejects_bad_rows(self, rows, message):
        obj = Objective("density", random_complex_graph(10, seed=2), 4)
        with pytest.raises(ValidationError, match=message):
            obj.values(rows)

    @pytest.mark.parametrize("kind", ["density", "maxhaf"])
    def test_rejects_unsortable_rows(self, kind):
        obj = Objective(kind, random_complex_graph(10, seed=2), 4)
        with pytest.raises(ValidationError, match="integers"):
            obj.values([[0, None, 2, 3]])


class TestBuiltRowsSkipTheSubsetRule:
    """Random search's uniform and pool rows are ascending, distinct and in
    range by construction, so it values them without `Graph.checked_subsets`."""

    @pytest.mark.parametrize("kind, graph, k", [
        ("maxhaf", planted_clique_graph(10, 4, 0.2, seed=1), 4),
        ("density", random_complex_graph(10, seed=4), 4),
    ], ids=["maxhaf", "complex-density"])
    @pytest.mark.parametrize("source", ["uniform", "pool"])
    def test_random_search_skips_the_subset_rule(self, monkeypatch, kind, graph, k,
                                                 source):
        src = stepwise_sources(graph.n, k, 3)[source]
        steps = solvers._CHUNK + 300  # two chunks, the pool read many times
        want = random_search(Objective(kind, graph, k), src, steps, seed=5)

        def refused(self, subsets):
            raise AssertionError("the subset rule ran")

        monkeypatch.setattr(Graph, "checked_subsets", refused)
        got = random_search(Objective(kind, graph, k), src, steps, seed=5)
        assert got.best_values.tobytes() == want.best_values.tobytes()
        assert got.best_subset == want.best_subset


# every entry point that values a vertex subset, each given one k = 4 row
SUBSET_ENTRY_POINTS = {
    "density": density,
    "hafnian_sq_mod": hafnian_sq_mod,
    "value-density": lambda g, row: Objective("density", g, 4).value(row),
    "value-maxhaf": lambda g, row: Objective("maxhaf", g, 4).value(row),
    "values-density": lambda g, row: Objective("density", g, 4).values([row]),
    "values-maxhaf": lambda g, row: Objective("maxhaf", g, 4).values([row]),
}


@pytest.mark.parametrize("entry", SUBSET_ENTRY_POINTS)
@pytest.mark.parametrize("row, message", [
    ([0, 1, 2, 10], "out of range"),
    ([0, 1, 1, 3], "must be distinct"),
    ([0.0, 1.0, 2.0, 3.0], "integers"),
    ([True, False, True, False], "integers"),
], ids=["out-of-range", "repeated", "float", "bool"])
def test_every_entry_point_refuses_bad_subsets(entry, row, message):
    g = random_complex_graph(10, seed=2)
    with pytest.raises(ValidationError, match=message):
        SUBSET_ENTRY_POINTS[entry](g, row)


class _PeakDict(dict):
    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class TestHafCacheBound:
    def test_run_never_holds_more_than_the_cap(self, monkeypatch):
        g, k = SEARCH_GRAPHS["complex"]
        src = ProposalSource(kind="uniform")
        want = random_search(Objective("maxhaf", g, k), src, 300, seed=3)
        sa_want = simulated_annealing(Objective("maxhaf", g, k), src, 300, seed=3)
        monkeypatch.setattr(solvers, "_HAF_CACHE_MAX", 5)
        obj = Objective("maxhaf", g, k, _haf_cache=_PeakDict())
        got = random_search(obj, src, 300, seed=3)
        sa_got = simulated_annealing(obj, src, 300, seed=3)
        assert obj._haf_cache.peak == 5
        assert got.best_values.tobytes() == want.best_values.tobytes()
        assert got.best_subset == want.best_subset
        assert sa_got.best_values.tobytes() == sa_want.best_values.tobytes()
        assert sa_got.best_subset == sa_want.best_subset

    def test_oldest_entry_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(solvers, "_HAF_CACHE_MAX", 2)
        obj = Objective("maxhaf", complete_graph(6), 2)
        for s in ([0, 1], [0, 2], [0, 3]):
            obj.value(s)
        assert list(obj._haf_cache) == [(0, 2), (0, 3)]

    @pytest.mark.parametrize("new", [2, 4, 9], ids=["fits", "evicts", "past-cap"])
    def test_values_call_caches_like_one_insert_per_row(self, monkeypatch, new):
        # a values call's misses go in at once, leaving the last cap keys of
        # the old entries and the misses in first-seen order, as one insert
        # per row did, and never more than the cap at any point
        monkeypatch.setattr(solvers, "_HAF_CACHE_MAX", 5)
        obj = Objective("maxhaf", complete_graph(12), 2, _haf_cache=_PeakDict())
        for s in ([0, 1], [0, 2], [0, 3]):
            obj.value(s)
        rows = [[0, 2]] + [[v, 1] for v in range(2, 2 + new)] + [[0, 2], [2, 1]]
        obj.values(np.array(rows))
        seen = [(0, 1), (0, 2), (0, 3)] + [(1, v) for v in range(2, 2 + new)]
        assert list(obj._haf_cache) == seen[-5:]
        assert obj._haf_cache.peak == 5
        assert all(v == 1.0 for v in obj._haf_cache.values())
