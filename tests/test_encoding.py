import itertools

import numpy as np
import pytest

from gbskit import gaussian
from gbskit.encoding import Graph, choose_scale, encode_graph
from gbskit.errors import ValidationError
from gbskit.generators import (
    planted_clique_graph,
    random_complex_graph,
    zero_one_graph,
)
from gbskit.linalg import takagi

from oracles import (
    cycle_graph,
    pairwise_planted_clique,
    pairwise_zero_one,
    rank_two_graph,
    star_graph,
    takagi_product,
)


class TestGraph:
    def test_symmetrizes_storage(self):
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        assert np.allclose(g.adjacency, [[0, 1], [1, 0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Graph(n=3, adjacency=np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            Graph(n=2, adjacency=[[0, 1], [2, 0]])

    def test_subgraphs_gather_each_row_in_its_order(self):
        g = random_complex_graph(9, seed=4)
        rows = np.array([[5, 0, 7], [8, 2, 1], [3, 6, 4], [5, 0, 7]])
        got = g.subgraphs(rows)
        assert got.shape == (4, 3, 3)
        for row, sub in zip(rows, got):
            assert np.array_equal(sub, g.adjacency[np.ix_(row, row)])

    @pytest.mark.parametrize("rows", [
        np.array(list(itertools.combinations(range(16), 6))),
        np.random.default_rng(3).permuted(np.tile(np.arange(16), (50, 1)), axis=1)[:, :7],
        np.empty((0, 3), dtype=np.intp),
    ], ids=["table", "unsorted", "empty"])
    def test_gather_is_the_two_index_gather(self, rows):
        g = random_complex_graph(16, seed=29)
        got = g.gather(rows.astype(np.intp))
        want = g.adjacency[rows[:, :, None], rows[:, None, :]]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_checked_subsets_keep_rows_and_sort_a_copy(self):
        g = random_complex_graph(9, seed=4)
        rows, ordered = g.checked_subsets([[5, 0, 7], [8, 2, 1]])
        assert rows.dtype == np.intp
        assert rows.tolist() == [[5, 0, 7], [8, 2, 1]]
        assert ordered.tolist() == [[0, 5, 7], [1, 2, 8]]

    def test_subgraphs_of_empty_rows(self):
        g = random_complex_graph(4, seed=0)
        assert g.subgraphs([[]]).shape == (1, 0, 0)

    @pytest.mark.parametrize("rows, message", [
        ([0, 1], r"expected an \(N, k\) subset array"),
        ([[0, 1], [1, 4]], "subset 1: vertex out of range"),
        ([[0, 1], [-1, 2]], "subset 1: vertex out of range"),
        ([[0, 1], [2, 2]], "subset 1: vertices must be distinct"),
        ([[0.0, 1.0]], "integers"),
        ([[True, False]], "integers"),
    ])
    def test_subgraphs_refuse_bad_rows(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            random_complex_graph(4, seed=0).subgraphs(rows)

    def test_adjacency_read_only(self):
        g = Graph(n=2, adjacency=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 1.0


class TestZeroOneGenerators:
    # n = 1 draws nothing; p = 0 and p = 1 fix every drawn pair
    SIZES, PROBS, SEEDS = [1, 2, 3, 5, 8, 12, 16, 20], [0.0, 0.3, 0.5, 1.0], range(3)

    def test_zero_one_matches_the_pairwise_draws(self):
        for n in self.SIZES:
            for p in self.PROBS:
                for seed in self.SEEDS:
                    got = zero_one_graph(n, p, seed).adjacency
                    want = pairwise_zero_one(n, p, seed).adjacency
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", PROBS)
    def test_planted_clique_matches_the_pairwise_draws(self, p):
        for n in self.SIZES:
            for c in range(1, n + 1):  # up to the full clique
                for seed in self.SEEDS:
                    got = planted_clique_graph(n, c, p, seed).adjacency
                    want = pairwise_planted_clique(n, c, p, seed).adjacency
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make, message", [
        (lambda: zero_one_graph(5, 1.5, 0), "edge probability"),
        (lambda: planted_clique_graph(5, 0, 0.2, 0), "clique size"),
        (lambda: planted_clique_graph(5, 6, 0.2, 0), "clique size"),
        (lambda: planted_clique_graph(5, 3, -0.1, 0), "noise edge probability"),
    ])
    def test_refusals(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


# degenerate and real spectra (0/1 graphs, cycle, star) and zero singular
# values (star, rank two) as well as generic complex graphs
ENCODED_GRAPHS = {
    "random-complex": random_complex_graph(16, seed=2),
    "zero-one": zero_one_graph(16, 0.5, seed=0),
    "zero-one-sparse": zero_one_graph(20, 0.2, seed=3),
    "planted-clique": planted_clique_graph(16, 6, 0.2, seed=1),
    "cycle": cycle_graph(8),
    "star": star_graph(8),
    "rank-two": rank_two_graph(10, seed=0),
}


@pytest.mark.parametrize("name", ENCODED_GRAPHS)
def test_takagi_encoding_is_exact(name):
    g = ENCODED_GRAPHS[name]
    f = takagi(g.adjacency)
    scale = np.linalg.norm(g.adjacency)
    assert np.linalg.norm(takagi_product(f) - g.adjacency) < 1e-12 * scale
    assert np.linalg.norm(f.unitary.conj().T @ f.unitary - np.eye(g.n)) < 1e-12
    c = 0.5 / f.values[0]
    a = gaussian.sampling_matrix(encode_graph(g, c).build_state()).a
    assert np.linalg.norm(a - c * g.adjacency) < 1e-12 * c * scale


class TestEncodeGraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_sampling_matrix_roundtrip(self, seed):
        g = random_complex_graph(8, seed=seed)
        lam = takagi(g.adjacency).values[0]
        c = 0.5 / lam
        state = encode_graph(g, c).build_state()
        a = gaussian.sampling_matrix(state).a
        err = np.linalg.norm(a - c * g.adjacency) / np.linalg.norm(c * g.adjacency)
        assert err < 1e-8

    def test_permutation_equivariance(self):
        g = random_complex_graph(6, seed=4)
        perm = np.random.default_rng(0).permutation(6)
        gp = Graph(n=6, adjacency=g.adjacency[np.ix_(perm, perm)])
        c = 0.4 / takagi(g.adjacency).values[0]
        a = gaussian.sampling_matrix(encode_graph(g, c).build_state()).a
        ap = gaussian.sampling_matrix(encode_graph(gp, c).build_state()).a
        assert np.linalg.norm(ap - a[np.ix_(perm, perm)]) < 1e-8

    def test_rejects_scale_at_or_above_limit(self):
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            encode_graph(g, 1.0)
        with pytest.raises(ValidationError):
            encode_graph(g, 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("adjacency", [[[0, 1], [1, 0]], [[0, 0], [0, 0]]],
                             ids=["edge", "zero"])
    def test_rejects_non_finite_scale(self, adjacency, c):
        # NaN fails every comparison, and inf * lambda_max is NaN on the zero
        # graph
        with pytest.raises(ValidationError, match="scale must satisfy"):
            encode_graph(Graph(n=2, adjacency=adjacency), c)

    def test_squeezing_values(self):
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        dev = encode_graph(g, 0.5)
        assert np.allclose(sorted(dev.squeezing), [np.arctanh(0.5)] * 2)


class TestChooseScale:
    def test_two_mode_pair_analytic(self):
        # one squeezed pair: each mode is thermal with click probability c^2,
        # so the expected click count is 2 c^2 and c = sqrt(target / 2)
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        for target in [0.2, 0.5, 1.0]:
            c = choose_scale(g, target)
            assert c == pytest.approx(np.sqrt(target / 2.0), abs=1e-3)

    def test_hits_target_exactly(self):
        g = random_complex_graph(6, seed=9)
        c = choose_scale(g, 2.0)
        state = encode_graph(g, c).build_state()
        assert gaussian.mean_clicks(state) == pytest.approx(2.0, abs=1e-4)

    def test_factorizes_once(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(1)
            return takagi(a, *args, **kwargs)

        monkeypatch.setattr("gbskit.encoding.takagi", counting)
        g = planted_clique_graph(16, 6, 0.2, seed=1)
        assert choose_scale(g, 4.0) == pytest.approx(0.1642854711448079, rel=1e-12)
        assert len(calls) == 1

    def test_graph_is_factorized_once_for_scale_and_encoding(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(1)
            return takagi(a, *args, **kwargs)

        monkeypatch.setattr("gbskit.encoding.takagi", counting)
        g = planted_clique_graph(16, 6, 0.2, seed=1)
        dev = encode_graph(g, choose_scale(g, 4.0))
        encode_graph(g, 0.1)
        assert len(calls) == 1
        # the factorization the devices share cannot be written through them
        with pytest.raises(ValueError):
            dev.interferometer[0, 0] = 0
        choose_scale(planted_clique_graph(16, 6, 0.2, seed=1), 4.0)
        assert len(calls) == 2

    def test_builds_no_state(self, monkeypatch):
        built = []
        post_init = gaussian.GaussianState.__post_init__

        def counting(state):
            built.append(1)
            post_init(state)

        monkeypatch.setattr(gaussian.GaussianState, "__post_init__", counting)
        choose_scale(planted_clique_graph(16, 6, 0.2, seed=1), 4.0)
        assert built == []
        # the counter sees a state that is built
        encode_graph(random_complex_graph(4, seed=1), 0.1).build_state()
        assert built == [1]

    @pytest.mark.parametrize("graph, target, scale", [
        (planted_clique_graph(16, 6, 0.2, seed=1), 4.0, 0.1642854711448079),
        (planted_clique_graph(16, 6, 0.2, seed=1), 6.0, 0.17192094698283686),
        (random_complex_graph(16, seed=29), 6.0, 0.21465414798107837),
    ], ids=["readme-4", "readme-6", "random-complex-6"])
    def test_scale_bits_pinned(self, graph, target, scale):
        # the bits the bisection gave when each step read mean clicks off a
        # built state; device files and every study's scale depend on them
        assert choose_scale(graph, target) == scale

    def test_monotone_in_target(self):
        g = random_complex_graph(6, seed=9)
        scales = [choose_scale(g, t) for t in [0.5, 1.0, 2.0, 3.0]]
        assert np.all(np.diff(scales) > 0)

    def test_small_target_gives_small_scale(self):
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        assert choose_scale(g, 1e-4) < 0.01

    def test_rejects_out_of_range_target(self):
        g = Graph(n=2, adjacency=[[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            choose_scale(g, 0.0)
        with pytest.raises(ValidationError):
            choose_scale(g, 2.0)

    def test_unreachable_target_reports_supremum(self):
        # a single weak edge in a 4-vertex graph saturates well below 3 clicks
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        g = Graph(n=4, adjacency=a)
        with pytest.raises(ValidationError, match="supremum"):
            choose_scale(g, 3.0)

    def test_zero_graph_rejected(self):
        g = Graph(n=3, adjacency=np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            choose_scale(g, 1.0)

