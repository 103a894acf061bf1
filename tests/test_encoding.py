import numpy as np
import pytest

from gbskit import gaussian
from gbskit.encoding import Graph, choose_scale, encode_graph, subgraph
from gbskit.errors import ValidationError
from gbskit.generators import (
    planted_clique_graph,
    random_complex_graph,
    zero_one_graph,
)
from gbskit.linalg import takagi


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

    def test_adjacency_read_only(self):
        g = Graph(n=2, adjacency=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 1.0


def _cycle(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return Graph(n=n, adjacency=a)


def _star(n):
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return Graph(n=n, adjacency=a)


def _rank_two(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return Graph(n=n, adjacency=v @ v.T)


# degenerate and real spectra (0/1 graphs, cycle, star) and zero singular
# values (star, rank two) as well as generic complex graphs
ENCODED_GRAPHS = {
    "random-complex": random_complex_graph(16, seed=2),
    "zero-one": zero_one_graph(16, 0.5, seed=0),
    "zero-one-sparse": zero_one_graph(20, 0.2, seed=3),
    "planted-clique": planted_clique_graph(16, 6, 0.2, seed=1),
    "cycle": _cycle(8),
    "star": _star(8),
    "rank-two": _rank_two(10, seed=0),
}


@pytest.mark.parametrize("name", ENCODED_GRAPHS)
def test_takagi_encoding_is_exact(name):
    g = ENCODED_GRAPHS[name]
    f = takagi(g.adjacency)
    scale = np.linalg.norm(g.adjacency)
    assert np.linalg.norm(f.reconstruct() - g.adjacency) < 1e-12 * scale
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


class TestSubgraph:
    def test_all_ones_is_identity(self):
        g = random_complex_graph(5, seed=2)
        sub = subgraph(g, [1] * 5)
        assert sub.n == 5
        assert np.allclose(sub.adjacency, g.adjacency)

    def test_all_zeros_is_empty(self):
        g = random_complex_graph(5, seed=2)
        assert subgraph(g, [0] * 5).n == 0

    def test_k4_inside_larger_graph(self):
        a = np.zeros((6, 6))
        a[:4, :4] = 1 - np.eye(4)
        g = Graph(n=6, adjacency=a)
        sub = subgraph(g, [1, 1, 1, 1, 0, 0])
        assert np.allclose(sub.adjacency, 1 - np.eye(4))

    def test_rejects_length_mismatch(self):
        g = random_complex_graph(5, seed=2)
        with pytest.raises(ValidationError):
            subgraph(g, [1, 0, 1])
