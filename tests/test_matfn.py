import numpy as np
import pytest

from gbskit import gaussian, matfn
from gbskit.encoding import Graph
from gbskit.errors import CostGuardError, PhysicalityError, ValidationError
from gbskit.generators import planted_clique_graph, random_complex_graph, zero_one_graph
from gbskit.matfn import hafnian, hafnian_sq_mod, hafnians, torontonian

from oracles import matching_hafnian, perfect_matching_count


def random_symmetric(n, seed, zero_diag=True):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.T) / 2
    if zero_diag:
        np.fill_diagonal(a, 0)
    return a


class TestHafnian:
    def test_single_pair(self):
        assert hafnian([[5.0, 3.0], [3.0, 7.0]]) == pytest.approx(3.0)

    def test_all_ones_k4(self):
        assert hafnian(np.ones((4, 4))) == pytest.approx(3.0)

    def test_double_factorial(self):
        for k in range(1, 7):
            expected = float(np.prod(np.arange(2 * k - 1, 0, -2)))
            assert hafnian(np.ones((2 * k, 2 * k))) == pytest.approx(expected)

    def test_k33_matching_count(self):
        a = np.zeros((6, 6))
        a[:3, 3:] = 1
        a[3:, :3] = 1
        assert hafnian(a) == pytest.approx(6.0)

    def test_empty_matrix(self):
        assert hafnian(np.zeros((0, 0))) == 1.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_against_matching_enumeration(self, n):
        for seed in range(3):
            a = random_symmetric(n, seed)
            expected = matching_hafnian(a)
            assert abs(hafnian(a) - expected) <= 1e-10 * max(abs(expected), 1)

    def test_zero_one_matching_count(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = 8
            a = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        a[i, j] = a[j, i] = 1
            assert hafnian(a).real == pytest.approx(perfect_matching_count(a))

    def test_permutation_invariance(self):
        a = random_symmetric(8, 42)
        rng = np.random.default_rng(0)
        perm = rng.permutation(8)
        b = a[np.ix_(perm, perm)]
        assert hafnian(b) == pytest.approx(hafnian(a), rel=1e-10)

    def test_diagonal_ignored(self):
        a = random_symmetric(6, 1, zero_diag=False)
        b = a.copy()
        np.fill_diagonal(b, 0)
        assert hafnian(a) == pytest.approx(hafnian(b))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            hafnian(np.zeros((3, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            hafnian([[0, 1], [2, 0]])

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            hafnian(np.zeros((26, 26)))


def subgraph_stack(kind, n, count, seed):
    """Induced n-vertex subgraphs of one 16-vertex graph of the given kind."""
    g = {
        "complex": random_complex_graph(16, seed),
        "zero-one": zero_one_graph(16, 0.5, seed),
        "planted-clique": planted_clique_graph(16, 6, 0.2, seed),
    }[kind]
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(16, size=n, replace=False)) for _ in range(count)]
    return np.array([g.adjacency[np.ix_(r, r)] for r in rows]).reshape(count, n, n)


class TestHafnians:
    @pytest.mark.parametrize("kind", ["complex", "zero-one", "planted-clique"])
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    def test_against_matching_enumeration(self, kind, n):
        stack = subgraph_stack(kind, n, 12, seed=n + 1)
        got = hafnians(stack)
        for h, a in zip(got, stack):
            expected = matching_hafnian(a)
            assert abs(h - expected) <= 1e-10 * max(abs(expected), 1)

    @pytest.mark.parametrize("kind", ["complex", "zero-one", "planted-clique"])
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    def test_rows_equal_one_matrix_calls(self, kind, n):
        stack = subgraph_stack(kind, n, 40, seed=n + 7)
        rows = np.array([hafnian(a) for a in stack], dtype=complex)
        assert hafnians(stack).tobytes() == rows.tobytes()

    def test_row_bits_do_not_depend_on_the_stack(self, monkeypatch):
        stack = subgraph_stack("complex", 6, 50, seed=3)
        whole = hafnians(stack)
        assert hafnians(stack[17:18]).tobytes() == whole[17:18].tobytes()
        # chunks of 3 rows: the stack crosses many chunk boundaries
        monkeypatch.setattr(matfn, "_CHUNK", 3 * 8 * 36)
        assert hafnians(stack).tobytes() == whole.tobytes()

    def test_empty_stack(self):
        assert hafnians(np.zeros((0, 4, 4))).shape == (0,)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError, match="even dimension, got 3"):
            hafnians(np.zeros((4, 3, 3)))

    def test_cost_guard(self):
        with pytest.raises(CostGuardError, match="dimension 26"):
            hafnians(np.zeros((2, 26, 26)))

    def test_names_the_asymmetric_row(self):
        stack = subgraph_stack("complex", 4, 5, seed=2)
        stack[3, 0, 1] += 1.0
        with pytest.raises(ValidationError, match="stack row 3 is not"):
            hafnians(stack)

    def test_names_the_nonfinite_row(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="stack row 1 contains NaN"):
            hafnians(stack)

    def test_rejects_non_stack(self):
        with pytest.raises(ValidationError, match="stack"):
            hafnians(np.zeros((4, 4)))


class TestHafnianSqMod:
    def test_k4_inside_graph(self):
        a = np.zeros((6, 6))
        a[:4, :4] = 1 - np.eye(4)
        g = Graph(n=6, adjacency=a)
        assert hafnian_sq_mod(g, [0, 1, 2, 3]) == pytest.approx(9.0)

    def test_empty_subset(self):
        g = Graph(n=4, adjacency=np.zeros((4, 4)))
        assert hafnian_sq_mod(g, []) == 1.0

    def test_against_pairing_oracle(self):
        a = random_symmetric(10, 77)
        g = Graph(n=10, adjacency=a)
        subset = [1, 3, 4, 6, 8, 9]
        expected = abs(matching_hafnian(a[np.ix_(subset, subset)])) ** 2
        assert hafnian_sq_mod(g, subset) == pytest.approx(expected, rel=1e-9)

    def test_rejects_odd_subset(self):
        g = Graph(n=4, adjacency=np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            hafnian_sq_mod(g, [0, 1, 2])

    def test_rejects_duplicates(self):
        g = Graph(n=4, adjacency=np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            hafnian_sq_mod(g, [0, 0])


class TestTorontonian:
    def test_scaled_identity(self):
        for c in [0.1, 0.5, 0.9]:
            expected = 1.0 / (1.0 - c) - 1.0
            assert torontonian(c * np.eye(2)) == pytest.approx(expected)

    def test_vacuum_never_clicks(self):
        assert torontonian(np.zeros((2, 2))) == pytest.approx(0.0)

    def test_zero_matrix_even_m(self):
        # inclusion-exclusion of all-equal terms telescopes to zero
        assert torontonian(np.zeros((8, 8))) == pytest.approx(0.0)

    def test_single_squeezed_mode_click_probability(self):
        r = 0.8
        state = gaussian.state_from_device([r], [[1.0]])
        o = np.eye(2) - np.linalg.inv(state.husimi)
        p_click = torontonian(o) / np.sqrt(np.linalg.det(state.husimi).real)
        assert p_click == pytest.approx(1 - 1 / np.cosh(r), rel=1e-10)

    def test_block_consistent_permutation_invariance(self):
        rng = np.random.default_rng(5)
        state = gaussian.pure_state_from_a(random_symmetric(4, 8) * 0.2)
        o = np.eye(8) - np.linalg.inv(state.husimi)
        perm = rng.permutation(4)
        idx = np.concatenate([perm, perm + 4])
        assert torontonian(o[np.ix_(idx, idx)]) == pytest.approx(
            torontonian(o), rel=1e-10
        )

    def test_nonnegative_for_physical_states(self):
        for seed in range(5):
            a = random_symmetric(3, seed) * 0.25
            state = gaussian.pure_state_from_a(a)
            o = np.eye(6) - np.linalg.inv(state.husimi)
            assert torontonian(o) >= 0

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            torontonian(np.zeros((3, 3)))

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            torontonian(np.diag([2.0, 0.5]))

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            torontonian(np.zeros((34, 34)))
