import warnings

import numpy as np
import pytest
from scipy.stats import unitary_group

from gbskit import gaussian, matfn
from gbskit.encoding import Graph
from gbskit.errors import CostGuardError, PhysicalityError, ValidationError
from gbskit.generators import planted_clique_graph, random_complex_graph, zero_one_graph
from gbskit.matfn import HAFNIAN_MAX_DIM, hafnian, hafnian_sq_mod, hafnians, torontonian

from oracles import (
    inclusion_exclusion_distribution,
    matching_hafnian,
    perfect_matching_count,
    rank_two_graph,
    state_with_sampling_matrix,
)


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

    # 0/1 matching counts are exact: the matching table and the recursion
    # above it only add and multiply integers
    def test_all_ones_k4(self):
        assert hafnian(np.ones((4, 4))) == 3

    def test_double_factorial(self):
        for k in range(1, HAFNIAN_MAX_DIM // 2 + 1):
            expected = float(np.prod(np.arange(2 * k - 1, 0, -2)))
            assert hafnian(np.ones((2 * k, 2 * k))) == expected

    def test_k33_matching_count(self):
        a = np.zeros((6, 6))
        a[:3, 3:] = 1
        a[3:, :3] = 1
        assert hafnian(a) == 6

    # one matching of one 1.5e308 entry and n / 2 - 1 ones: exact however
    # large, in the matching table (2) and the recursion (12, 14), whose
    # sums of products would overflow unless the row is scaled first
    @pytest.mark.parametrize("n", [2, 12, 14])
    def test_largest_entries_do_not_overflow(self, n):
        a = np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]])
        a[0, 1] = a[1, 0] = 1.5e308
        ordinary = random_symmetric(n, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hafnian(a) == 1.5e308
            assert hafnian(-1j * a) == (-1j) ** (n // 2) * 1.5e308
            # a scaled row leaves the other rows of its stack alone
            both = hafnians(np.stack([a, ordinary]))
        assert both[1].tobytes() == np.complex128(hafnian(ordinary)).tobytes()

    # one matching of pair entries 2^-300, 2^200, 2^1000 and ones: the two
    # large entries' product overflows unless each vertex is scaled on its own
    @pytest.mark.parametrize("n", [12, 14])
    def test_several_large_entries_do_not_overflow(self, n):
        a = np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]])
        for i, w in enumerate([2.0 ** -300, 2.0 ** 200, 2.0 ** 1000]):
            a[2 * i, 2 * i + 1] = a[2 * i + 1, 2 * i] = w
        assert hafnian(a) == 2.0 ** 900
        # a redone row leaves the other rows of its stack alone
        ordinary = random_symmetric(n, 3)
        both = hafnians(np.stack([a, ordinary]))
        assert both[1].tobytes() == np.complex128(hafnian(ordinary)).tobytes()

    # one matching of pair entries 2^1000, 2^100 and 2^-300 and ones: the
    # matching table's product overflows (6, 10), so its row is redone by
    # the recursion, and is exact as the recursion's own row is (12)
    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_matching_table_overflow_is_redone(self, n):
        a = np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]])
        for i, w in enumerate([2.0 ** 1000, 2.0 ** 100, 2.0 ** -300]):
            a[2 * i, 2 * i + 1] = a[2 * i + 1, 2 * i] = w
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hafnian(a) == 2.0 ** 800
            # a redone row leaves the other rows of its stack alone
            ordinary = random_symmetric(n, 3)
            both = hafnians(np.stack([a, ordinary]))
        assert both[0] == 2.0 ** 800
        assert both[1].tobytes() == np.complex128(hafnian(ordinary)).tobytes()

    # every pair 2^300: (n - 1)!! 2^(150 n) overflows at 10 as at 12, to an
    # infinite real part and a zero imaginary part, not NaN
    @pytest.mark.parametrize("n", [10, 12])
    def test_overflowing_hafnian_is_infinite_not_nan(self, n):
        with np.errstate(over="ignore"):
            h = hafnian(np.full((n, n), 2.0 ** 300))
        assert h.real == np.inf and h.imag == 0.0

    # a01 = 2^1000 and a02 = a13 = 2^-80, the other pairs 1: the only perfect
    # matching gives 2^-160, and scaling vertices 0 and 1 by half of 2^1000
    # would take a02 a13 below float64's range
    def test_small_entries_of_a_large_vertex_keep_their_product(self):
        a = np.kron(np.eye(6), [[0.0, 1.0], [1.0, 0.0]])
        a[2, 3] = a[3, 2] = 0.0
        a[0, 1] = a[1, 0] = 2.0 ** 1000
        a[0, 2] = a[2, 0] = a[1, 3] = a[3, 1] = 2.0 ** -80
        assert hafnian(a) == 2.0 ** -160

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
            assert hafnian(a) == perfect_matching_count(a)

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


# one dimension valued by the recursion, just above the matching table
ABOVE = matfn._MATCHING_MAX_DIM + 2


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
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8, ABOVE, ABOVE + 2])
    def test_against_matching_enumeration(self, kind, n):
        # the enumeration takes about 0.3 s per matrix at n = 14
        stack = subgraph_stack(kind, n, 12 if n < ABOVE else 3, seed=n + 1)
        got = hafnians(stack)
        for h, a in zip(got, stack):
            expected = matching_hafnian(a)
            if kind == "complex":
                assert abs(h - expected) <= 1e-10 * max(abs(expected), 1)
            else:
                assert h == expected

    @pytest.mark.parametrize("kind", ["complex", "zero-one", "planted-clique"])
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8, ABOVE])
    def test_rows_equal_one_matrix_calls(self, kind, n):
        stack = subgraph_stack(kind, n, 40, seed=n + 7)
        rows = np.array([hafnian(a) for a in stack], dtype=complex)
        assert hafnians(stack).tobytes() == rows.tobytes()

    def test_row_bits_do_not_depend_on_the_stack(self, monkeypatch):
        stack = subgraph_stack("complex", ABOVE, 50, seed=3)
        whole = hafnians(stack)
        assert hafnians(stack[17:18]).tobytes() == whole[17:18].tobytes()
        # chunks of 3 rows: the stack crosses many chunk boundaries
        monkeypatch.setattr(matfn, "_CHUNK", 3 * (9 * (ABOVE // 2) << (ABOVE // 2 - 1)))
        assert hafnians(stack).tobytes() == whole.tobytes()

    def test_table_row_bits_do_not_depend_on_the_stack(self, monkeypatch):
        stack = subgraph_stack("complex", 6, 50, seed=3)
        whole = hafnians(stack)
        assert hafnians(stack[17:18]).tobytes() == whole[17:18].tobytes()
        # chunks of 3 rows of 15 matchings of 3 pairs
        monkeypatch.setattr(matfn, "_CHUNK", 3 * 15 * 3)
        assert hafnians(stack).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind", ["complex", "zero-one", "planted-clique"])
    @pytest.mark.parametrize("n", range(2, matfn._MATCHING_MAX_DIM + 1, 2))
    def test_table_matches_recursion(self, kind, n):
        stack = subgraph_stack(kind, n, 12, seed=n + 13)
        got = hafnians(stack)
        want = matfn._recursion_chunk(stack.astype(complex))
        if kind == "complex":
            for h, p in zip(got, want):
                assert abs(h - p) <= 1e-10 * max(abs(p), 1)
        else:
            assert np.array_equal(got, want)

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
        state = state_with_sampling_matrix(random_symmetric(4, 8) * 0.2)
        o = np.eye(8) - np.linalg.inv(state.husimi)
        perm = rng.permutation(4)
        idx = np.concatenate([perm, perm + 4])
        assert torontonian(o[np.ix_(idx, idx)]) == pytest.approx(
            torontonian(o), rel=1e-10
        )

    def test_nonnegative_for_physical_states(self):
        for seed in range(5):
            a = random_symmetric(3, seed) * 0.25
            state = state_with_sampling_matrix(a)
            o = np.eye(6) - np.linalg.inv(state.husimi)
            assert torontonian(o) >= 0

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            torontonian(np.zeros((3, 3)))

    @pytest.mark.parametrize("kind", ["pure", "lossy", "thermal", "rank-two"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_direct_determinant_oracle(self, m, kind):
        # Tor(I - sigma^-1)/sqrt(det sigma) is the all-click probability,
        # which the oracle sums from direct Husimi determinants
        rng = np.random.default_rng(m)
        r = rng.uniform(0.5, 1.0, m)
        u = unitary_group.rvs(m, random_state=rng) if m > 1 else np.eye(1)
        state = gaussian.state_from_device(r, u)
        if kind == "lossy":
            state = gaussian.apply_loss(state, 0.7)
        elif kind == "thermal":
            state = gaussian.apply_thermal(state, 0.3)
        elif kind == "rank-two":
            a = rank_two_graph(m, m).adjacency
            state = state_with_sampling_matrix(0.9 * a / np.linalg.norm(a, 2))
        o = np.eye(2 * m) - np.linalg.inv(state.husimi)
        p_all = torontonian(o) / np.sqrt(np.linalg.det(state.husimi).real)
        want = inclusion_exclusion_distribution(state)[-1]
        assert p_all == pytest.approx(want, rel=1e-10)

    def test_rejects_unphysical(self):
        # I - O negative definite (even-sized blocks of a negative multiple of
        # I have positive determinants), not bosonic, or not Hermitian
        n = np.array([[1.0, 0.3], [0.0, 1.0]])
        not_hermitian = np.block([[n, np.zeros((2, 2))], [np.zeros((2, 2)), n.conj()]])
        for o in (2 * np.eye(2), 3 * np.eye(4), np.diag([2.0, 0.5]),
                  np.eye(4) - not_hermitian):
            with pytest.raises(PhysicalityError):
                torontonian(o)

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            torontonian(np.zeros((50, 50)))
