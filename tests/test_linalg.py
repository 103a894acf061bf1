import warnings

import numpy as np
import pytest
import scipy.linalg

from gbskit.encoding import Graph
from gbskit.generators import planted_clique_graph, random_complex_graph
from gbskit.errors import ValidationError
from gbskit.linalg import as_matrix, inverse, symmetrized, takagi
from gbskit.matfn import hafnian, hafnians

from oracles import cycle_graph, star_graph, takagi_product


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual(self):
        for seed in range(5):
            a = random_complex(8, seed) + 3 * np.eye(8)
            res = a @ inverse(a) - np.eye(8)
            assert np.linalg.norm(res) / np.linalg.norm(np.eye(8)) < 1e-9

    def test_rejects_singular(self):
        a = np.ones((3, 3))
        with pytest.raises(ValidationError):
            inverse(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            inverse(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            inverse([[np.nan, 0], [0, 1]])

    def test_rejects_vector(self):
        with pytest.raises(ValidationError, match="expected a 2-D matrix, got ndim=1"):
            as_matrix([1.0, 2.0])

    def test_empty_matrix(self):
        out = inverse(np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == np.complex128


class TestTakagi:
    def test_empty_matrix(self):
        f = takagi(np.zeros((0, 0)))
        assert f.unitary.shape == (0, 0) and f.values.shape == (0,)

    def test_real_diagonal(self):
        f = takagi(np.diag([4.0, 1.0]))
        assert np.allclose(f.values, [4.0, 1.0])
        assert np.allclose(takagi_product(f), np.diag([4.0, 1.0]))

    def test_swap_matrix(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = takagi(x)
        assert np.allclose(f.values, [1.0, 1.0])
        assert np.linalg.norm(f.unitary @ f.unitary.T - x) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_random_reconstruction(self, seed):
        a = random_complex(10, seed)
        a = (a + a.T) / 2
        f = takagi(a)
        n = a.shape[0]
        assert np.linalg.norm(takagi_product(f) - a) / np.linalg.norm(a) < 1e-9
        assert np.linalg.norm(f.unitary.conj().T @ f.unitary - np.eye(n)) < 1e-10
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(f.values, sv, atol=1e-9 * sv[0])

    def test_values_sorted_descending(self):
        a = random_complex(7, 3)
        a = (a + a.T) / 2
        f = takagi(a)
        assert np.all(np.diff(f.values) <= 0)
        assert np.all(f.values >= 0)

    def test_degenerate_values(self):
        # repeated singular values: gauge is free, reconstruction is the contract
        a = np.kron(np.eye(2), np.array([[0, 1j], [1j, 0]]))
        f = takagi(a)
        assert np.allclose(f.values, [1, 1, 1, 1])
        assert np.linalg.norm(takagi_product(f) - a) < 1e-10

    def test_deterministic(self):
        a = random_complex(6, 9)
        a = (a + a.T) / 2
        f1 = takagi(a)
        f2 = takagi(a)
        assert np.array_equal(f1.unitary, f2.unitary)
        assert np.array_equal(f1.values, f2.values)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            takagi([[0, 1], [2, 0]])

    def test_zero_matrix(self):
        f = takagi(np.zeros((3, 3)))
        assert np.allclose(f.values, 0)
        assert np.linalg.norm(f.unitary.conj().T @ f.unitary - np.eye(3)) < 1e-12


def null_space_completion(f):
    """`f`'s unitary with its zero-value columns replaced by
    `scipy.linalg.null_space` of the adjoint of the others."""
    u = f.unitary[:, :np.count_nonzero(f.values)]
    return np.hstack([u, scipy.linalg.null_space(u.conj().T)])


def real_rank_two(n):
    v = np.random.default_rng(n).normal(size=(n, 2))
    return v @ v.T


# zero, repeated and generic Takagi values, real and complex
COMPLETION_FAMILIES = {
    "zero": lambda n: np.zeros((n, n)),
    "all-ones": lambda n: np.ones((n, n)),
    "identity": np.eye,
    "star": lambda n: star_graph(n).adjacency,
    "cycle": lambda n: cycle_graph(n).adjacency,
    "real-rank-two": real_rank_two,
    "planted-clique": lambda n: planted_clique_graph(n, (n + 1) // 2, 0.2, seed=n).adjacency,
    "random-complex": lambda n: random_complex_graph(n, seed=n).adjacency,
}


@pytest.mark.parametrize("family", COMPLETION_FAMILIES)
def test_svd_completion_is_the_null_space_bytes(family):
    for n in range(1, 25):
        f = takagi(COMPLETION_FAMILIES[family](n))
        want = null_space_completion(f)
        assert f.unitary.shape == want.shape == (n, n)
        assert f.unitary.tobytes() == want.tobytes(), n


# every caller of the one symmetry rule, on a 2-D matrix
SYMMETRY_CALLERS = [
    lambda m: Graph(n=len(m), adjacency=m),
    takagi,
    hafnian,
    lambda m: hafnians([m]),
]


class TestSymmetrized:
    @pytest.mark.parametrize("m", [
        [[0, 1e200], [1e100, 0]],
        [[1e200, 1e200], [1e100, 0]],
        [[0, 1e-6], [1e-6 + 1e-15, 0]],
    ], ids=["huge-off-diagonal", "huge-diagonal", "tiny"])
    def test_every_caller_refuses_asymmetric_input_at_any_scale(self, m):
        for call in SYMMETRY_CALLERS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="symmetric"):
                    call(m)

    def test_huge_symmetric_input_is_accepted(self):
        m = [[0, 1e200], [1e200, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hafnian(m) == 1e200
            assert np.array_equal(Graph(n=2, adjacency=m).adjacency, m)
            assert np.allclose(takagi(m).values, [1e200, 1e200], rtol=1e-12)

    def test_symmetric_part_does_not_overflow(self):
        # a + a^T would overflow; so does the hafnian's recursion, used
        # only above the matching table's cutoff
        m = [[0, 1.5e308], [1.5e308, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(Graph(n=2, adjacency=m).adjacency, m)
            assert np.array_equal(takagi(m).values, [1.5e308, 1.5e308])

    def test_rule_does_not_depend_on_scale(self):
        a = random_complex(6, 4)
        a = a + a.T
        near, far = a.copy(), a.copy()
        near[0, 1] *= 1 + 1e-12
        far[0, 1] *= 1 + 1e-8
        for e in (-900, -60, 0, 60, 900):
            s = 2.0**e * near
            assert np.array_equal(symmetrized(s, "m"), (s + s.T) / 2.0)
            with pytest.raises(ValidationError, match="m requires a symmetric"):
                symmetrized(2.0**e * far, "m")
