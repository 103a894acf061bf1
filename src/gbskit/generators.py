"""Seeded graph-instance generators used by the CLI and the benchmarks."""

from __future__ import annotations

import numpy as np

from .encoding import Graph
from .errors import ValidationError

__all__ = [
    "random_complex_graph",
    "random_complex_symmetric",
    "zero_one_graph",
    "planted_clique_graph",
]


def random_complex_symmetric(
    n: int, seed: int, spectral_norm: float | None = 0.9
) -> np.ndarray:
    """Symmetric matrix with re/im parts uniform on [-1, 1], optionally
    rescaled to a fixed spectral norm."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    a = (a + a.T) / 2.0
    if spectral_norm is not None:
        top = np.linalg.norm(a, 2)
        if top > 0:
            a *= spectral_norm / top
    return a


def random_complex_graph(n: int, seed: int) -> Graph:
    """Fully connected graph with complex weights, zero diagonal."""
    a = random_complex_symmetric(n, seed, spectral_norm=None)
    np.fill_diagonal(a, 0.0)
    return Graph(n=n, adjacency=a)


def _zero_one(n: int, clique: int, prob: float, seed: int) -> Graph:
    """0/1 graph whose pairs i < j < clique are edges; every other pair, in
    `np.triu_indices` order, is one if its uniform draw is below prob."""
    i, j = np.triu_indices(n, 1)
    edge = j < clique
    edge[~edge] = np.random.default_rng(seed).random(np.count_nonzero(~edge)) < prob
    a = np.zeros((n, n))
    a[i[edge], j[edge]] = a[j[edge], i[edge]] = 1.0
    return Graph(n=n, adjacency=a)


def zero_one_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi 0/1 graph."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError("edge probability must lie in [0, 1]")
    return _zero_one(n, 0, edge_prob, seed)


def planted_clique_graph(
    n: int, clique_size: int, noise_prob: float, seed: int
) -> Graph:
    """0/1 graph with a planted clique on the first `clique_size` vertices and
    sparse background edges elsewhere."""
    if not 0 < clique_size <= n:
        raise ValidationError("clique size must lie in (0, n]")
    if not 0.0 <= noise_prob <= 1.0:
        raise ValidationError("noise edge probability must lie in [0, 1]")
    return _zero_one(n, clique_size, noise_prob, seed)
