"""Graph-to-device encoding.

A complex symmetric adjacency matrix is mapped onto squeezing values and an
interferometer through its Takagi factorization, with a scalar rescaling
factor c chosen so that tanh of every squeezing value stays below 1. The
built device's sampling matrix A block then equals c times the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import ValidationError
from .linalg import as_matrix, takagi

__all__ = ["Graph", "DeviceParams", "encode_graph", "choose_scale", "subgraph"]

_SYM_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Undirected graph as a complex symmetric adjacency matrix."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.adjacency)
        if a.shape != (self.n, self.n):
            raise ValidationError(
                f"adjacency shape {a.shape} does not match n={self.n}"
            )
        scale = max(np.linalg.norm(a), 1.0)
        if np.linalg.norm(a - a.T) > _SYM_TOL * scale:
            raise ValidationError("adjacency matrix must be symmetric")
        a = (a + a.T) / 2.0
        object.__setattr__(self, "adjacency", a)
        self.adjacency.setflags(write=False)


@dataclass(frozen=True)
class DeviceParams:
    """Squeezing values, interferometer, and the rescaling factor used."""

    squeezing: np.ndarray
    interferometer: np.ndarray
    scale: float

    def build_state(self) -> gaussian.GaussianState:
        return gaussian.state_from_device(self.squeezing, self.interferometer)


def encode_graph(g: Graph, c: float) -> DeviceParams:
    """Encode adjacency Delta so the device sampling matrix equals c*Delta."""
    fac = takagi(g.adjacency)
    lam_max = fac.values[0] if fac.values.size else 0.0
    if c <= 0 or (lam_max > 0 and c * lam_max >= 1.0):
        raise ValidationError(
            f"scale must satisfy 0 < c < 1/lambda_max = "
            f"{np.inf if lam_max == 0 else 1.0 / lam_max:.6g}, got {c}"
        )
    r = np.arctanh(c * fac.values)
    return DeviceParams(squeezing=r, interferometer=fac.unitary, scale=float(c))


def choose_scale(
    g: Graph, target_mean_clicks: float, tol: float = 1e-4, max_iter: int = 200
) -> float:
    """Bisect the rescaling factor so the lossless device's expected click
    count matches the target. Expected clicks is strictly increasing in c.
    The graph is factorized once; each step rescales its Takagi values."""
    if not 0.0 < target_mean_clicks < g.n:
        raise ValidationError(
            f"target mean clicks must lie in (0, {g.n}), got {target_mean_clicks}"
        )
    fac = takagi(g.adjacency)
    lam_max = fac.values[0] if fac.values.size else 0.0
    if lam_max == 0.0:
        raise ValidationError("zero graph cannot reach a positive click target")

    def expected_clicks(c: float) -> float:
        r = np.arctanh(c * fac.values)
        return gaussian.mean_clicks(gaussian.state_from_device(r, fac.unitary))

    hi = (1.0 - 1e-6) / lam_max
    reachable = expected_clicks(hi)
    if reachable < target_mean_clicks:
        raise ValidationError(
            f"target {target_mean_clicks} unreachable; supremum of expected "
            f"clicks is {reachable:.6g} as c -> 1/lambda_max"
        )
    lo = 0.0
    for _ in range(max_iter):
        mid = (lo + hi) / 2.0
        val = expected_clicks(mid) if mid > 0 else 0.0
        if abs(val - target_mean_clicks) < tol:
            return mid
        if val < target_mean_clicks:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def subgraph(g: Graph, pattern) -> Graph:
    """Induced subgraph on the clicked vertices of a pattern."""
    bits = np.asarray(pattern, dtype=int)
    if bits.shape != (g.n,):
        raise ValidationError(
            f"pattern length {bits.size} does not match graph size {g.n}"
        )
    keep = np.flatnonzero(bits == 1)
    sub = g.adjacency[np.ix_(keep, keep)]
    return Graph(n=len(keep), adjacency=sub)
