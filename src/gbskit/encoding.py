"""Graph-to-device encoding.

A complex symmetric adjacency matrix is mapped onto squeezing values and an
interferometer through its Takagi factorization, with a scalar rescaling
factor c chosen so that tanh of every squeezing value stays below 1. The
built device's sampling matrix A block then equals c times the adjacency.
`choose_scale` picks c by bisection on the device's mean clicks, which
`gaussian` gives in closed form from the rescaled Takagi values and unitary;
no state is built until `DeviceParams.build_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaussian
from .errors import ValidationError
from .linalg import TakagiFactorization, as_matrix, symmetrized, takagi

__all__ = ["Graph", "DeviceParams", "encode_graph", "choose_scale"]

# `choose_scale` stops once expected clicks are this close to the target,
# or after this many bisection steps
_SCALE_TOL = 1e-4
_MAX_BISECTIONS = 200


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
        object.__setattr__(self, "adjacency", symmetrized(a, "Graph"))
        self.adjacency.setflags(write=False)

    def checked_subsets(self, subsets) -> tuple[np.ndarray, np.ndarray]:
        """The one subset rule: the rows of an (N, k) integer vertex array
        as intp, and the same rows each sorted ascending. A row with a vertex
        out of range or a repeated vertex is refused by its index."""
        rows = np.asarray(subsets)
        if rows.ndim != 2:
            raise ValidationError(f"expected an (N, k) subset array, got shape {rows.shape}")
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValidationError(f"subset indices must be integers, not {rows.dtype}")
        rows = rows.astype(np.intp, copy=False)
        bad = np.flatnonzero(((rows < 0) | (rows >= self.n)).any(axis=1))
        if bad.size:
            raise ValidationError(f"subset {bad[0]}: vertex out of range")
        ordered = np.sort(rows, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size:
            raise ValidationError(f"subset {bad[0]}: vertices must be distinct")
        return rows, ordered

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Adjacency submatrices (N, k, k) of the rows of an (N, k) intp
        array that `checked_subsets` passed, each in its row's order."""
        return self.adjacency.ravel().take(rows[:, :, None] * self.n + rows[:, None, :])

    def subgraphs(self, subsets) -> np.ndarray:
        """Adjacency submatrices (N, k, k) of the rows of an (N, k) integer
        vertex array, each in its row's order, checked by `checked_subsets`."""
        return self.gather(self.checked_subsets(subsets)[0])

    @cached_property
    def _takagi(self) -> TakagiFactorization:
        """The adjacency's Takagi factorization, computed once per graph."""
        fac = takagi(self.adjacency)
        fac.unitary.setflags(write=False)  # each encoded device holds it
        return fac


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
    fac = g._takagi
    lam_max = fac.values[0] if fac.values.size else 0.0
    if not 0 < c < np.inf or c * lam_max >= 1.0:
        raise ValidationError(
            f"scale must satisfy 0 < c < 1/lambda_max = "
            f"{np.inf if lam_max == 0 else 1.0 / lam_max:.6g}, got {c}"
        )
    r = np.arctanh(c * fac.values)
    return DeviceParams(squeezing=r, interferometer=fac.unitary, scale=float(c))


def choose_scale(g: Graph, target_mean_clicks: float) -> float:
    """Bisect the rescaling factor so the lossless device's expected click
    count matches the target. Expected clicks is strictly increasing in c.
    The graph is factorized once; each step rescales its Takagi values and
    reads the device's mean clicks in closed form, building no state."""
    if not 0.0 < target_mean_clicks < g.n:
        raise ValidationError(
            f"target mean clicks must lie in (0, {g.n}), got {target_mean_clicks}"
        )
    fac = g._takagi
    lam_max = fac.values[0] if fac.values.size else 0.0
    if lam_max == 0.0:
        raise ValidationError("zero graph cannot reach a positive click target")

    def expected_clicks(c: float) -> float:
        r = np.arctanh(c * fac.values)
        return sum(gaussian._device_click_probabilities(r, fac.unitary))

    hi = (1.0 - 1e-6) / lam_max
    reachable = expected_clicks(hi)
    if reachable < target_mean_clicks:
        raise ValidationError(
            f"target {target_mean_clicks} unreachable; supremum of expected "
            f"clicks is {reachable:.6g} as c -> 1/lambda_max"
        )
    lo = 0.0
    for _ in range(_MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        val = expected_clicks(mid)
        if abs(val - target_mean_clicks) < _SCALE_TOL:
            return mid
        if val < target_mean_clicks:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0

