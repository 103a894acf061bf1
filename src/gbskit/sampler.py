"""Exact threshold-detector sampling and sample-pool management.

Sampling works mode by mode through the chain rule: the conditional click
probability of mode k given a prefix outcome is a ratio of two marginal
probabilities on the first k + 1 modes. All draws of a pool advance in
lockstep, one mode at a time. At mode k a draw's click bitmask over the
modes before k fixes its whole prefix (the vacuum modes are the complement),
so the distinct masks are the distinct prefixes, and one call of the
batched vacuum-probability kernel (`gaussian.marginal_probabilities`) gives
every prefix's probability with vacuum on mode k. The kernel's table of
subset determinants lives on the state, so later modes and later pools from
the same state reuse almost all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import CostGuardError, ValidationError

__all__ = ["SamplePool", "sample", "postselect", "save_pool", "load_pool"]

MAX_EXPECTED_CLICKS = 14


@dataclass(frozen=True, eq=False)
class SamplePool:
    """Ordered click patterns from one device or file.

    Any array-like of patterns is stored as a read-only (N, modes) uint8
    array; ragged rows, rows of the wrong length and entries other than 0
    or 1 raise ValidationError naming the first bad row.
    """

    modes: int
    samples: np.ndarray
    provenance: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", _pattern_array(self.samples, self.modes))

    def __len__(self) -> int:
        return len(self.samples)

    def click_counts(self) -> np.ndarray:
        return self.samples.sum(axis=1, dtype=int)

    def subsets(self, k: int) -> np.ndarray:
        """The clicked modes of each pattern, ascending, as an (N, k) index
        array; every pattern must have exactly k clicks."""
        counts = self.click_counts()
        bad = np.flatnonzero(counts != k)
        if bad.size:
            raise ValidationError(
                f"pool pattern {bad[0]} has {counts[bad[0]]} clicks, expected {k}"
            )
        return np.nonzero(self.samples)[1].reshape(len(self), k)


def _pattern_array(samples, modes: int) -> np.ndarray:
    try:
        arr = np.asarray(samples)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.shape == (0,):
        arr = arr.reshape(0, modes)
    if arr is None or arr.shape[1:] != (modes,):
        for i, row in enumerate(samples):
            if not hasattr(row, "__len__") or len(row) != modes:
                raise ValidationError(f"pattern {i} does not have {modes} entries")
        raise ValidationError(f"patterns do not form an (N, {modes}) array")
    bad = np.flatnonzero(~np.isin(arr, (0, 1)).all(axis=1))
    if bad.size:
        raise ValidationError(f"pattern {bad[0]} is not a 0/1 pattern")
    rows = np.array(arr, dtype=np.uint8, order="C")
    rows.flags.writeable = False
    return rows


def sample(state: gaussian.GaussianState, count: int, seed: int) -> SamplePool:
    """Draw i.i.d. exact samples from a state's threshold-click distribution.

    With p the probability of a draw's prefix outcome and p0 that of the
    prefix plus vacuum on mode k, mode k clicks iff u_k < (p - p0) / p.
    States above `gaussian.MAX_TABLE_MODES` modes are refused by the kernel.
    """
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    expected = gaussian.mean_clicks(state)
    if expected > MAX_EXPECTED_CLICKS:
        raise CostGuardError(
            f"expected click count {expected:.2f} exceeds the sampling cost "
            f"guard of {MAX_EXPECTED_CLICKS}"
        )
    uniforms = np.random.default_rng(seed).random((count, state.modes))
    clicked = np.zeros(count, dtype=np.int64)
    p = np.ones(count)
    for k in range(state.modes):
        prefixes, inverse = np.unique(clicked, return_inverse=True)
        p0 = gaussian.marginal_probabilities(
            state, ((2 << k) - 1) ^ prefixes, prefixes
        )[inverse]
        click = uniforms[:, k] * p < p - p0
        clicked[click] |= 1 << k
        p = np.where(click, p - p0, p0)
    bits = (clicked[:, None] >> np.arange(state.modes)) & 1
    return SamplePool(
        modes=state.modes,
        samples=bits.astype(np.uint8),
        provenance={"kind": "simulated", "count": count},
        seed=seed,
    )


def postselect(pool: SamplePool, k: int) -> SamplePool:
    """Keep only patterns with exactly k clicks, order preserved."""
    if not 0 <= k <= pool.modes:
        raise ValidationError(f"click count {k} out of range [0, {pool.modes}]")
    return SamplePool(
        modes=pool.modes,
        samples=pool.samples[pool.click_counts() == k],
        provenance=dict(pool.provenance, postselected_clicks=k),
        seed=pool.seed,
    )


def save_pool(pool: SamplePool, path) -> None:
    """Write the pool in the plain-text sample format."""
    lines = [f"# provenance: {json.dumps(pool.provenance, sort_keys=True)}"]
    if pool.seed is not None:
        lines.append(f"# seed: {pool.seed}")
    lines.append(f"modes={pool.modes}")
    # each row's digits and a newline, as one byte array
    body = np.insert(pool.samples + ord("0"), pool.modes, ord("\n"), axis=1)
    from .files import atomic_write_text  # files imports bench, which imports us

    atomic_write_text(path, "\n".join(lines) + "\n" + body.tobytes().decode("ascii"))


def load_pool(path) -> SamplePool:
    """Read a sample file: 'modes=M' header, one 0/1 string per line,
    '#' lines ignored except provenance/seed comments, which are restored
    and must parse."""
    provenance: dict = {}
    seed = None
    modes = None
    patterns = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("provenance:"):
                    try:
                        provenance = json.loads(body[len("provenance:"):])
                    except json.JSONDecodeError:
                        provenance = None
                    if not isinstance(provenance, dict):
                        raise ValidationError(
                            f"{path}:{lineno}: provenance header is not a JSON object"
                        )
                elif body.startswith("seed:"):
                    try:
                        seed = int(body[len("seed:"):])
                    except ValueError:
                        raise ValidationError(
                            f"{path}:{lineno}: seed header is not an integer"
                        ) from None
                continue
            if modes is None:
                if not line.startswith("modes="):
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'modes=M' header, got {line!r}"
                    )
                try:
                    modes = int(line[len("modes="):])
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: malformed mode count in header"
                    ) from None
                if modes <= 0:
                    raise ValidationError(f"{path}:{lineno}: modes must be positive")
                continue
            if len(line) != modes or line.strip("01"):
                raise ValidationError(
                    f"{path}:{lineno}: expected a {modes}-character 0/1 pattern, "
                    f"got {line!r}"
                )
            patterns.append(line)
    if modes is None:
        raise ValidationError(f"{path}: missing 'modes=M' header")
    digits = np.frombuffer("".join(patterns).encode("ascii"), dtype=np.uint8)
    return SamplePool(
        modes=modes,
        samples=digits.reshape(-1, modes) - ord("0"),
        provenance=provenance,
        seed=seed,
    )
