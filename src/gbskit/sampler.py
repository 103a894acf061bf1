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


@dataclass(frozen=True)
class SamplePool:
    """Ordered collection of click patterns from one device or file."""

    modes: int
    samples: tuple
    provenance: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        for pat in self.samples:
            if len(pat) != self.modes:
                raise ValidationError(
                    f"pattern length {len(pat)} does not match modes={self.modes}"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def click_counts(self) -> np.ndarray:
        return np.array([sum(p) for p in self.samples], dtype=int)


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
    samples = tuple(map(tuple, bits.tolist()))
    return SamplePool(
        modes=state.modes,
        samples=samples,
        provenance={"kind": "simulated", "count": count},
        seed=seed,
    )


def postselect(pool: SamplePool, k: int) -> SamplePool:
    """Keep only patterns with exactly k clicks, order preserved."""
    if not 0 <= k <= pool.modes:
        raise ValidationError(f"click count {k} out of range [0, {pool.modes}]")
    kept = tuple(p for p in pool.samples if sum(p) == k)
    prov = dict(pool.provenance)
    prov["postselected_clicks"] = k
    return SamplePool(modes=pool.modes, samples=kept, provenance=prov, seed=pool.seed)


def save_pool(pool: SamplePool, path) -> None:
    """Write the pool in the plain-text sample format."""
    lines = [f"# provenance: {json.dumps(pool.provenance, sort_keys=True)}"]
    if pool.seed is not None:
        lines.append(f"# seed: {pool.seed}")
    lines.append(f"modes={pool.modes}")
    for pat in pool.samples:
        lines.append("".join(str(int(b)) for b in pat))
    from .files import atomic_write_text  # files imports bench, which imports us

    atomic_write_text(path, "\n".join(lines) + "\n")


def load_pool(path) -> SamplePool:
    """Read a sample file: 'modes=M' header, one 0/1 string per line,
    '#' lines ignored except provenance/seed comments, which are restored
    and must parse."""
    provenance: dict = {}
    seed = None
    modes = None
    samples = []
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
            if len(line) != modes or any(c not in "01" for c in line):
                raise ValidationError(
                    f"{path}:{lineno}: expected a {modes}-character 0/1 pattern, "
                    f"got {line!r}"
                )
            samples.append(tuple(int(c) for c in line))
    if modes is None:
        raise ValidationError(f"{path}: missing 'modes=M' header")
    return SamplePool(
        modes=modes, samples=tuple(samples), provenance=provenance, seed=seed
    )
