"""Exact threshold-detector sampling and sample-pool management.

Sampling works mode by mode through the chain rule: the conditional click
probability of mode k given a prefix outcome is a ratio of two marginal
probabilities on the first k + 1 modes. All draws of a pool advance in
lockstep, one mode at a time. Every marginal is read from one 2^M vector:
the state's whole click distribution (`gaussian.pattern_distribution`), each
level of prefix marginals summed from the halves of the level above it and
folded into it in place, so a mode costs one lookup per draw.

`sample_k_clicks` draws what post-selecting such a pool to k clicks keeps,
without drawing the rest: a Binomial kept count, then i.i.d. k-click
patterns by inverse CDF over the k-click part of the capped distribution,
which holds only the patterns of at most k clicks, with no 2^M vector while
k is small next to M.

A pool file is a 'modes=M' header and one M-character 0/1 pattern a line.
`load_pool` reads every file by one line rule, and takes a body in
`save_pool`'s own layout as one array of bytes instead; a body with any other
line in it is read line by line, about three times slower.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import ValidationError
from .files import _json_text, atomic_write_text

__all__ = [
    "SamplePool", "sample", "sample_k_clicks", "postselect", "save_pool", "load_pool",
]


@dataclass(frozen=True, eq=False)
class SamplePool:
    """Ordered click patterns from one device or file.

    Any array-like of patterns is stored as a read-only (N, modes) uint8
    array, `modes` an integer >= 1; ragged rows, rows of the wrong length and
    entries other than a real 0 or 1 raise ValidationError naming the first bad row.
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
        _check_clicks(self.click_counts(), k)
        return _clicked_modes(self.samples, k)


def _check_clicks(counts: np.ndarray, k: int) -> None:
    """Refuse the first pattern of a pool whose click count in `counts` is
    not k."""
    bad = np.flatnonzero(counts != k)
    if bad.size:
        raise ValidationError(
            f"pool pattern {bad[0]} has {counts[bad[0]]} clicks, expected {k}"
        )


def _pattern_array(samples, modes: int) -> np.ndarray:
    if gaussian._integer(modes, "modes") < 1:
        raise ValidationError(f"a pool needs at least 1 mode, got {modes}")
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
    binary = (arr == 0) | (arr == 1)
    if arr.dtype.kind in "cO":  # 1+0j equals 1, but no complex entry is 0/1
        binary &= ~np.vectorize(np.iscomplexobj, otypes=[bool])(arr)
    bad = np.flatnonzero(~binary.all(axis=1))
    if bad.size:
        raise ValidationError(f"pattern {bad[0]} is not a 0/1 pattern")
    rows = np.array(arr, dtype=np.uint8, order="C")
    rows.flags.writeable = False
    return rows


def _prefix_marginals(dist: np.ndarray) -> np.ndarray:
    """`dist` with every prefix level folded into it, in place: level j, the
    probability of each outcome on the modes below j, is the sum of the
    halves of level j + 1, written over its upper half, so it ends at
    `dist[-2^j:]`. Each lower half, all the chain rule reads, keeps its value."""
    for j in reversed(range(dist.size.bit_length() - 1)):
        top = dist[dist.size - (2 << j):]
        np.add(top[:1 << j], top[1 << j:], out=top[1 << j:])
    return dist


def sample(state: gaussian.GaussianState, count: int, seed: int) -> SamplePool:
    """Draw i.i.d. exact samples from a state's threshold-click distribution.

    With p the probability of a draw's prefix outcome and p0 that of the
    prefix plus vacuum on mode k, mode k clicks iff u_k < (p - p0) / p.
    States above `gaussian.MAX_TABLE_MODES` modes are refused.
    """
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    dist = _prefix_marginals(gaussian.pattern_distribution(state))
    uniforms = np.random.default_rng(seed).random((count, state.modes))
    clicked = np.zeros(count, dtype=np.int64)
    p = np.ones(count)
    for k in range(state.modes):
        p0 = dist[dist.size - (2 << k) + clicked]
        click = uniforms[:, k] * p < p - p0
        clicked[click] |= 1 << k
        p = np.where(click, p - p0, p0)
    return SamplePool(
        modes=state.modes,
        samples=_bits(clicked, state.modes),
        provenance={"kind": "simulated", "count": count},
        seed=seed,
    )


def sample_k_clicks(
    state: gaussian.GaussianState, count: int, k: int, seed: int
) -> SamplePool:
    """A pool with the law of `postselect(sample(state, count, seed), k)`,
    drawn without the patterns post-selection would reject (its bytes differ).

    The kept count is Binomial(count, P_k), P_k the probability of k clicks;
    each kept pattern is then an i.i.d. draw from the k-click patterns'
    probabilities over P_k, one uniform per draw through the inverse of their
    cumulative sum. Only patterns of at most k clicks are computed, in
    ascending mask order (`gaussian._capped_distribution`), and the k-click
    ones are read from them in that order (`_k_click_masks`). That law fails
    on strongly squeezed states that `sample` takes: on 4-mode devices it is
    refused as unphysical (PhysicalityError) from squeezing r ≈ 7, and its
    solve as singular (ValidationError) at r ≈ 14.
    """
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    law = gaussian._capped_distribution(state, k)
    return SamplePool(
        modes=state.modes,
        samples=_bits(_k_click_masks(law, count, k, seed), state.modes),
        provenance={"kind": "simulated", "count": count, "postselected_clicks": k},
        seed=seed,
    )


def _k_click_masks(law: tuple, count: int, k: int, seed: int) -> np.ndarray:
    """The click bitmasks of `sample_k_clicks`' pool, in draw order, from
    `law`, the (masks, probabilities) of a state's patterns of at most k
    clicks that `gaussian._capped_distributions` yields."""
    masks, dist = law
    keep = (np.bitwise_count(masks) == k) & (dist > 0)
    masks, cdf = masks[keep], np.cumsum(dist[keep])
    rng = np.random.default_rng(seed)
    kept = rng.binomial(count, min(cdf[-1], 1.0)) if masks.size else 0
    # u * P_k can round up to P_k itself, past the last bin
    picks = np.searchsorted(cdf, rng.random(kept) * cdf[-1:], side="right")
    return masks[np.minimum(picks, masks.size - 1)]


def _bits(clicked: np.ndarray, modes: int) -> np.ndarray:
    """Click bitmasks as an (N, modes) 0/1 array, bit i in column i."""
    return ((clicked[:, None] >> np.arange(modes)) & 1).astype(np.uint8)


def _clicked_modes(bits: np.ndarray, k: int) -> np.ndarray:
    """`np.nonzero(bits)[1]` of an (N, M) 0/1 array of k ones a row, as (N, k)."""
    return (np.flatnonzero(bits) % bits.shape[1]).reshape(len(bits), k)


def postselect(pool: SamplePool, k: int) -> SamplePool:
    """Keep only patterns with exactly k clicks, order preserved."""
    if not 0 <= gaussian._integer(k, "click count k") <= pool.modes:
        raise ValidationError(f"click count {k} out of range [0, {pool.modes}]")
    return SamplePool(
        modes=pool.modes,
        samples=pool.samples[pool.click_counts() == k],
        provenance=dict(pool.provenance, postselected_clicks=k),
        seed=pool.seed,
    )


def save_pool(pool: SamplePool, path) -> None:
    """Write the pool in the plain-text sample format."""
    lines = [f"# provenance: {_json_text(pool.provenance)}"]
    if pool.seed is not None:
        lines.append(f"# seed: {pool.seed}")
    lines.append(f"modes={pool.modes}")
    # each row's digits and a newline, as one byte array
    body = np.insert(pool.samples + ord("0"), pool.modes, ord("\n"), axis=1)
    atomic_write_text(path, "\n".join(lines) + "\n" + body.tobytes().decode("ascii"))


# Each pool-file header: how its value parses, its type, and the refusal otherwise.
_HEADERS = {
    "provenance": (json.loads, dict, "provenance header is not a JSON object"),
    "seed": (int, int, "seed header is not an integer"),
    "modes": (int, int, "malformed mode count in header"),
}


def _header_value(path, lineno: int, name: str, text: str):
    """`text` parsed by header `name`'s rule, or refused at `path:lineno`."""
    parse, kind, refusal = _HEADERS[name]
    try:
        value = parse(text)
    except ValueError:  # json.JSONDecodeError is one
        value = None
    if not isinstance(value, kind):
        raise ValidationError(f"{path}:{lineno}: {refusal}")
    return value


def _read_comment(path, lineno: int, line: str, comments: dict) -> None:
    """Store a '#' line's header in `comments` if it names one of its keys."""
    name, colon, text = line[1:].lstrip().partition(":")
    if colon and name in comments:
        comments[name] = _header_value(path, lineno, name, text)


def load_pool(path) -> SamplePool:
    """Read a sample file: a 'modes=M' header, then one M-character 0/1
    pattern a line. Each line is stripped: blank lines are skipped, '#'
    lines are comments, of which the provenance/seed headers are restored
    and must parse, and the first other line that is not a pattern is
    refused by its number. CR and CRLF endings read as newlines. A body in
    `save_pool`'s layout, M bytes of 0/1 and a newline a line, is one
    (N, M + 1) byte array; a body with a comment, blank, padded or bad line
    in it is read line by line, at Python speed."""
    comments = {"provenance": {}, "seed": None}  # pool fields kept in '#' headers
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines, modes, patterns = io.StringIO(text), None, []
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if line.startswith("#"):
            _read_comment(path, lineno, line, comments)
        elif not line:
            continue
        elif modes is None:
            if not line.startswith("modes="):
                raise ValidationError(
                    f"{path}:{lineno}: expected 'modes=M' header, got {line!r}"
                )
            modes = _header_value(path, lineno, "modes", line[len("modes="):])
            if modes <= 0:
                raise ValidationError(f"{path}:{lineno}: modes must be positive")
            # the rest in save_pool's layout, as an (N, M + 1) view of its
            # bytes; a size that is no multiple of M + 1 builds no view
            body = np.frombuffer(text[lines.tell():].encode("utf-8"), dtype=np.uint8)
            if body.size % (modes + 1) == 0:
                rows = body.reshape(-1, modes + 1)
                digits = rows[:, :modes]
                if ((digits | 1) == ord("1")).all() and (rows[:, modes] == ord("\n")).all():
                    return SamplePool(modes=modes, samples=digits - ord("0"), **comments)
        elif len(line) == modes and not line.strip("01"):
            patterns.append(line)
        else:
            raise ValidationError(f"{path}:{lineno}: expected a {modes}-character "
                                  f"0/1 pattern, got {line!r}")
    if modes is None:
        raise ValidationError(f"{path}: missing 'modes=M' header")
    rows = np.frombuffer("".join(patterns).encode("ascii"), dtype=np.uint8)
    return SamplePool(modes=modes, samples=rows.reshape(-1, modes) - ord("0"), **comments)
