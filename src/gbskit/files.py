"""Stable on-disk formats: graph JSON, device JSON, trace CSV, reports.

All writes go through an atomic write-temp-rename so interrupted runs never
leave partial files. Every format carries a format_version field; trace
summaries and manifests also record the random-stream version of the
searchers and bench pools (`solvers.STREAM`), so outputs of different streams
can be told apart.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, astuple
from typing import TYPE_CHECKING

import numpy as np

from .encoding import DeviceParams, Graph
from .errors import ValidationError

if TYPE_CHECKING:
    from .bench import AdvantageReport, CorrelationTable, NoisePoint
    from .solvers import RunTrace

FORMAT_VERSION = 1

__all__ = [
    "atomic_write_text",
    "load_json",
    "save_graph",
    "load_graph",
    "save_device",
    "load_device",
    "save_trace",
    "save_correlation_table",
    "save_advantage_report",
    "save_noise_table",
    "save_manifest",
]


def atomic_write_text(path, text: str) -> None:
    """Write through a uniquely named temp file in the target directory,
    renamed over `path`; on failure the temp file is closed and removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    fh = None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open() would give
        fh = os.fdopen(fd, "w", encoding="utf-8")
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if fh is None:  # no file object owns fd yet
            os.close(fd)
        os.unlink(tmp)
        raise


def _json_text(payload, indent=None) -> str:
    """`payload` as JSON, keys sorted, numpy scalars as the Python numbers
    they hold (by json's `default`, which sees only what JSON cannot write)."""
    return json.dumps(payload, indent=indent, sort_keys=True, default=np.generic.item)


def _dump_json(path, payload: dict) -> None:
    atomic_write_text(path, _json_text(payload, indent=2) + "\n")


def load_json(path) -> dict:
    """Read a file holding one JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


# -- graph ------------------------------------------------------------------

def save_graph(g: Graph, path) -> None:
    entries = []
    for i in range(g.n):
        for j in range(i, g.n):
            v = g.adjacency[i, j]
            if v != 0:
                entries.append([i, j, float(v.real), float(v.imag)])
    _dump_json(path, {"format_version": FORMAT_VERSION, "n": g.n, "entries": entries})


def load_graph(path) -> Graph:
    data = load_json(path)
    for key in ("n", "entries"):
        if key not in data:
            raise ValidationError(f"{path}: graph file missing field {key!r}")
    n = data["n"]
    if type(n) is not int or n <= 0:
        raise ValidationError(f"{path}: field 'n' must be a positive integer")
    a = np.zeros((n, n), dtype=np.complex128)
    entries = data["entries"]
    for row in entries if isinstance(entries, list) else [entries]:
        if not (isinstance(row, list) and len(row) == 4
                and all(type(v) is int for v in row[:2])
                and all(type(v) in (int, float) for v in row[2:])):
            raise ValidationError(
                f"{path}: entries must be [i, j, re, im], got {row!r}"
            )
        i, j, re, im = row
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"{path}: entry index ({i}, {j}) out of range")
        a[i, j] = complex(re, im)
        a[j, i] = complex(re, im)
    return Graph(n=n, adjacency=a)


# -- device -----------------------------------------------------------------

def save_device(dev: DeviceParams, path) -> None:
    _dump_json(
        path,
        {
            "format_version": FORMAT_VERSION,
            "modes": int(dev.squeezing.size),
            "scale": dev.scale,
            "squeezing": dev.squeezing.tolist(),
            "interferometer_re": dev.interferometer.real.tolist(),
            "interferometer_im": dev.interferometer.imag.tolist(),
        },
    )


def load_device(path) -> DeviceParams:
    data = load_json(path)
    for key in ("modes", "scale", "squeezing", "interferometer_re", "interferometer_im"):
        if key not in data:
            raise ValidationError(f"{path}: device file missing field {key!r}")
    re, im, r, scale = (_numbers(path, data, key) for key in (
        "interferometer_re", "interferometer_im", "squeezing", "scale"))
    m = data["modes"]
    if type(m) is not int:
        raise ValidationError(f"{path}: field 'modes' must be an integer")
    if re.shape != (m, m) or im.shape != (m, m) or r.shape != (m,) or scale.shape:
        raise ValidationError(f"{path}: device field shapes are inconsistent")
    return DeviceParams(squeezing=r, interferometer=re + 1j * im, scale=float(scale))


def _numbers(path, data: dict, key: str) -> np.ndarray:
    """Field `key` as a float array; it must hold only (lists of) numbers."""
    try:
        arr = np.asarray(data[key])
    except ValueError:  # ragged lists
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: field {key!r} must hold numbers")
    return arr.astype(float)


# -- traces and reports -----------------------------------------------------

def _save_table(csv_path, header: str, rows, json_path, payload: dict) -> None:
    """CSV of `rows` under `header` (cells by repr of their Python numbers,
    None as an empty cell), then `payload` with the format version as its JSON mirror."""
    plain = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    lines = [header] + [",".join("" if v is None else repr(v) for v in row) for row in plain]
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    _dump_json(json_path, dict(payload, format_version=FORMAT_VERSION))


def save_trace(trace: RunTrace, csv_path, summary_path, parameters: dict) -> None:
    from .solvers import STREAM

    _save_table(
        csv_path, "step,best_value",
        enumerate(trace.best_values, start=1),
        summary_path,
        {
            "best_subset": list(trace.best_subset),
            "best_value": trace.best_values[-1],
            "steps_used": trace.steps_used,
            "seed": trace.seed,
            "pool_wrapped": trace.pool_wrapped,
            "parameters": parameters,
            "stream": STREAM,
        },
    )


def save_correlation_table(table: CorrelationTable, csv_path, json_path) -> None:
    _save_table(csv_path, "tor,haf_sq,density", table.rows, json_path, asdict(table))


def save_advantage_report(reports: list[AdvantageReport], csv_path, json_path) -> None:
    header = "photon_click_k,score_advantage,speed_advantage,trials,standard_error"
    _save_table(csv_path, header, [astuple(r) for r in reports], json_path,
                {"reports": [asdict(r) for r in reports]})


def save_noise_table(rows: list[NoisePoint], csv_path, json_path) -> None:
    header = "eta,epsilon,target,p_hat,ci_lo,ci_hi,trials,kept,no_success"
    cells = [
        (r.eta, r.epsilon, r.target, r.p_hat, *(r.ci95 or (None, None)), r.trials,
         r.kept, int(r.no_success))
        for r in rows
    ]
    _save_table(csv_path, header, cells, json_path,
                {"rows": [asdict(r) for r in rows]})


def save_manifest(path, command: str, parameters: dict) -> None:
    from . import __version__
    from .solvers import STREAM

    _dump_json(
        path,
        {
            "format_version": FORMAT_VERSION,
            "tool_version": __version__,
            "command": command,
            "parameters": parameters,
            "stream": STREAM,
        },
    )
