"""The run path loads no scipy. Only `bench.correlation_study` uses it, and
imports it inside the function; each check runs in a fresh interpreter, so
no other test's imports count."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run(code):
    """What `code`, run in a fresh interpreter with gbskit on its path,
    prints last, read as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_modules_and_the_run_path_load_no_scipy():
    # a star graph has rank 2, so its Takagi basis needs completing
    assert run("""
import importlib, json, pkgutil
import numpy as np
import gbskit
for info in pkgutil.iter_modules(gbskit.__path__):
    importlib.import_module("gbskit." + info.name)
from gbskit import sampler
from gbskit.encoding import Graph, choose_scale, encode_graph
a = np.zeros((6, 6))
a[0, 1:] = a[1:, 0] = 1.0
g = Graph(n=6, adjacency=a)
sampler.sample(encode_graph(g, choose_scale(g, 2.0)).build_state(), 5, seed=0)
print(json.dumps([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]))
""") == []


def test_correlation_study_still_returns_its_table():
    got = run("""
import json, math
from gbskit import bench
t = bench.correlation_study(5, seed=0)
print(json.dumps([len(t.rows), "scipy.stats" in sys.modules,
                  all(map(math.isfinite, [t.spearman_tor_haf, t.pvalue_tor_haf]))]))
""")
    assert got == [5, True, True]
