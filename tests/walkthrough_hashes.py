"""Run the README walkthrough with annealing and pool wrap-around solves,
two small bench studies and two small noise sweeps on a 16-vertex complex
graph through the CLI, then print `sha256  file` for every output, one line
each, sorted by name. Then print one line per CLI text output (help,
version and usage errors):
`sha256(stdout)  sha256(stderr)  exit=CODE  gbskit ARGS`, with help wrapped
at 80 columns.

Usage: python tests/walkthrough_hashes.py OUTDIR

OUTDIR must not exist yet; the commands run inside it, with relative paths,
so the outputs do not name it. The package is imported from the `src`
directory beside this file's parent. `walkthrough.sha256` beside this file
holds the lines it prints, and `test_walkthrough.py` compares a fresh run
with them, so a change that moves output bytes shows as a diff of that
file. pytest does not collect this script (its name does not start with
`test_`).
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gbskit.cli import main  # noqa: E402


def run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"gbskit {' '.join(map(str, argv))} exited {code}")


def bench(study: str, name: str, cfg: dict) -> None:
    Path(f"{name}.json").write_text(json.dumps(cfg))
    run("bench", study, "--config", f"{name}.json", "--out", name)


def walkthrough() -> None:
    graph, device, pool = "graph.json", "device.json", "pool.txt"
    run("gen", "--kind", "planted-clique", "--n", 16, "--clique-size", 6,
        "--noise-prob", 0.2, "--seed", 1, "--out", graph)
    run("encode", graph, "--mean-clicks", 6, "--out", device)
    run("sample", device, "--count", 20000, "--eta", 0.75, "--seed", 7,
        "--out", pool)
    solve = ("solve", graph, "--objective", "density", "--k", 6)
    run(*solve, "--algo", "rs", "--pool", pool, "--steps", 1000, "--seed", 3,
        "--out", "trace.csv")
    run(*solve, "--algo", "rs", "--steps", 1000, "--seed", 3,
        "--out", "trace-uniform.csv")
    run(*solve, "--algo", "greedy", "--out", "greedy.csv")
    # annealing, pool-started and uniform
    anneal = ("--algo", "sa", "--steps", 1000, "--seed", 3)
    jumps = ("--pool", pool, "--jump-prob", 0.2)
    run(*solve, *anneal, *jumps, "--out", "sa.csv")
    run("solve", graph, "--objective", "maxhaf", "--k", 6, *anneal, *jumps,
        "--out", "sa-maxhaf.csv")
    run(*solve, *anneal, "--out", "sa-uniform.csv")
    # the pool's 68 patterns of 14 clicks run out: both write "pool_wrapped": true
    wrap = ("solve", graph, "--objective", "density", "--k", 14)
    run(*wrap, "--algo", "rs", "--pool", pool, "--steps", 1000, "--seed", 3,
        "--out", "rs-wrap.csv")
    run(*wrap, *anneal, *jumps, "--out", "sa-wrap.csv")
    bench("noise-sweep", "sweep", {
        "graph": graph, "k": 6, "eta_grid": [1.0, 0.75, 0.5],
        "epsilon_grid": [0.0], "trials": 200, "seed": 42})
    bench("advantage", "advantage", {
        "graph": graph, "objective": "maxhaf", "k_values": [4, 6],
        "steps": 100, "trials": 5, "seed": 12, "pool_size": 2000})
    bench("correlate", "correlate", {"n_matrices": 30, "seed": 11})
    # non-integer densities and |Haf|^2 values, each read from the sweep's table
    run("gen", "--kind", "random-complex", "--n", 16, "--seed", 29,
        "--out", "complex.json")
    for objective in ("density", "maxhaf"):
        bench("noise-sweep", f"sweep-{objective}", {
            "graph": "complex.json", "k": 6, "eta_grid": [1.0, 0.75],
            "epsilon_grid": [0.0, 0.25], "trials": 100, "seed": 29,
            "pool_size": 3000, "objective": objective, "mean_clicks": 4.0})


# argument lists whose output is text only: help, version and usage errors
CLI_TEXT = [
    ["--help"],
    *([command, "--help"] for command in ("gen", "encode", "sample", "solve", "bench")),
    ["bench", "nope", "--config", "c.json", "--out", "o"],
    ["--version"],
    [],
]


def cli_text(argv) -> str:
    """Hashes of what `main(argv)` prints on stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return f"{'  '.join(digests)}  exit={code}  gbskit {' '.join(argv)}".rstrip()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True)
    os.chdir(out)
    walkthrough()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for argv in CLI_TEXT:
        print(cli_text(argv))
