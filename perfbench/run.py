"""gbskit benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload pool|search|sweep --seed N \
        --seconds S --trace 0|1 [--toy]

With --trace 0 the run times set-up (median of several), then runs rounds
of the workload's distinct ops, the same ops each round, for about S
seconds (at least one round), checks every op's output, and prints the
end-to-end metrics. An op's time is the median of its rounds. Set-up and op
times are scaled to a reference host speed (see `RefClock`); the raw times
are printed beside them. With --trace 1 it runs one traced set-up, then
pairs each op untraced and traced (alternating which goes first) for at
least S seconds, and prints per-layer metrics for one set-up plus one mean
op, and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --toy shrinks every
size so a test can run all workloads in seconds.

BENCHMARK.json gates search and sweep; pool runs the same way but is not
gated (see workloads.py).

Run it from the repository root; it imports gbskit from ./src and writes only
under perfbench/out/.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads it, so timings do not depend on
# how many cores the machine has or what else runs on them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Per-layer metrics: (span name, fields) -> "<span>.<field>". The end-to-end
# metric each should move, and where (no change is predicted elsewhere):
#   sampler.sample.{s,self_s,draws}: draws_per_s, op_p50_s on pool and sweep;
#     setup_s on search. The sampler's own determinants are its self time.
#   gaussian.mean_clicks, gaussian.pattern_probability, matfn.torontonian,
#   linalg.takagi, encoding.choose_scale, encoding.encode_graph: setup_s on
#     every workload (the choose_scale bisection), op_p50_s on sweep.
#   gaussian.apply_thermal, gaussian.apply_loss, gaussian.state_from_device:
#     op_p50_s on sweep.
#   matfn.hafnian_sq_mod, solvers.objective.{evals,hit_ratio}:
#     maxhaf_steps_per_s on search.
#   solvers.{random_search,simulated_annealing}.self_s, solvers.density:
#     density_steps_per_s and maxhaf_steps_per_s on search; a small share of
#     sweep (its classical-target RS).
#   sampler.{postselect,save_pool,load_pool}, bench.resampled_pool_source:
#     setup_s and op_p50_s on search.
#   bench.noise_sweep.self_s, files.s, cli.main.self_s, generators.s:
#     op_p50_s on sweep, a small share.
#   encoding.roundtrip_err and trace.overhead_frac: none (readings).
SPAN_FIELDS = [
    ("sampler.sample", ("s", "self_s")),
    ("gaussian.mean_clicks", ("calls", "s")),
    ("gaussian.pattern_probability", ("calls", "s")),
    ("matfn.torontonian", ("calls", "s")),
    ("linalg.takagi", ("calls", "s")),
    ("encoding.choose_scale", ("s",)),
    ("encoding.encode_graph", ("calls",)),
    ("gaussian.apply_thermal", ("s",)),
    ("gaussian.apply_loss", ("s",)),
    ("gaussian.state_from_device", ("s",)),
    ("matfn.hafnian_sq_mod", ("calls", "s")),
    ("solvers.random_search", ("self_s",)),
    ("solvers.simulated_annealing", ("self_s",)),
    ("solvers.density", ("calls", "s")),
    ("sampler.postselect", ("s",)),
    ("sampler.save_pool", ("s",)),
    ("sampler.load_pool", ("s",)),
    ("bench.resampled_pool_source", ("s",)),
    ("bench.noise_sweep", ("self_s",)),
    ("cli.main", ("self_s",)),
]
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
MODULE_LAYERS = ("files", "generators")  # reported whole, as "<module>.s"


def _metadata(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "gbskit").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "src_lines": src_lines,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_op(wl, i, failures, tracer=None, clock=None):
    """Run op i (traced when a tracer is given), then check it outside any
    span. Return (seconds, blocks, result, ok); with a clock, seconds are net
    of its handler and blocks are the reference blocks it timed during the
    op, else blocks is empty."""
    mark = clock.mark() if clock else perf_counter()

    def elapsed():
        return clock.since(mark) if clock else (perf_counter() - mark, [])

    try:
        if tracer is None:
            result = wl.op(i)
        else:
            with tracer.root("op"):
                result = wl.op(i)
    except Exception:  # any raise is a failed op; keep measuring the rest
        seconds, blocks = elapsed()
        failures.append(f"op {i}: {traceback.format_exc(limit=2).strip()}")
        return seconds, blocks, None, False
    seconds, blocks = elapsed()
    try:
        wl.check(i, result)
    except Exception as exc:
        failures.append(f"op {i}: check failed: {type(exc).__name__}: {exc}")
        return seconds, blocks, result, False
    return seconds, blocks, result, True


def _tail(times):
    """Highest percentile with at least 10 ops beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    j = n - 11
    return sorted(times)[j], 100.0 * (j + 1) / n


class RefClock:
    """Measures the host's speed while spans run, with a fixed reference block.

    On a shared host a vCPU can run 1.3-2x slower for seconds to tens of
    minutes while other tenants are busy, and that moves every wall time
    of a run alike. While a clock is running, a real-time interval timer
    interrupts the program every INTERVAL seconds and its signal handler
    times one reference block: a pure-Python loop, dict lookups on bit
    tuples and small numpy determinants, the kinds of work gbskit does, but
    no gbskit code, so no change to gbskit moves it. A span's time is its
    wall time minus the time spent in the handler, scaled by
    `REF_S / mean block time during the span`: the seconds it would have
    taken on a host that runs the block in REF_S seconds. The raw times
    are printed beside the scaled ones.
    """

    REF_S = 0.0012  # about the block's time on an unloaded 2.1 GHz Xeon vCPU
    INTERVAL = 0.05

    def __init__(self):
        import numpy as np

        self._np = np
        self._mats = np.random.default_rng(0).random((4, 8, 8)) + 8 * np.eye(8)
        self._keys = [tuple((k >> b) & 1 for b in range(12)) for k in range(1500)]
        self._memo = dict.fromkeys(self._keys, 0.5)
        self.blocks = []  # every block time, in order
        self.handler_s = 0.0  # total time spent in the signal handler

    def _block(self) -> None:
        np = self._np
        acc = 0.0
        for k in range(10_000):
            acc += k * k % 7
        for key in self._keys:
            acc += self._memo.get(key + (1,), 0.0) + self._memo[key]
        half = np.ix_([0, 2, 4, 6], [0, 2, 4, 6])
        for m in self._mats:
            np.linalg.det(m[half])

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self._block()
        end = perf_counter()
        self.blocks.append(end - start)
        self.handler_s += perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        return perf_counter(), self.handler_s, len(self.blocks)

    def since(self, mark):
        """(Wall seconds since `mark` net of the handler, the block times
        taken since `mark`)."""
        start, spent, first = mark
        seconds = perf_counter() - start - (self.handler_s - spent)
        return seconds, self.blocks[first:]

    def factor(self, blocks) -> float:
        """REF_S over the mean of some block times (1.0 when there are none)."""
        return self.REF_S / statistics.fmean(blocks) if blocks else 1.0


MIN_ROUNDS = 1


def run_untraced(wl, seconds: float):
    with RefClock() as clock:
        return _measure(wl, seconds, clock)


def _measure(wl, seconds: float, clock: RefClock):
    setup = []
    for _ in range(wl.setup_reps):
        mark = clock.mark()
        wl.setup()
        setup.append(clock.since(mark)[0])
    # set-ups can be shorter than the timer's interval: scale them together
    setup_factor = clock.factor(clock.blocks)
    roundtrip = wl.reference()
    op_start = len(clock.blocks)
    raw = [[] for _ in range(wl.distinct)]
    scaled = [[] for _ in range(wl.distinct)]
    failures, attempted, rounds = [], 0, 0
    start = perf_counter()
    # stop before a round that would, at the mean round time so far, end
    # past `seconds`
    while rounds < MIN_ROUNDS or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for i in range(wl.distinct):
            dt, blocks, result, ok = _run_op(wl, i, failures, clock=clock)
            raw[i].append(dt)
            # an op shorter than the interval takes the phase's mean so far
            scaled[i].append(dt * clock.factor(blocks or clock.blocks[op_start:]))
            attempted += 1
            if ok:
                wl.record(result, dt)
        rounds += 1
    op_factor = clock.factor(clock.blocks[op_start:])
    raw_times = [statistics.median(t) for t in raw]
    times = [statistics.median(t) for t in scaled]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "setup_s": (statistics.median(setup) * setup_factor, "s",
                    f"median of {len(setup)} set-ups, scaled by "
                    f"{setup_factor:.4f}; raw {statistics.median(setup):.4f} s"),
        "op_p50_s": (statistics.median(times), "s",
                     f"median of {len(times)} ops, each the median of its "
                     f"{rounds} rounds, each scaled (by {op_factor:.4f} on "
                     f"average); raw {statistics.median(raw_times):.4f} s"),
    }
    tail = _tail(times)
    if tail is None:
        report["op_tail_s"] = (None, "s", f"absent: only {len(times)} distinct ops")
    else:
        report["op_tail_s"] = (tail[0], "s", f"p{tail[1]:.1f} of {len(times)} ops")
    if len(failures) < attempted:
        for name, (value, unit) in wl.rates().items():
            report[name] = (value, unit, "")
    report["peak_rss_mb"] = (peak_mb, "MB", "")
    report["ref_block_s"] = (statistics.fmean(clock.blocks or [float("nan")]), "s",
                             f"mean of {len(clock.blocks)} reference blocks; "
                             f"REF_S = {clock.REF_S}")
    report["failed_frac"] = (len(failures) / attempted, "1",
                             f"{len(failures)} failed of {attempted} attempted")
    gated = {k: report[k][:2] for k in ("setup_s", "op_p50_s", "peak_rss_mb")}
    return report, roundtrip, gated, attempted, failures


def run_traced(wl, seconds: float, span_path: Path):
    import tracing

    tracer = tracing.Tracer()
    with tracer.root("setup"):
        wl.setup()
    roundtrip = wl.reference()
    plain, traced, failures, i = [], [], [], 0
    start = perf_counter()
    while i < wl.distinct or perf_counter() - start < seconds:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            dt, _, _, _ = _run_op(wl, i % wl.distinct, failures,
                                  tracer if with_trace else None)
            (traced if with_trace else plain).append(dt)
        i += 1
    tracer.write(span_path)
    n = len(traced)
    table = tracer.layer_table(n)
    empty = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "outer_s": 0.0}
    metrics = {}
    for span, fields in SPAN_FIELDS:
        row = table.get(span, empty)
        for field in fields:
            metrics[f"{span}.{field}"] = (row[field], FIELD_UNITS[field])
    for module in MODULE_LAYERS:
        metrics[f"{module}.s"] = (sum(
            row["outer_s"] for name, row in table.items()
            if name.startswith(module + ".")
        ), "s")
    draws = tracer.counter("sampler.sample.draws", n)
    metrics["sampler.sample.draws"] = (draws, "count")
    seen = tracer.counter("sampler.postselect.seen", n)
    kept = tracer.counter("sampler.postselect.kept", n)
    metrics["sampler.postselect.kept_ratio"] = (kept / seen if seen else 0.0, "ratio")
    evals = tracer.counter("solvers.objective.evals", n)
    haf_evals = tracer.counter("solvers.objective.maxhaf_evals", n)
    haf_calls = table.get("matfn.hafnian_sq_mod", empty)["calls"]
    metrics["solvers.objective.evals"] = (evals, "count")
    metrics["solvers.objective.hit_ratio"] = (
        1.0 - haf_calls / haf_evals if haf_evals else 0.0, "ratio"
    )
    metrics["encoding.roundtrip_err"] = (roundtrip, "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"
    )
    return metrics, table, len(plain) + len(traced), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pool", "search", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "gbskit" / "__init__.py").is_file():
        print(f"run.py: no gbskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    for key, value in _metadata(args).items():
        print(f"context {key} = {value}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
        if args.trace:
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            metrics, table, attempted, failures = run_traced(
                wl, args.seconds, span_path
            )
            print(f"context spans = {span_path.relative_to(ROOT)}")
            print("layer: calls, s, self_s per set-up plus one mean op")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"  {name:32s} {row['calls']:12.1f} {row['s']:12.6f} "
                      f"{row['self_s']:12.6f}")
            for name, (value, unit) in metrics.items():
                print(f"metric {name} = {value!r} {unit}")
            result_metrics = metrics
        else:
            report, roundtrip, result_metrics, attempted, failures = run_untraced(
                wl, args.seconds
            )
            for name, (value, unit, note) in report.items():
                shown = "absent" if value is None else repr(value)
                print(f"metric {name} = {shown} {unit}" + (f" ({note})" if note else ""))
            print(f"context encoding.roundtrip_err = {roundtrip!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in result_metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
