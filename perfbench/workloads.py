"""The benchmark's three workloads, each with its set-up, op and output check.

Op seeds derive from the workload seed, and so does the search graph. The
pool's three graphs and the sweep's README walkthrough graph are fixed: a
pool's cost moves with its graph by about 15%, which a run of three ops
cannot average out. All calls into gbskit go through its modules'
attributes, so the tracer's wrappers see them.

A run's ops are `op(0)` .. `op(distinct - 1)`, and every op does the same
work each time it runs with the same index, so the runner can time each one
several times.

- pool: 1000-draw exact pools from lossless 16-mode devices at 6 mean
  clicks, one op per device. The sampler does nearly all the work, most of
  it filling its per-state memo. BENCHMARK.json does not gate it: each op
  is one 4-7 s sampler call, so a run holds too few to average the host's
  slow spells out, and its runs do not fit the benchmark's time budget
  beside the other two. The
  sampler's cost is gated through sweep's op_p50_s (about three quarters of
  a sweep op) and search's setup_s (a 3000-draw pool).
- search: one advantage-study trial per op (Pool-RS and uniform RS on
  |Haf|^2, pool-start SA on density) with fresh objectives, as each
  `gbskit solve` call has. The solvers and the hafnian do the work.
- sweep: one `gbskit bench noise-sweep` call per op over the grid
  eta in {1, 0.75} x epsilon in {0, 0.25} on a planted-clique 0/1 graph:
  many short, cold-memo pools from noisy states, through the CLI, the noise
  channels and the file writers.
"""

from __future__ import annotations

import csv
import json
import os
from time import perf_counter

import numpy as np

from gbskit import (
    bench, cli, encoding, files, gaussian, generators, matfn, sampler, solvers,
)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def op_seed(seed: int, i: int, part: int = 0) -> int:
    return int(np.random.default_rng([seed, i, part]).integers(2**31))


def roundtrip_err(state, graph, scale: float) -> float:
    """Relative error of the device's sampling matrix against c * adjacency."""
    want = scale * graph.adjacency
    got = gaussian.sampling_matrix(state).a
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class Workload:
    """Base: `setup` builds the inputs, `op(i)` for i < `distinct` is one
    timed call into gbskit, `check(i, result)` raises CheckFailed on a wrong
    output."""

    name = ""
    setup_reps = 1  # set-ups per run; setup_s is their median
    distinct = 1  # distinct ops per run

    def __init__(self, seed: int, toy: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def reference(self) -> float:
        """Untimed exact values the checks compare against; returns the
        device's encoding roundtrip error."""
        raise NotImplementedError

    def record(self, result, seconds: float) -> None:
        """Account an untraced op's work for `rates`."""

    def rates(self) -> dict:
        """Workload-specific throughputs: name -> (value, unit)."""
        return {}


def graph_seed(seed: int, j: int) -> int:
    """Seed of the workload's j-th seed-derived random complex graph."""
    return op_seed(seed, j, 4)


def encoded(graph, clicks: float):
    """(scale, lossless state) of a graph encoded to `clicks` mean clicks."""
    scale = encoding.choose_scale(graph, clicks)
    return scale, encoding.encode_graph(graph, scale).build_state()


class Pool(Workload):
    name = "pool"
    setup_reps = 7
    distinct = 3  # op i samples graph i

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.modes, self.clicks, self.draws = (8, 3.0, 60) if toy else (16, 6.0, 1000)
        self.drawn = 0
        self.sample_s = 0.0

    def setup(self):
        self.graphs = [
            generators.random_complex_graph(self.modes, j + 1)
            for j in range(self.distinct)
        ]
        self.devices = [encoded(g, self.clicks) for g in self.graphs]

    def reference(self):
        self.exact = [
            (gaussian.mean_clicks(state), np.array([
                gaussian.mode_click_probability(state, m) for m in range(self.modes)
            ]))
            for _, state in self.devices
        ]
        return max(
            roundtrip_err(state, g, scale)
            for g, (scale, state) in zip(self.graphs, self.devices)
        )

    def op(self, i):
        _, state = self.devices[i]
        return sampler.sample(state, self.draws, op_seed(self.seed, i))

    def record(self, result, seconds):
        self.drawn += len(result)
        self.sample_s += seconds

    def check(self, i, pool):
        mean, mode_p = self.exact[i]
        bits = np.array(pool.samples, dtype=float)
        if bits.shape != (self.draws, self.modes):
            raise CheckFailed(f"pool shape {bits.shape}")
        clicks = bits.sum(axis=1)
        se = clicks.std(ddof=1) / np.sqrt(self.draws)
        if abs(clicks.mean() - mean) > 5 * se:
            raise CheckFailed(
                f"mean clicks {clicks.mean():.4f} vs exact {mean:.4f} "
                f"(5 SE = {5 * se:.4f})"
            )
        freq = bits.mean(axis=0)
        mode_se = np.sqrt(mode_p * (1 - mode_p) / self.draws)
        bad = np.flatnonzero(np.abs(freq - mode_p) > 5 * mode_se)
        if bad.size:
            m = int(bad[0])
            raise CheckFailed(f"mode {m} clicks {freq[m]:.4f} vs exact {mode_p[m]:.4f}")

    def rates(self):
        return {"draws_per_s": (self.drawn / self.sample_s, "1/s")}


class Search(Workload):
    name = "search"
    setup_reps = 3

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.modes, self.k, self.draws, self.steps = (
            (8, 4, 300, 20) if toy else (16, 6, 3000, 500)
        )
        self.distinct = 4 if toy else 20
        self.maxhaf = [0, 0.0]  # steps, seconds
        self.density = [0, 0.0]

    def setup(self):
        self.graph = generators.random_complex_graph(
            self.modes, graph_seed(self.seed, 0)
        )
        self.scale, self.state = encoded(self.graph, float(self.k))
        # part 3: ops use parts 0-2 of their own index
        raw = sampler.sample(self.state, self.draws, op_seed(self.seed, 0, 3))
        path = os.path.join(self.workdir, "pool.txt")
        sampler.save_pool(raw, path)
        self.pool = sampler.postselect(sampler.load_pool(path), self.k)

    def reference(self):
        return roundtrip_err(self.state, self.graph, self.scale)

    def op(self, i):
        g, k, s = self.graph, self.k, self.steps
        seeds = [op_seed(self.seed, i, part) for part in range(3)]
        # fresh objectives per op, as each `gbskit solve` call builds its own
        om = solvers.Objective("maxhaf", g, k)
        od = solvers.Objective("density", g, k)
        src = bench.resampled_pool_source(self.pool, s, seeds[0])
        t0 = perf_counter()
        pool_rs = solvers.random_search(om, src, s, seeds[0])
        uniform_rs = solvers.random_search(
            om, solvers.ProposalSource("uniform"), s, seeds[1]
        )
        t1 = perf_counter()
        sa = solvers.simulated_annealing(
            od, solvers.ProposalSource("pool", self.pool), 4 * s,
            jump_prob=0.1, seed=seeds[2],
        )
        t2 = perf_counter()
        return (pool_rs, uniform_rs, sa), (t1 - t0, t2 - t1)

    def record(self, result, seconds):
        (pool_rs, uniform_rs, sa), (rs_s, sa_s) = result
        self.maxhaf[0] += pool_rs.steps_used + uniform_rs.steps_used
        self.maxhaf[1] += rs_s
        self.density[0] += sa.steps_used
        self.density[1] += sa_s

    def check(self, i, result):
        (pool_rs, uniform_rs, sa), _ = result
        adj = self.graph.adjacency
        for label, trace, kind in (
            ("pool RS", pool_rs, "maxhaf"),
            ("uniform RS", uniform_rs, "maxhaf"),
            ("pool SA", sa, "density"),
        ):
            sub = list(trace.best_subset)
            if len(set(sub)) != self.k or not all(0 <= v < self.modes for v in sub):
                raise CheckFailed(f"{label}: best subset {sub} is not a k-subset")
            if np.any(np.diff(trace.best_values) < 0):
                raise CheckFailed(f"{label}: best values decrease")
            if kind == "maxhaf":
                want = matfn.hafnian_sq_mod(self.graph, sorted(sub))
            else:
                want = float(abs(adj[np.ix_(sub, sub)].sum()))
            got = float(trace.best_values[-1])
            if not np.isclose(got, want, rtol=1e-9, atol=0.0):
                raise CheckFailed(f"{label}: best value {got!r}, recomputed {want!r}")

    def rates(self):
        return {
            "maxhaf_steps_per_s": (self.maxhaf[0] / self.maxhaf[1], "1/s"),
            "density_steps_per_s": (self.density[0] / self.density[1], "1/s"),
        }


class Sweep(Workload):
    name = "sweep"
    setup_reps = 9
    etas, epsilons = [1.0, 0.75], [0.0, 0.25]
    # one op sweeps the whole grid: its four cold-memo pools average each
    # other's seed-to-seed cost (about 7% each), which one point per op
    # left in the median
    distinct = 2

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        if toy:
            self.modes, self.clique, self.k, self.clicks = 8, 4, 4, 2.0
            self.extra = {"pool_size": 200, "trials": 20,
                          "classical_budget": 50, "classical_trials": 5}
        else:
            self.modes, self.clique, self.k, self.clicks = 16, 6, 6, 4.0
            self.extra = {"pool_size": 3000, "trials": 200}
        self.runs = 0

    def setup(self):
        # the README walkthrough graph; the workload seed drives each op's
        # sweep seed (its pools and trials), not the graph
        self.graph = generators.planted_clique_graph(
            self.modes, self.clique, 0.2, 1
        )
        self.graph_path = os.path.join(self.workdir, "graph.json")
        files.save_graph(self.graph, self.graph_path)
        # the walkthrough's encode step; each op encodes again inside the sweep
        self.scale, self.state = encoded(self.graph, self.clicks)

    def reference(self):
        return roundtrip_err(self.state, self.graph, self.scale)

    def op(self, i):
        self.runs += 1
        out = os.path.join(self.workdir, f"report{self.runs}")
        cfg_path = out + ".json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dict(
                self.extra, graph=self.graph_path, k=self.k, eta_grid=self.etas,
                epsilon_grid=self.epsilons, seed=op_seed(self.seed, i),
                objective="density", mean_clicks=self.clicks,
            ), fh)
        code = cli.main(["bench", "noise-sweep", "--config", cfg_path, "--out", out])
        return code, out

    def check(self, i, result):
        code, out = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(os.path.join(out, "noise_sweep.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out, "noise_sweep.json"), encoding="utf-8") as fh:
            json_rows = json.load(fh)["rows"]
        grid = [(e, p) for e in self.etas for p in self.epsilons]
        if len(rows) != len(grid) or len(json_rows) != len(grid):
            raise CheckFailed(f"{len(rows)} CSV rows, {len(json_rows)} JSON rows")
        for (eta, eps), row, csv_row in zip(grid, json_rows, rows):
            if (row["eta"], row["epsilon"]) != (eta, eps):
                raise CheckFailed(f"row for {(row['eta'], row['epsilon'])}, "
                                  f"expected {(eta, eps)}")
            if row["no_success"]:
                continue
            p, (lo, hi) = row["p_hat"], row["ci95"]
            if not (0.0 < p <= 1.0 and lo <= p <= hi):
                raise CheckFailed(f"p_hat {p} outside (0, 1] or its CI [{lo}, {hi}]")
            if float(csv_row["p_hat"]) != p:
                raise CheckFailed("CSV and JSON p_hat differ")
        if not os.path.isfile(os.path.join(out, "manifest.json")):
            raise CheckFailed("manifest.json missing")


WORKLOADS = {w.name: w for w in (Pool, Search, Sweep)}
