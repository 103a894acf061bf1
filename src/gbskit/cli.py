"""Command-line interface.

Subcommands: gen, encode, sample, solve, bench. Every command is
deterministic given its seed and input files; bench writes a manifest that
makes runs replayable. Exit codes: 0 success, 2 validation error, 3
cost-guard refusal, 4 numerical-physicality error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, bench, files, gaussian, generators, sampler
from .encoding import choose_scale, encode_graph
from .errors import GbskitError, ValidationError
from .solvers import (
    Objective, ProposalSource, RunTrace, greedy_peel, random_search,
    simulated_annealing,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbskit",
        description="Desk-scale GBS simulator and graph-problem benchmark toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph instance file")
    p.add_argument("--kind", required=True,
                   choices=["random-complex", "planted-clique", "zero-one"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--edge-prob", type=float, default=0.5,
                   help="edge probability (zero-one)")
    p.add_argument("--clique-size", type=int, default=None,
                   help="planted clique size (planted-clique)")
    p.add_argument("--noise-prob", type=float, default=0.1,
                   help="background edge probability (planted-clique)")

    p = sub.add_parser("encode", help="encode a graph into device parameters")
    p.add_argument("graph")
    p.add_argument("--mean-clicks", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="sample click patterns from a device")
    p.add_argument("device")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run a solver on a graph instance")
    p.add_argument("graph")
    p.add_argument("--objective", choices=["maxhaf", "density"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=["rs", "sa", "greedy"], required=True)
    p.add_argument("--pool", default=None, help="sample file for pool proposals")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.995)
    p.add_argument("--jump-prob", type=float, default=0.0)
    p.add_argument("--out", required=True,
                   help="trace CSV path; JSON summary goes next to it")

    p = sub.add_parser("bench", help="run a benchmark study from a config file")
    p.add_argument("subcommand", choices=["correlate", "advantage", "noise-sweep"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output report directory")
    return parser


# -- config validation --------------------------------------------------------

def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return cfg


def _field(cfg: dict, name: str, kind, required: bool = True, default=None):
    if name not in cfg:
        if required:
            raise ValidationError(f"config field {name!r} is required")
        return default
    value = cfg[name]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ValidationError(
            f"config field {name!r} must be of type {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


# -- command implementations --------------------------------------------------

def _cmd_gen(args) -> int:
    if args.kind == "random-complex":
        g = generators.random_complex_graph(args.n, args.seed)
    elif args.kind == "zero-one":
        g = generators.zero_one_graph(args.n, args.edge_prob, args.seed)
    else:
        if args.clique_size is None:
            raise ValidationError("--clique-size is required for planted-clique")
        g = generators.planted_clique_graph(
            args.n, args.clique_size, args.noise_prob, args.seed
        )
    files.save_graph(g, args.out)
    return 0


def _cmd_encode(args) -> int:
    if (args.mean_clicks is None) == (args.scale is None):
        raise ValidationError("specify exactly one of --mean-clicks or --scale")
    g = files.load_graph(args.graph)
    c = args.scale if args.scale is not None else choose_scale(g, args.mean_clicks)
    dev = encode_graph(g, c)
    files.save_device(dev, args.out)
    return 0


def _cmd_sample(args) -> int:
    dev = files.load_device(args.device)
    state = dev.build_state()
    if args.epsilon > 0:
        state = gaussian.apply_thermal(state, args.epsilon)
    if args.eta < 1:
        state = gaussian.apply_loss(state, args.eta)
    pool = dataclasses.replace(
        sampler.sample(state, args.count, args.seed),
        provenance={
            "kind": "simulated",
            "device": os.path.basename(args.device),
            "count": args.count,
            "eta": args.eta,
            "epsilon": args.epsilon,
        },
    )
    sampler.save_pool(pool, args.out)
    return 0


def _cmd_solve(args) -> int:
    g = files.load_graph(args.graph)
    params = {
        "graph": os.path.basename(args.graph),
        "objective": args.objective,
        "k": args.k,
        "algo": args.algo,
        "steps": args.steps,
        "seed": args.seed,
    }
    summary_path = os.path.splitext(args.out)[0] + ".json"

    if args.algo == "greedy":
        subset = greedy_peel(g, args.k)
        value = Objective(kind=args.objective, graph=g, k=args.k).value(subset)
        trace = RunTrace(
            np.array([value]), tuple(subset), steps_used=1, seed=args.seed
        )
        files.save_trace(trace, args.out, summary_path, params)
        return 0

    obj = Objective(kind=args.objective, graph=g, k=args.k)
    if args.pool is not None:
        pool = sampler.load_pool(args.pool)
        if pool.modes != g.n:
            raise ValidationError(
                f"pool pattern length {pool.modes} does not match graph size {g.n}"
            )
        pool = sampler.postselect(pool, args.k)
        source = ProposalSource(kind="pool", pool=pool)
        params["pool"] = os.path.basename(args.pool)
    else:
        source = ProposalSource(kind="uniform")

    if args.algo == "rs":
        trace = random_search(obj, source, args.steps, args.seed)
    else:
        trace = simulated_annealing(
            obj, source, args.steps,
            t0=args.t0, alpha=args.alpha, jump_prob=args.jump_prob, seed=args.seed,
        )
        params.update({"t0": args.t0, "alpha": args.alpha, "jump_prob": args.jump_prob})
    files.save_trace(trace, args.out, summary_path, params)
    return 0


def _bench_correlate(cfg: dict, outdir: str) -> dict:
    n_matrices = _field(cfg, "n_matrices", int)
    seed = _field(cfg, "seed", int)
    mode_count = _field(cfg, "mode_count", int, required=False, default=4)
    table = bench.correlation_study(n_matrices, seed, mode_count)
    files.save_correlation_table(
        table,
        os.path.join(outdir, "correlation.csv"),
        os.path.join(outdir, "correlation.json"),
    )
    return {"n_matrices": n_matrices, "seed": seed, "mode_count": mode_count}


def _bench_advantage(cfg: dict, outdir: str) -> dict:
    graph_path = _field(cfg, "graph", str)
    objective = _field(cfg, "objective", str, required=False, default="density")
    k_values = _field(cfg, "k_values", list)
    steps = _field(cfg, "steps", int, required=False, default=1000)
    trials = _field(cfg, "trials", int, required=False, default=20)
    seed = _field(cfg, "seed", int)
    pool_path = _field(cfg, "pool", str, required=False)
    pool_size = _field(cfg, "pool_size", int, required=False, default=20000)

    g = files.load_graph(graph_path)
    if not all(isinstance(k, int) for k in k_values):
        raise ValidationError("config field 'k_values' must hold integers")
    pool = sampler.load_pool(pool_path) if pool_path is not None else None
    reports = bench.advantage_study(
        g, k_values, steps, trials, seed,
        objective=objective, pool=pool, pool_size=pool_size,
    )
    files.save_advantage_report(
        reports,
        os.path.join(outdir, "advantage.csv"),
        os.path.join(outdir, "advantage.json"),
    )
    return {
        "graph": graph_path, "objective": objective, "k_values": k_values,
        "steps": steps, "trials": trials, "seed": seed,
        "pool": pool_path, "pool_size": pool_size,
    }


def _bench_noise_sweep(cfg: dict, outdir: str) -> dict:
    graph_path = _field(cfg, "graph", str)
    k = _field(cfg, "k", int)
    eta_grid = _field(cfg, "eta_grid", list, required=False, default=[1.0])
    epsilon_grid = _field(cfg, "epsilon_grid", list, required=False, default=[0.0])
    trials = _field(cfg, "trials", int, required=False, default=200)
    seed = _field(cfg, "seed", int)
    pool_size = _field(cfg, "pool_size", int, required=False, default=20000)
    budget = _field(cfg, "budget", int, required=False, default=4000)
    classical_budget = _field(cfg, "classical_budget", int, required=False, default=1000)
    classical_trials = _field(cfg, "classical_trials", int, required=False, default=40)
    objective = _field(cfg, "objective", str, required=False, default="density")
    mean_clicks = _field(cfg, "mean_clicks", float, required=False)

    g = files.load_graph(graph_path)
    rows = bench.noise_sweep(
        g, k, eta_grid, epsilon_grid, trials, seed,
        pool_size=pool_size, budget=budget,
        classical_budget=classical_budget, classical_trials=classical_trials,
        objective=objective, mean_clicks=mean_clicks,
    )
    files.save_noise_table(
        rows,
        os.path.join(outdir, "noise_sweep.csv"),
        os.path.join(outdir, "noise_sweep.json"),
    )
    return {
        "graph": graph_path, "k": k, "eta_grid": eta_grid,
        "epsilon_grid": epsilon_grid, "trials": trials, "seed": seed,
        "pool_size": pool_size, "budget": budget,
        "classical_budget": classical_budget,
        "classical_trials": classical_trials, "objective": objective,
        "mean_clicks": mean_clicks,
    }


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    runners = {
        "correlate": _bench_correlate,
        "advantage": _bench_advantage,
        "noise-sweep": _bench_noise_sweep,
    }
    parameters = runners[args.subcommand](cfg, args.out)
    files.save_manifest(
        os.path.join(args.out, "manifest.json"),
        command=f"bench {args.subcommand}",
        parameters=parameters,
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "encode": _cmd_encode,
        "sample": _cmd_sample,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except GbskitError as exc:
        print(f"gbskit: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
