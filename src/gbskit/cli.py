"""Command-line interface.

Subcommands: gen, encode, sample, solve, bench. Every command is
deterministic given its seed and input files; bench writes a manifest that
makes runs replayable, and refuses a config field its study does not take.
Exit codes: 0 success, 2 validation error (such as that field), a value beyond
float64 (an OverflowError) or a file that cannot be read or written, 3
cost-guard refusal or a request too large to allocate, 4 numerical-physicality error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, bench, files, gaussian, generators, sampler
from .encoding import choose_scale, encode_graph
from .errors import CostGuardError, GbskitError, ValidationError
from .solvers import (
    Objective, ProposalSource, RunTrace, _check_pool_modes, greedy_peel, random_search,
    simulated_annealing,
)


def _int_from(low: int):
    """argparse type: an integer >= `low`. argparse reports the ValueError
    of a non-integer as an invalid integer value."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


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
    p.add_argument("--n", type=_int_from(1), required=True)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--edge-prob", type=float, default=0.5,
                   help="edge probability (zero-one)")
    p.add_argument("--clique-size", type=int, default=None,
                   help="planted clique size (planted-clique)")
    p.add_argument("--noise-prob", type=float, default=0.1,
                   help="background edge probability (planted-clique)")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("encode", help="encode a graph into device parameters")
    p.add_argument("graph")
    p.add_argument("--mean-clicks", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("sample", help="sample click patterns from a device")
    p.add_argument("device")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("solve", help="run a solver on a graph instance")
    p.add_argument("graph")
    p.add_argument("--objective", choices=["maxhaf", "density"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=["rs", "sa", "greedy"], required=True)
    p.add_argument("--pool", default=None, help="sample file for pool proposals")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.995)
    p.add_argument("--jump-prob", type=float, default=0.0)
    p.add_argument("--out", required=True,
                   help="trace CSV path; JSON summary goes next to it")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark study from a config file")
    p.add_argument("subcommand", choices=list(_STUDIES))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output report directory")
    p.set_defaults(handler=_cmd_bench)
    return parser


# -- command implementations --------------------------------------------------

def _cmd_gen(args) -> None:
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


def _cmd_encode(args) -> None:
    if (args.mean_clicks is None) == (args.scale is None):
        raise ValidationError("specify exactly one of --mean-clicks or --scale")
    g = files.load_graph(args.graph)
    c = args.scale if args.scale is not None else choose_scale(g, args.mean_clicks)
    dev = encode_graph(g, c)
    files.save_device(dev, args.out)


def _cmd_sample(args) -> None:
    dev = files.load_device(args.device)
    # both channels are bit-exact identities at epsilon 0 and eta 1
    state = gaussian.apply_loss(gaussian.apply_thermal(dev.build_state(), args.epsilon),
                                args.eta)
    pool = sampler.sample(state, args.count, args.seed)
    pool.provenance.update(device=os.path.basename(args.device), eta=args.eta,
                           epsilon=args.epsilon)
    sampler.save_pool(pool, args.out)


def _cmd_solve(args) -> None:
    g = files.load_graph(args.graph)
    obj = Objective(kind=args.objective, graph=g, k=args.k)
    params = {
        "graph": os.path.basename(args.graph),
        "objective": args.objective,
        "k": args.k,
        "algo": args.algo,
        "steps": args.steps,
        "seed": args.seed,
    }
    source = ProposalSource(kind="uniform")
    if args.pool is not None and args.algo != "greedy":  # greedy takes no proposals
        pool = sampler.load_pool(args.pool)
        _check_pool_modes(pool, g)
        source = ProposalSource(kind="pool", pool=sampler.postselect(pool, args.k))
        params["pool"] = os.path.basename(args.pool)
    if args.algo == "greedy":
        subset = greedy_peel(g, args.k)
        trace = RunTrace(
            np.array([obj.value(subset)]), subset, steps_used=1, seed=args.seed
        )
    elif args.algo == "rs":
        trace = random_search(obj, source, args.steps, args.seed)
    else:
        trace = simulated_annealing(
            obj, source, args.steps,
            t0=args.t0, alpha=args.alpha, jump_prob=args.jump_prob, seed=args.seed,
        )
        params.update({"t0": args.t0, "alpha": args.alpha, "jump_prob": args.jump_prob})
    files.save_trace(trace, args.out, os.path.splitext(args.out)[0] + ".json", params)


# Each bench study: its `bench` function, its `files` writer and output file
# stem, and its config fields as (name, type, default), _REQUIRED marking a
# field without one. The parsed fields are the study's keyword arguments,
# with the graph and pool paths loaded, and the manifest's parameters.
# Functions are named, not held, so a patched module attribute is the one
# called.
_REQUIRED = object()
_STUDIES = {
    "correlate": ("correlation_study", "save_correlation_table", "correlation", [
        ("n_matrices", int, _REQUIRED),
        ("seed", int, _REQUIRED),
        ("mode_count", int, 4),
    ]),
    "advantage": ("advantage_study", "save_advantage_report", "advantage", [
        ("graph", str, _REQUIRED),
        ("objective", str, "density"),
        ("k_values", list, _REQUIRED),
        ("steps", int, 1000),
        ("trials", int, 20),
        ("seed", int, _REQUIRED),
        ("pool", str, None),
        ("pool_size", int, 20000),
    ]),
    "noise-sweep": ("noise_sweep", "save_noise_table", "noise_sweep", [
        ("graph", str, _REQUIRED),
        ("k", int, _REQUIRED),
        ("eta_grid", list, (1.0,)),
        ("epsilon_grid", list, (0.0,)),
        ("trials", int, 200),
        ("seed", int, _REQUIRED),
        ("pool_size", int, 20000),
        ("classical_budget", int, 1000),
        ("classical_trials", int, 40),
        ("objective", str, "density"),
        ("mean_clicks", float, None),
    ]),
}


def _parse_config(cfg: dict, fields) -> dict:
    unknown = sorted(set(cfg) - {name for name, _, _ in fields})
    if unknown:
        raise ValidationError(f"unknown config fields {unknown}")
    parsed = {}
    for name, kind, default in fields:
        if name not in cfg:
            if default is _REQUIRED:
                raise ValidationError(f"config field {name!r} is required")
            parsed[name] = default
            continue
        value = cfg[name]
        if kind is float and type(value) is int:
            value = float(value)
        # no field is boolean, and a JSON true is not a number, in a list or not
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(
                f"config field {name!r} must be of type {kind.__name__}, "
                f"got {type(value).__name__}"
            )
        if kind is list and any(isinstance(v, bool) for v in value):
            raise ValidationError(f"config field {name!r} must hold numbers, got bool")
        # every int field is a count or a seed
        if kind is int and value < 0:
            raise ValidationError(f"config field {name!r} must be >= 0, got {value}")
        parsed[name] = value
    return parsed


def _cmd_bench(args) -> None:
    study, writer, stem, fields = _STUDIES[args.subcommand]
    parameters = _parse_config(files.load_json(args.config), fields)
    kwargs = dict(parameters)
    if "graph" in kwargs:
        kwargs["graph"] = files.load_graph(kwargs["graph"])
    if kwargs.get("pool") is not None:
        kwargs["pool"] = sampler.load_pool(kwargs["pool"])
    report = getattr(bench, study)(**kwargs)
    os.makedirs(args.out, exist_ok=True)
    getattr(files, writer)(
        report,
        os.path.join(args.out, stem + ".csv"),
        os.path.join(args.out, stem + ".json"),
    )
    files.save_manifest(
        os.path.join(args.out, "manifest.json"),
        command=f"bench {args.subcommand}",
        parameters=parameters,
    )


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.handler(args)
    except (GbskitError, OSError, MemoryError, OverflowError) as exc:
        # an OverflowError, a value beyond float64, is invalid input
        why = f"beyond float64: {exc.args[-1]}" if isinstance(exc, OverflowError) else exc
        print(f"gbskit: error: {why}", file=sys.stderr)
        if isinstance(exc, GbskitError):
            return exc.exit_code
        # a request too large to allocate is refused as too costly
        return CostGuardError.exit_code if isinstance(exc, MemoryError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
