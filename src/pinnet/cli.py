"""Command-line entry point for running studies from scenario files.

Subcommands map one-to-one onto the runner: ``simulate`` for one trial,
``batch`` for repeated trials with derived seeds, ``fixed-gain`` for the
fixed-versus-solved gain comparison, ``oracle`` for the exhaustive minimal
pinning search on small single networks, and ``gen-scenario`` to emit the
built-in study profiles as editable JSON.

Exit codes: 0 on success, 2 when every requested outcome was infeasible,
1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import DivergenceError
from .harness import (
    BUILTIN_SCENARIOS,
    Scenario,
    brute_force_min_pinning,
    builtin_scenario,
    build_system,
    fixed_gain_study,
    load_scenario,
    run_batch,
    run_scenario,
    save_scenario,
    scenario_to_dict,
    write_json,
)


def _load(args) -> Scenario:
    if args.scenario is not None:
        sc = load_scenario(args.scenario)
    elif args.profile is not None:
        sc = builtin_scenario(args.profile)
    else:
        raise ValueError("either --scenario <file> or --profile <name> is required")
    if args.seed is not None:
        sc = replace(sc, rng_seed=args.seed)
    if getattr(args, "tol", None) is not None:
        sc = replace(sc, sim=replace(sc.sim, convergence_tol=args.tol))
    return sc


def _add_common(p: argparse.ArgumentParser, tol: bool = True) -> None:
    p.add_argument("--scenario", type=Path, help="scenario JSON file")
    p.add_argument("--profile", choices=list(BUILTIN_SCENARIOS), help="built-in study profile")
    p.add_argument("--seed", type=int, help="override the scenario master seed")
    p.add_argument("--out", type=Path, help="directory for output artifacts")
    if tol:
        p.add_argument("--tol", type=float, help="override the convergence tolerance")


def cmd_simulate(args) -> int:
    sc = _load(args)
    outcome = run_scenario(sc, trial_index=args.trial, out_dir=args.out)
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    return 0 if outcome.feasible else 2


def cmd_batch(args) -> int:
    sc = _load(args)
    summary = run_batch(sc, trials=args.trials, out_dir=args.out)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0 if summary.feasibility_rate > 0.0 else 2


def cmd_fixed_gain(args) -> int:
    sc = _load(args)
    gains = [float(v) for v in args.gains.split(",") if v.strip()]
    study = fixed_gain_study(sc, gains, trials=args.trials, out_dir=args.out)
    print(json.dumps(study.to_dict(), indent=2, sort_keys=True))
    any_feasible = study.baseline.feasibility_rate > 0.0 or any(
        r.feasibility_rate > 0.0 for r in study.rows
    )
    return 0 if any_feasible else 2


def cmd_oracle(args) -> int:
    sc = _load(args)
    sys_ = build_system(sc, trial_index=args.trial)
    if sys_.num_networks != 1:
        raise ValueError("oracle runs on single-network scenarios only")
    result = brute_force_min_pinning(sys_.networks[0], sc.ga.stability)
    payload = {"feasible": result is not None}
    if result is not None:
        count, pins = result
        payload["minimal_count"] = count
        payload["pinned_nodes"] = [int(i) for i in np.nonzero(pins)[0]]
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_json(args.out / "oracle.json", payload)
    return 0 if result is not None else 2


def cmd_gen_scenario(args) -> int:
    sc = builtin_scenario(args.profile, rng_seed=args.seed)
    if args.out is None:
        print(json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True))
    else:
        out = Path(args.out)
        if out.suffix != ".json":
            out.mkdir(parents=True, exist_ok=True)
            out = out / f"{args.profile}.json"
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
        save_scenario(sc, out)
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnet",
        description="Minimal pinning-node selection and consensus simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario trial")
    _add_common(p)
    p.add_argument("--trial", type=int, default=0, help="trial index (seed derivation)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("batch", help="run repeated trials and summarize")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None, help="number of trials")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("fixed-gain", help="compare fixed gains against solved gains")
    _add_common(p)
    p.add_argument("--gains", default="1,2,3,4,5", help="comma-separated gain values")
    p.add_argument("--trials", type=int, default=30)
    p.set_defaults(func=cmd_fixed_gain)

    p = sub.add_parser("oracle", help="exhaustive minimal pinning set (n <= 16)")
    _add_common(p, tol=False)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen-scenario", help="emit a built-in scenario as JSON")
    p.add_argument("--profile", choices=list(BUILTIN_SCENARIOS), required=True)
    p.add_argument("--seed", type=int, help="master seed to embed")
    p.add_argument("--out", type=Path, help="output file or directory")
    p.set_defaults(func=cmd_gen_scenario)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
