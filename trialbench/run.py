"""Trial benchmark for pinnet: seeded batches through ``pinnet.harness.run_batch``.

Run from the root of a checkout:

    python3 trialbench/run.py --workload multi50-solved --seed 1 --seconds 30 --trace 0

A run builds the workload's scenario from ``--seed`` and runs rounds of its
fixed trial set (trial indices 0..T-1 of that seed) through ``run_batch`` with
an output directory, as ``pinnet batch`` does. It starts another round while
the time spent so far (rounds and their checks) plus one more round fits in
``--seconds``; there is always one.
Every round is checked with ``checks.py`` and must reproduce the first round
exactly. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the calls between pinnet's
modules are wrapped by ``tracing.Tracer`` and the object holds per-module
metrics instead. Progress goes to standard error.
"""

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where it is absent."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


# setup_s = the process's age here plus the perf_counter time from here on.
_AGE_AT_START = _process_age()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

# One BLAS thread: the matrices have 25-100 rows, where a second thread gave
# no gain, and with the other core busy two threads made one eigensolve of a
# 65-row or larger matrix 30 times slower. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (loads numpy)

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".trialbench_runs"


@dataclass(frozen=True)
class Workload:
    """A built-in profile, the changes made to it, and its trials per round."""

    profile: str
    trials: int
    fixed_gain: Optional[float] = None
    generations: Optional[int] = None


WORKLOADS = {
    "multi50-solved": Workload("multi-50", trials=4),
    "multi100-solved": Workload("multi-100", trials=2, generations=4),
    "single50-fixedgain": Workload("single-50", trials=16, fixed_gain=5.0),
}


def import_pinnet():
    """Import pinnet from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pinnet

    if src not in Path(pinnet.__file__).resolve().parents:
        raise ImportError(f"pinnet was imported from {pinnet.__file__}, not from {src}")
    return pinnet


def make_scenario(pinnet, wl: Workload, seed: int):
    sc = pinnet.builtin_scenario(wl.profile, rng_seed=seed)
    ga = sc.ga
    if wl.fixed_gain is not None:
        ga = replace(ga, fixed_gain=wl.fixed_gain)
    if wl.generations is not None:
        ga = replace(ga, generations=wl.generations)
    return replace(sc, ga=ga)


def trial_input(system, sc) -> checks.TrialInput:
    """A trial's inputs as the checks take them: its built system and scenario constants."""
    nets = tuple(
        checks.NetworkInput(
            adjacency=net.adjacency,
            node_ids=net.node_ids,
            coupling=spec.coupling_strength,
            gamma=spec.gamma,
            target=spec.target,
        )
        for net, spec in zip(system.networks, sc.networks)
    )
    stab = sc.ga.stability
    return checks.TrialInput(
        networks=nets,
        n_total=system.total_nodes,
        delta=stab.delta,
        q=stab.q,
        dt=sc.sim.dt,
        horizon=sc.sim.horizon,
    )


def _fingerprint(outcome) -> tuple:
    return (outcome.feasible, outcome.pinned_count, outcome.gains, outcome.convergence_time)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="pinnet trial benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pinnet = import_pinnet()
    except ImportError as exc:
        print(f"trialbench: cannot import pinnet from this checkout: {exc}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    sc = make_scenario(pinnet, wl, args.seed)
    setup_s = _AGE_AT_START + (time.perf_counter() - _STARTED)

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    run_batch = pinnet.run_batch if tracer is None else tracer.span("batch", pinnet.run_batch)
    solved = wl.fixed_gain is None
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs = {}
    round_walls, first, outcomes = [], None, []
    attempted = failed = 0
    correct = True
    peak_kb = 0
    measuring_since = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        attempted += wl.trials
        t0 = time.perf_counter()
        try:
            if tracer is None:
                batch = run_batch(sc, trials=wl.trials, out_dir=out)
            else:
                with tracer.installed():
                    batch = run_batch(sc, trials=wl.trials, out_dir=out)
        except Exception:  # every trial of a round that raises counts as failed
            traceback.print_exc()
            failed += wl.trials
            break
        round_walls.append(time.perf_counter() - t0)
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

        outcomes = list(batch.outcomes)
        for o in outcomes:
            if o.trial_index not in inputs:
                inputs[o.trial_index] = trial_input(pinnet.build_system(sc, o.trial_index), sc)
            trial_dir = out / f"trial_{o.trial_index:03d}"
            bad = checks.check_trial(trial_dir, inputs[o.trial_index], solved)
            if bad:
                failed += 1
                if set(bad) != {"feasible"}:
                    correct = False
                print(f"trialbench: {trial_dir} failed {bad}", file=sys.stderr)
        try:
            checks.check_batch_summary(out)
        except checks.CheckError as exc:
            correct = False
            print(f"trialbench: {out}: {exc}", file=sys.stderr)
        prints = [_fingerprint(o) for o in outcomes]
        if first is None:
            first = prints
        elif prints != first:
            correct = False
            print("trialbench: a repeated round did not reproduce the first", file=sys.stderr)
        if time.perf_counter() - measuring_since + round_walls[-1] > args.seconds:
            break

    if not round_walls:
        return 1
    if correct and failed == 0:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()  # only once no other run keeps artifacts there
    else:
        print(f"trialbench: artifacts kept in {out}", file=sys.stderr)

    n = len(round_walls) * wl.trials
    if tracer is None:
        conv = [o.convergence_time for o in outcomes if o.convergence_time is not None]
        metrics = {
            "trial_s": (statistics.median(round_walls) / wl.trials, "s"),
            "setup_s": (setup_s, "s"),
            "pinned_fraction": (statistics.fmean(o.pinned_fraction for o in outcomes), "1"),
            "settle_s": (statistics.fmean(conv), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        metrics = per_module_metrics(tracer, n, len(sc.networks))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_module_metrics(tr, trials: int, networks: int) -> dict:
    """Per-trial figures of each module from one traced run."""
    solves = tr.calls["solve"]
    return {
        "network.build_s": (tr.seconds["build"] / trials, "s"),
        "stability.solve_s": (tr.seconds["solve"] / trials, "s"),
        "stability.gain_solves": (solves / trials, "count"),
        "stability.eigensolves": (tr.eigensolves / trials, "count"),
        "stability.eigensolves_per_solve": (tr.eigensolves / solves, "count"),
        "stability.solve_ms": (1e3 * tr.seconds["solve"] / solves, "ms"),
        "ga.search_s": (tr.seconds["search"] / trials, "s"),
        "ga.self_s": (tr.self_seconds("search") / trials, "s"),
        "ga.evaluations": (tr.evaluations / trials, "count"),
        "ga.solve_reuse_ratio": (1.0 - solves / (tr.evaluations * networks), "1"),
        "ga.report_csv_s": (tr.seconds["report_csv"] / trials, "s"),
        "dynamics.simulate_s": (tr.seconds["simulate"] / trials, "s"),
        "dynamics.steps": (tr.steps / trials, "count"),
        "dynamics.step_us": (1e6 * tr.seconds["simulate"] / tr.steps, "us"),
        "dynamics.export_s": (tr.seconds["export"] / trials, "s"),
        "dynamics.export_mb": (tr.export_bytes / 1e6 / trials, "MB"),
        "harness.self_s": (tr.self_seconds("batch") / trials, "s"),
        "harness.trial_s": (tr.seconds["batch"] / trials, "s"),
    }


if __name__ == "__main__":
    sys.exit(main())
