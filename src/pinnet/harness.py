"""Experiment runner: scenarios, batches, fixed-gain studies and the oracle.

A scenario bundles everything needed to reproduce one experiment from a seed:
network construction parameters, per-network targets and initial-state
distributions, the GA configuration (with its stability constants) and the
simulation settings.  Per-trial seeds derive from the master seed and trial
index through ``numpy``'s SeedSequence spawning, so batches are reproducible
and trials independent.

A single-network scenario is built as the one-network case of a membership
profile.  Scenario files are read and written from the dataclass fields and
their type hints alone; unknown keys are errors at every level, and a missing
field without a default is named by its JSON path.

Built-in profiles cover a 50-node single network and three overlapping
multi-network scales (50/100/200 vehicles).  The stability strictness and the
multi-network coupling strength in those profiles are calibrated so plans at
the minimal certified gains settle within the scenarios' horizons; both are
plain scenario fields and can be overridden.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import abc
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import (
    SimulationConfig,
    Trajectory,
    convergence_time,
    export_errors_csv,
    export_trajectory_csv,
    simulate_multi,
)
from .ga import GaConfig, evolve
from .network import (
    PROFILES,
    DirectedNetwork,
    MembershipProfile,
    MultiNetworkSystem,
    generate_adjacency,
    generate_membership,
)
from .stability import CertificateTest, StabilityParams

BRUTE_FORCE_NODE_CAP = 16


@dataclass(frozen=True)
class NetworkSpec:
    """Scenario-level description of one network's constants and initial draw."""

    coupling_strength: float
    gamma: float
    target: float
    init_mean: float
    init_std: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.init_std <= 0.0:
            raise ValueError("init_std must be > 0")


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: construction, GA, simulation, seeds.

    A single scenario takes ``n`` and no ``profile``; it runs as the profile
    of one n-node network.
    """

    kind: str  # "single" | "multi"
    threshold: float
    networks: tuple[NetworkSpec, ...]
    ga: GaConfig = field(default_factory=GaConfig)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    trials: int = 1
    rng_seed: int = 0
    n: Optional[int] = None
    profile: Optional[str | MembershipProfile] = None

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        takes, refuses = ("n", "profile") if self.kind == "single" else ("profile", "n")
        if getattr(self, refuses) is not None:
            raise ValueError(f"a {self.kind} scenario takes {takes} and no {refuses}")
        k, got = self.resolved_profile().num_networks, len(self.networks)
        if got != k:
            raise ValueError(f"this {self.kind} scenario needs {k} network specs, got {got}")
        object.__setattr__(self, "networks", tuple(self.networks))

    def resolved_profile(self) -> MembershipProfile:
        if self.kind == "single":
            if self.n is None or self.n < 1:
                raise ValueError("single scenarios need n >= 1")
            return MembershipProfile((self.n,), {1: self.n})
        if self.profile is None:
            raise ValueError("multi scenarios need a membership profile")
        if isinstance(self.profile, str):
            if self.profile not in PROFILES:
                raise ValueError(
                    f"unknown membership profile {self.profile!r}; "
                    f"choose from {', '.join(sorted(PROFILES))}"
                )
            return PROFILES[self.profile]
        return self.profile

    @property
    def total_nodes(self) -> int:
        return self.resolved_profile().total_nodes


@dataclass(frozen=True)
class TrialOutcome:
    """What one trial produced, in the units reported by the study figures."""

    trial_index: int
    feasible: bool
    pinned_count: int
    pinned_fraction: float
    gains: tuple[Optional[float], ...]
    convergence_time: Optional[float]
    terminal_max_error: float  # nan when the simulation was skipped
    log10_terminal_error: float  # nan when undefined
    wall_clock_s: float

    def to_dict(self) -> dict:
        def clean(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "trial_index": self.trial_index,
            "feasible": self.feasible,
            "pinned_count": self.pinned_count,
            "pinned_fraction": self.pinned_fraction,
            "gains": [clean(g) for g in self.gains],
            "convergence_time": clean(self.convergence_time),
            "terminal_max_error": clean(self.terminal_max_error),
            "log10_terminal_error": clean(self.log10_terminal_error),
            "wall_clock_s": self.wall_clock_s,
        }


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_seeds(master: int, trial: int, k: int) -> dict:
    ss = np.random.SeedSequence(master, spawn_key=(trial,))
    kids = ss.spawn(3 + k)
    return {
        "membership": _seed_int(kids[0]),
        "ga": _seed_int(kids[1]),
        "x0": kids[2],
        "adjacency": [_seed_int(c) for c in kids[3:]],
    }


def build_system(sc: Scenario, trial_index: int = 0) -> MultiNetworkSystem:
    """Construct the trial's networks from the derived seeds."""
    seeds = _trial_seeds(sc.rng_seed, trial_index, len(sc.networks))
    prof = sc.resolved_profile()
    memberships = generate_membership(prof.total_nodes, prof, seeds["membership"])
    nets = []
    for k, spec in enumerate(sc.networks):
        ids = [i for i, m in enumerate(memberships) if k in m]
        g = generate_adjacency(len(ids), sc.threshold, seeds["adjacency"][k])
        nets.append(DirectedNetwork(g, spec.coupling_strength, spec.gamma, spec.target, ids))
    return MultiNetworkSystem(tuple(nets))


def draw_initial_states(
    sc: Scenario, sys: MultiNetworkSystem, trial_index: int = 0
) -> np.ndarray:
    """Per-node Gaussian initial states.

    A node draws from the mean of its member networks' (mean, std) pairs, the
    same aggregation used for its composite target.
    """
    seeds = _trial_seeds(sc.rng_seed, trial_index, len(sc.networks))
    rng = np.random.default_rng(seeds["x0"])
    mu = np.empty(sys.total_nodes)
    sd = np.empty(sys.total_nodes)
    for i, memb in enumerate(sys.memberships):
        ks = sorted(memb)
        mu[i] = float(np.mean([sc.networks[k].init_mean for k in ks]))
        sd[i] = float(np.mean([sc.networks[k].init_std for k in ks]))
    return rng.normal(mu, sd)[:, None]


def run_scenario(
    sc: Scenario,
    trial_index: int = 0,
    out_dir: Optional[str | Path] = None,
) -> TrialOutcome:
    """Build the system, run the GA, simulate the best plan, emit artifacts.

    A GA that ends without a feasible chromosome is reported as an infeasible
    outcome with the simulation skipped, not an error.  ``summary.json`` gets
    the seconds of each layer under ``timings``: ``build_s``, ``search_s``
    (the GA and its reported gains), ``simulate_s`` and ``export_s`` (the
    CSV files); writing ``summary.json`` itself is outside all four.  Next to
    them, ``export_bytes`` is the size of the CSV files that ``export_s`` wrote
    and ``integrator_steps`` the steps ``simulate_s`` took (0 when the
    simulation is skipped).
    """
    started = time.perf_counter()
    seeds = _trial_seeds(sc.rng_seed, trial_index, len(sc.networks))
    sys = build_system(sc, trial_index)
    built = time.perf_counter()
    ga_cfg = replace(sc.ga, rng_seed=seeds["ga"])
    report = evolve(ga_cfg, sys)
    searched = time.perf_counter()
    chosen = report.best_feasible if report.best_feasible is not None else report.best
    gains = report.feasible_gains if report.best_feasible is not None else report.best_gains

    traj: Optional[Trajectory] = None
    conv = None
    terminal = float("nan")
    if chosen.feasible:
        x0 = draw_initial_states(sc, sys, trial_index)
        traj = simulate_multi(sys, chosen.genes, gains, x0, sc.sim)
        conv = convergence_time(traj, sc.sim.convergence_tol)
        terminal = traj.terminal_max_error
    simulated = time.perf_counter()

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.write_csv(out / "ga_report.csv")
        written = [out / "ga_report.csv"]
        if traj is not None:
            export_trajectory_csv(traj, out / "trajectory.csv")
            export_errors_csv(traj, out / "errors.csv")
            written += [out / "trajectory.csv", out / "errors.csv"]
    exported = time.perf_counter()

    log_term = float(np.log10(terminal)) if terminal > 0.0 else float("nan")
    outcome = TrialOutcome(
        trial_index=trial_index,
        feasible=chosen.feasible,
        pinned_count=chosen.pinned_count,
        pinned_fraction=chosen.pinned_count / sys.total_nodes,
        gains=gains,
        convergence_time=conv,
        terminal_max_error=terminal,
        log10_terminal_error=log_term,
        wall_clock_s=time.perf_counter() - started,
    )

    if out_dir is not None:
        timings = {
            "build_s": built - started,
            "search_s": searched - built,
            "simulate_s": simulated - searched,
            "export_s": exported - simulated,
        }
        summary = {
            "outcome": outcome.to_dict(),
            "ga": report.to_dict(),
            "timings": timings,
            "export_bytes": sum(path.stat().st_size for path in written),
            "integrator_steps": 0 if traj is None else len(traj.times) - 1,
        }
        with open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return outcome


_TRIAL_CSV_FIELDS = (
    "trial",
    "feasible",
    "pinned_count",
    "pinned_fraction",
    "convergence_time",
    "terminal_max_error",
    "log10_terminal_error",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    return f"{v:.17g}" if np.isfinite(v) else ""


def _trials_csv_row(o: TrialOutcome) -> str:
    values = (
        o.trial_index,
        o.feasible,
        o.pinned_count,
        o.pinned_fraction,
        o.convergence_time,
        o.terminal_max_error,
        o.log10_terminal_error,
        *o.gains,
    )
    return ",".join(_fmt(v) for v in values) + "\n"


def summary_stats(values: Sequence[Optional[float]]) -> dict:
    """mean/std/min/max over the defined entries (a pure fold of the inputs)."""
    kept = np.array(
        [float(v) for v in values if v is not None and np.isfinite(float(v))]
    )
    if kept.size == 0:
        return {"count": 0, "mean": None, "std": None, "min": None, "max": None}
    return {
        "count": int(kept.size),
        "mean": float(np.mean(kept)),
        "std": float(np.std(kept)),
        "min": float(np.min(kept)),
        "max": float(np.max(kept)),
    }


@dataclass(frozen=True)
class BatchSummary:
    """Aggregated trial statistics; recomputable exactly from the trial CSV."""

    outcomes: tuple[TrialOutcome, ...]
    feasibility_rate: float
    pinned_fraction: dict
    convergence_time: dict
    log10_terminal_error: dict

    def to_dict(self) -> dict:
        return {
            "trials": len(self.outcomes),
            "feasibility_rate": self.feasibility_rate,
            "pinned_fraction": self.pinned_fraction,
            "convergence_time": self.convergence_time,
            "log10_terminal_error": self.log10_terminal_error,
        }


def summarize(outcomes: Sequence[TrialOutcome]) -> BatchSummary:
    return BatchSummary(
        outcomes=tuple(outcomes),
        feasibility_rate=float(np.mean([1.0 if o.feasible else 0.0 for o in outcomes])),
        pinned_fraction=summary_stats([o.pinned_fraction for o in outcomes]),
        convergence_time=summary_stats([o.convergence_time for o in outcomes]),
        log10_terminal_error=summary_stats(
            [o.log10_terminal_error for o in outcomes]
        ),
    )


def run_batch(
    sc: Scenario,
    trials: Optional[int] = None,
    out_dir: Optional[str | Path] = None,
) -> BatchSummary:
    """Run repeated trials with derived seeds and fold them into statistics.

    With ``out_dir``, ``trials.csv`` gets its header before the first trial and
    one row, appended and closed, as each trial finishes; ``batch_summary.json``
    is written under a temporary name and renamed into place after the last.
    A batch that stops early keeps the rows of its finished trials and leaves
    no summary.
    """
    n_trials = sc.trials if trials is None else trials
    if n_trials < 1:
        raise ValueError("trials must be >= 1")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "batch_summary.json").unlink(missing_ok=True)
        header = list(_TRIAL_CSV_FIELDS) + [f"gain_{i}" for i in range(len(sc.networks))]
        (out / "trials.csv").write_text(",".join(header) + "\n", encoding="utf-8")
    outcomes = []
    for t in range(n_trials):
        trial_dir = None if out_dir is None else out / f"trial_{t:03d}"
        outcomes.append(run_scenario(sc, trial_index=t, out_dir=trial_dir))
        if out_dir is not None:
            with open(out / "trials.csv", "a", encoding="utf-8") as fh:
                fh.write(_trials_csv_row(outcomes[-1]))
    summary = summarize(outcomes)
    if out_dir is not None:
        partial = out / "batch_summary.json.partial"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(partial, out / "batch_summary.json")
    return summary


@dataclass(frozen=True)
class FixedGainRow:
    """One comparison row: a gain policy with its batch statistics."""

    label: str
    mean_pinned_count: float
    std_pinned_count: float
    feasibility_rate: float
    mean_terminal_error: Optional[float]
    mean_log10_terminal_error: Optional[float]


@dataclass(frozen=True)
class FixedGainStudy:
    baseline: FixedGainRow
    rows: tuple[FixedGainRow, ...]

    def to_dict(self) -> dict:
        return {
            "baseline": asdict(self.baseline),
            "fixed_gains": [asdict(r) for r in self.rows],
        }


def _study_row(label: str, outcomes: Sequence[TrialOutcome]) -> FixedGainRow:
    counts = summary_stats([o.pinned_count for o in outcomes])
    return FixedGainRow(
        label=label,
        mean_pinned_count=counts["mean"],
        std_pinned_count=counts["std"],
        feasibility_rate=summarize(outcomes).feasibility_rate,
        mean_terminal_error=summary_stats([o.terminal_max_error for o in outcomes])["mean"],
        mean_log10_terminal_error=summary_stats([o.log10_terminal_error for o in outcomes])["mean"],
    )


def fixed_gain_study(
    sc: Scenario,
    gains: Sequence[float],
    trials: int,
    out_dir: Optional[str | Path] = None,
) -> FixedGainStudy:
    """Compare fixed control gains against the solved-gain baseline.

    Every trial reuses one construction and initial draw across all gain
    policies, so rows differ only in how the gain is chosen: the baseline
    solves the minimal certifying gain, the others test feasibility at exactly
    the fixed value.
    """
    if len(gains) == 0:
        raise ValueError("need at least one gain value")
    if not all(np.isfinite(c) and c > 0.0 for c in gains):
        raise ValueError(f"fixed gains must be finite and > 0, got {list(gains)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    policies = [("lmi", sc)] + [
        (f"c={c:g}", replace(sc, ga=replace(sc.ga, fixed_gain=float(c)))) for c in gains
    ]
    baseline, *rows = [
        _study_row(label, [run_scenario(policy, trial_index=t) for t in range(trials)])
        for label, policy in policies
    ]
    study = FixedGainStudy(baseline=baseline, rows=tuple(rows))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "fixed_gain_study.json", "w", encoding="utf-8") as fh:
            json.dump(study.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        names = [f.name for f in fields(FixedGainRow)]
        with open(out / "fixed_gain_study.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            for row in (study.baseline, *study.rows):
                fh.write(",".join(_fmt(getattr(row, name)) for name in names) + "\n")
    return study


def brute_force_min_pinning(
    net: DirectedNetwork, params: StabilityParams
) -> Optional[tuple[int, np.ndarray]]:
    """Exhaustive minimal pinning set, for small networks only.

    Scores every subset of one size in one call, in increasing size, and
    returns the lexicographically first subset of the smallest size that
    certifies at c_max, or None when even pinning everything fails.  Every
    subset goes through the search's certificate test, so the oracle and the
    GA share one feasibility rule.  Only the verdict matters, so each test
    gets a zero bound: a subset that fails is settled by the proof pass
    where it can be, without an eigensolve.  Refuses networks above 16 nodes.
    """
    n = net.n
    if n > BRUTE_FORCE_NODE_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_NODE_CAP} nodes (2^n subsets); got n={n}"
        )
    test = CertificateTest(
        net.lap.symmetric_part, net.coupling_strength, net.gamma, params.c_max, params
    )
    for size in range(n + 1):
        subsets = np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
        pins = np.zeros((len(subsets), n))
        pins[np.arange(len(subsets))[:, np.newaxis], subsets] = 1.0
        passing = np.flatnonzero(test.xis(pins, np.zeros(len(pins))) == 0.0)
        if passing.size:
            return size, pins[passing[0]]
    return None


def _spec(target: float, mean: float, std: float, coupling: float = 0.8) -> NetworkSpec:
    return NetworkSpec(
        coupling_strength=coupling, gamma=1.0, target=target, init_mean=mean, init_std=std
    )


def _multi_scenario(profile: str, population_size: int) -> Scenario:
    # Coupling 15 compensates the sparse threshold-0.8 topology; strictness 3
    # keeps solved-gain plans converging to composite targets within ~1.5 s.
    specs = tuple(
        _spec(t, m, s, coupling=15.0)
        for t, m, s in ((50.0, 45.0, 10.0), (70.0, 80.0, 12.0), (120.0, 130.0, 8.0))
    )
    return Scenario(
        kind="multi",
        threshold=0.8,
        networks=specs,
        ga=GaConfig(
            population_size=population_size,
            stability=StabilityParams(delta=3.0),
        ),
        sim=SimulationConfig(dt=1e-3, horizon=2.0, convergence_tol=1e-4),
        trials=1,
        rng_seed=1234,
        profile=profile,
    )


# The built-in study scenarios by name, in the order the CLI lists them.
BUILTIN_SCENARIOS = {
    "single-50": Scenario(
        kind="single",
        threshold=0.5,
        networks=(_spec(90.0, 100.0, 15.0, coupling=0.8),),
        # Strictness 7.5 puts solved-gain closed loops at the error level
        # and pace the single-network study reports over its 5 s horizon.
        ga=GaConfig(stability=StabilityParams(delta=7.5)),
        sim=SimulationConfig(dt=1e-3, horizon=5.0, convergence_tol=1e-3),
        trials=1,
        rng_seed=1234,
        n=50,
    ),
    "multi-50": _multi_scenario("small-50", 100),
    "multi-100": _multi_scenario("medium-100", 200),
    "multi-200": _multi_scenario("large-200", 400),
}


def builtin_scenario(name: str, rng_seed: Optional[int] = None) -> Scenario:
    """One of the built-in study scenarios; pass a seed to override the default."""
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(
            f"unknown scenario profile {name!r}; choose from {', '.join(BUILTIN_SCENARIOS)}"
        )
    sc = BUILTIN_SCENARIOS[name]
    if rng_seed is not None:
        sc = replace(sc, rng_seed=int(rng_seed))
    return sc


def scenario_to_dict(sc: Scenario) -> dict:
    """The scenario's fields as plain JSON data, without whichever of n/profile is unset."""
    d = {key: value for key, value in asdict(sc).items() if value is not None}
    return json.loads(json.dumps(d))  # tuples to lists, integer keys to strings


# Keys older scenario files may carry that no longer configure anything.
_RETIRED_KEYS = {StabilityParams: ("bisection_tol", "max_bisection_iters")}


# The JSON values a field of each type accepts, and how an error names them.
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "an array"),
    dict: ((dict,), "an object"),
}


def _json_kind(tp) -> type:
    """The JSON type a value of type ``tp`` is read from."""
    if is_dataclass(tp) or get_origin(tp) is abc.Mapping:
        return dict
    return list if get_origin(tp) is tuple else tp


def _fits(value, kind: type) -> bool:
    return isinstance(value, _JSON_TYPES[kind][0]) and (
        kind is bool or not isinstance(value, bool)
    )


def _typed(value, kind: type, path: str):
    """``value`` if it is a JSON value of ``kind``; else a ValueError naming its path."""
    if not _fits(value, kind):
        raise ValueError(f"scenario key {path} must be {_JSON_TYPES[kind][1]}, got {value!r}")
    return value


def _decode(tp, value, path: str):
    """Read the JSON ``value`` at ``path`` as a value of the type hint ``tp``.

    A dataclass reads from an object, ``tuple[X, ...]`` from an array and
    ``Mapping[int, X]`` from an object with integer keys; an Optional or a
    union takes the arm that the value's JSON type fits.
    """
    if get_origin(tp) in (Union, UnionType):
        if value is None and NoneType in get_args(tp):
            return None
        arms = [arm for arm in get_args(tp) if arm is not NoneType]
        for arm in arms:
            if _fits(value, _json_kind(arm)):
                return _decode(arm, value, path)
        expected = " or ".join(_JSON_TYPES[_json_kind(arm)][1] for arm in arms)
        raise ValueError(f"scenario key {path} must be {expected}, got {value!r}")
    _typed(value, _json_kind(tp), path)
    if is_dataclass(tp):
        return _decode_fields(tp, value, path)
    if get_origin(tp) is tuple:
        return tuple(_decode(get_args(tp)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if get_origin(tp) is abc.Mapping:
        decoded = {}
        for key, v in value.items():
            try:
                m = int(key)
            except ValueError:
                raise ValueError(f"scenario key {path} has a non-integer key {key!r}") from None
            decoded[m] = _decode(get_args(tp)[1], v, f"{path}.{key}")
        return decoded
    return value


def _decode_fields(cls, d: dict, path: str):
    """Build the dataclass ``cls`` from the JSON object ``d`` found at ``path``.

    Unknown keys are rejected, naming the section; a missing field without a
    default is rejected, naming its path; a missing field with one keeps it.
    """
    unknown = sorted(set(d) - {f.name for f in fields(cls)} - set(_RETIRED_KEYS.get(cls, ())))
    if unknown:
        section = path.rsplit(".", 1)[-1].split("[")[0] or "top-level"
        raise ValueError(f"unknown {section} key(s) in scenario: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        sub = f"{path}.{f.name}" if path else f.name
        if f.name in d:
            kwargs[f.name] = _decode(hints[f.name], d[f.name], sub)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"scenario is missing required key {sub}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"scenario key {path}: {exc}") from None


def scenario_from_dict(d: dict) -> Scenario:
    return _decode_fields(Scenario, _typed(d, dict, "(top level)"), "")


def save_scenario(sc: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
