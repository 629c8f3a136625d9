"""Acceptance gate: the six exit criteria, one pass/fail line each.

Criteria 1 and 2 consume the session-scoped 30-trial batches; criterion 5
reads the session's sweep of every randomized invariant at a thousand cases.
"""

import time
from dataclasses import replace

import numpy as np

from pinnet.ga import GaConfig, evolve
from pinnet.harness import brute_force_min_pinning, builtin_scenario, fixed_gain_study
from pinnet.network import generate_adjacency, make_network, single_network_system
from pinnet.stability import StabilityParams, stability_matrix

from property_checks import ALL_CHECKS


def _report(num: int, label: str, failures: list[str], started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({time.perf_counter() - started:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_single_network_study(single50_batch):
    started = time.perf_counter()
    _, summary = single50_batch
    failures = []
    if summary.feasibility_rate != 1.0:
        failures.append(f"feasibility rate {summary.feasibility_rate} != 1.0")
    for o in summary.outcomes:
        if o.convergence_time is None or o.convergence_time > 5.0:
            failures.append(f"trial {o.trial_index}: no settle within 5 s at 1e-3")
        if not (o.terminal_max_error <= 1e-3):
            failures.append(
                f"trial {o.trial_index}: terminal error {o.terminal_max_error:.2e}"
            )
    mean_fraction = summary.pinned_fraction["mean"]
    if not 0.25 <= mean_fraction <= 0.55:
        failures.append(f"mean pinned fraction {mean_fraction:.3f} outside [0.25, 0.55]")
    _report(
        1,
        f"50-node single network: 30/30 feasible, settled by 5 s, "
        f"mean pinned fraction {mean_fraction:.3f}",
        failures,
        started,
    )


def test_criterion_2_multi_network_study(multi50_batch):
    started = time.perf_counter()
    _, summary = multi50_batch
    failures = []
    if summary.feasibility_rate != 1.0:
        failures.append(f"feasibility rate {summary.feasibility_rate} != 1.0")
    for o in summary.outcomes:
        if o.convergence_time is None or o.convergence_time > 2.0:
            failures.append(f"trial {o.trial_index}: no settle within 2 s at 1e-4")
        if not (o.log10_terminal_error <= -6.0):
            failures.append(
                f"trial {o.trial_index}: log10 terminal {o.log10_terminal_error:.2f}"
            )
    worst = max(o.log10_terminal_error for o in summary.outcomes)
    _report(
        2,
        f"50-vehicle overlapped networks: 30/30 feasible, composite-target "
        f"errors settle by 2 s, worst terminal log10 {worst:.1f}",
        failures,
        started,
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    params = StabilityParams(delta=1.0, c_max=50.0)
    matches = 0
    failures = []
    for seed in range(20):
        net = make_network(generate_adjacency(5, 0.5, seed), 0.8, 1.0, 0.0)
        oracle = brute_force_min_pinning(net, params)
        if oracle is None:
            failures.append(f"seed {seed}: enumeration found nothing certifiable")
            continue
        cfg = GaConfig(
            population_size=32,
            generations=30,
            rng_seed=seed,
            stability=params,
        )
        report = evolve(cfg, single_network_system(net))
        if report.best_feasible is None:
            failures.append(f"seed {seed}: search found no certifiable set")
            continue
        found = report.best_feasible.pinned_count
        if found < oracle[0]:
            failures.append(f"seed {seed}: search count {found} below oracle {oracle[0]}")
        matches += found == oracle[0]
    if matches < 18:
        failures.append(f"only {matches}/20 seeds matched the exhaustive minimum")
    _report(
        3,
        f"5-node exhaustive-oracle equivalence: {matches}/20 exact matches, "
        "never below the minimum",
        failures,
        started,
    )


def test_criterion_4_fixed_gain_comparison():
    started = time.perf_counter()
    # the gain comparison runs at unit strictness so every fixed gain in 1..5
    # admits certifiable sets (a floor above 2*c/N per node would make the
    # small gains unsatisfiable outright), and seeds the population densely:
    # gain 1 certifies only sets of ~2/3 of the nodes, which sparse seeding
    # never reaches
    sc = builtin_scenario("single-50")
    sc = replace(
        sc,
        ga=replace(sc.ga, init_prob=0.8, stability=StabilityParams(delta=1.0)),
    )
    study = fixed_gain_study(sc, [1.0, 2.0, 3.0, 4.0, 5.0], trials=30)
    failures = []
    base = study.baseline.mean_pinned_count
    for row in study.rows:
        if not row.mean_pinned_count > base:
            failures.append(
                f"{row.label}: mean pinned {row.mean_pinned_count:.1f} "
                f"not above baseline {base:.1f}"
            )
    spread = ", ".join(f"{r.label}:{r.mean_pinned_count:.1f}" for r in study.rows)
    _report(
        4,
        f"fixed gains need more pins than solved gains (baseline {base:.1f}; {spread})",
        failures,
        started,
    )


def test_criterion_5_property_suite(property_failures):
    started = time.perf_counter()
    failures = [f"{name}: {exc!r}" for name, exc in property_failures.items()]
    _report(
        5,
        f"{len(ALL_CHECKS)} randomized invariants at 1000 cases each",
        failures,
        started,
    )


def test_criterion_6_kronecker_reduction_equivalence():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(6)
    for trial in range(5):
        l_sym = make_network(
            generate_adjacency(3, 0.3, trial), 1.0
        ).lap.symmetric_part
        pins = np.array([1.0, 0.0, 1.0]) if trial % 2 == 0 else np.array([0.0, 1.0, 0.0])
        coupling = float(rng.uniform(0.5, 2.0))
        gain = float(rng.uniform(0.5, 5.0))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(0.5, 2.0))
        q_block = q * np.eye(2)
        explicit = 2.0 * coupling * gamma * np.kron(l_sym, q_block) + (
            2.0 * gain * gamma * np.kron(np.diag(pins), q_block)
        )
        assert explicit.shape == (6, 6)
        reduced = stability_matrix(l_sym, pins, coupling, gain, gamma)
        gap = abs(np.linalg.eigvalsh(explicit)[0] - q * np.linalg.eigvalsh(reduced)[0])
        if gap > 1e-9:
            failures.append(f"trial {trial}: eigenvalue gap {gap:.2e}")
    _report(
        6,
        "explicit 6x6 two-component test matches the reduced 3x3 eigenvalue",
        failures,
        started,
    )
