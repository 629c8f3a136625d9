"""The benchmark's tracer patches pinnet's module names for a block and restores them.

``trialbench/tracing.py`` looks each name up as ``owner.__dict__[name]``, so a
refactor that drops or moves one of those names breaks a traced benchmark run;
this test runs the tracer over one tiny trial to catch that in the suite.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pinnet.ga
import pinnet.harness
import pinnet.stability
from pinnet.harness import builtin_scenario, run_scenario

TRACING = Path(__file__).resolve().parent.parent / "trialbench" / "tracing.py"
OWNERS = (pinnet.harness, pinnet.ga, pinnet.ga.GaReport, pinnet.stability)


def load_tracing():
    spec = importlib.util.spec_from_file_location("trialbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it(tmp_path):
    tracer = load_tracing().Tracer()
    before = [dict(owner.__dict__) for owner in OWNERS]
    sc = builtin_scenario("multi-50")
    sc = replace(sc, ga=replace(sc.ga, population_size=4, generations=1))
    with tracer.installed():
        patched = {
            (owner.__name__, name)
            for owner, names in zip(OWNERS, before)
            for name, value in names.items()
            if owner.__dict__[name] is not value
        }
        outcome = run_scenario(sc, out_dir=tmp_path)
    assert patched == {
        ("pinnet.harness", "build_system"),
        ("pinnet.harness", "evolve"),
        ("pinnet.harness", "simulate_multi"),
        ("pinnet.harness", "export_trajectory_csv"),
        ("pinnet.harness", "export_errors_csv"),
        ("pinnet.ga", "solve_min_gain"),
        ("pinnet.ga", "check_gain"),
        ("GaReport", "write_csv"),
        ("pinnet.stability", "np"),
    }
    for owner, names in zip(OWNERS, before):
        assert owner.__dict__.keys() == names.keys()
        assert all(owner.__dict__[name] is value for name, value in names.items())
    # the trial ran through every span, so each wrapped name was really called
    assert outcome.feasible
    for span in ("build", "search", "solve", "simulate", "export", "report_csv"):
        assert tracer.calls[span] >= 1, span
    assert tracer.eigensolves > 0 and tracer.steps > 0 and tracer.export_bytes > 0
