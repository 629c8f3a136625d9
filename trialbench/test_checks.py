"""Each output check passes on real artifacts and fails on a deliberately broken copy.

Run from the root of a checkout: ``python3 -m pytest trialbench -q``.
"""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

import checks
import run

pinnet = run.import_pinnet()


def _batch(tmp_path_factory, name, profile, trials, **ga):
    sc = pinnet.builtin_scenario(profile, rng_seed=11)
    sc = replace(sc, ga=replace(sc.ga, **ga))
    out = tmp_path_factory.mktemp(name)
    pinnet.run_batch(sc, trials=trials, out_dir=out)
    return sc, out


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small solved-gain multi-network batch: two trials, cheap GA."""
    return _batch(tmp_path_factory, "solved", "multi-50", 2, population_size=20, generations=3)


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    """One fixed-gain single-network trial, as in the single50-fixedgain workload."""
    return _batch(tmp_path_factory, "fixed", "single-50", 1, fixed_gain=5.0)


def _copy(batch, tmp_path):
    sc, out = batch
    dest = tmp_path / "batch"
    shutil.copytree(out, dest)
    return sc, dest, dest / "trial_000", run.trial_input(pinnet.build_system(sc, 0), sc)


def _edit_summary(trial_dir, edit):
    path = trial_dir / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))
    return summary


def _set_gain(summary, k, gain):
    summary["ga"]["feasible_best"]["gains"][k] = gain
    summary["outcome"]["gains"][k] = gain


def _edit_csv_row(path, row, edit):
    lines = path.read_text().splitlines()
    values = [float(v) for v in lines[row + 1].split(",")]
    lines[row + 1] = ",".join(repr(v) for v in edit(values))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("batch, solved_gain", [("solved", True), ("fixed", False)])
def test_unbroken_artifacts_pass_every_check(request, batch, solved_gain):
    sc, out = request.getfixturevalue(batch)
    for t in range(len(list(out.glob("trial_*")))):
        inp = run.trial_input(pinnet.build_system(sc, t), sc)
        assert checks.check_trial(out / f"trial_{t:03d}", inp, solved_gain) == {}
    checks.check_batch_summary(out)


@pytest.mark.parametrize("batch", ["solved", "fixed"])
def test_certificate_fails_on_halved_gain(request, tmp_path, batch):
    _, _, trial, inp = _copy(request.getfixturevalue(batch), tmp_path)
    summary = _edit_summary(
        trial, lambda s: _set_gain(s, 0, s["outcome"]["gains"][0] / 2.0)
    )
    with pytest.raises(checks.CheckError, match="lambda_min"):
        checks.check_certificate(inp, summary)


def test_minimal_gain_fails_on_raised_gain(solved, tmp_path):
    _, _, trial, inp = _copy(solved, tmp_path)
    summary = _edit_summary(
        trial, lambda s: _set_gain(s, 1, s["outcome"]["gains"][1] * 1.01)
    )
    checks.check_certificate(inp, summary)
    with pytest.raises(checks.CheckError, match="not minimal"):
        checks.check_minimal_gain(inp, summary)


def _drop_one_pin(summary, inp):
    """Unpin, in network 0, a node that no other network pins."""
    genes = summary["ga"]["feasible_best"]["genes"]
    elsewhere = {
        int(i)
        for net, g in zip(inp.networks[1:], genes[1:])
        for i, b in zip(net.node_ids, g)
        if b == "1"
    }
    for pos, (node, bit) in enumerate(zip(inp.networks[0].node_ids, genes[0])):
        if bit == "1" and int(node) not in elsewhere:
            genes[0] = genes[0][:pos] + "0" + genes[0][pos + 1:]
            return
    raise AssertionError("network 0 pins no node of its own")


@pytest.mark.parametrize(
    "batch, failing",
    [
        ("solved", ["certificate", "overlap_count"]),
        ("fixed", ["overlap_count"]),
    ],
)
def test_dropped_pin_is_caught(request, tmp_path, batch, failing):
    _, _, trial, inp = _copy(request.getfixturevalue(batch), tmp_path)
    _edit_summary(trial, lambda s: _drop_one_pin(s, inp))
    assert [f for f in checks.check_trial(trial, inp, batch == "solved") if f in failing] == failing


@pytest.mark.parametrize("batch", ["solved", "fixed"])
def test_certified_decay_fails_on_scaled_errors_row(request, tmp_path, batch):
    _, _, trial, inp = _copy(request.getfixturevalue(batch), tmp_path)
    _edit_csv_row(trial / "errors.csv", 1, lambda v: [v[0]] + [1.5 * e for e in v[1:]])
    errors = np.loadtxt(trial / "errors.csv", delimiter=",", skiprows=1)
    with pytest.raises(checks.CheckError, match="certified bound"):
        checks.check_certified_decay(inp, errors[:, 0], errors[:, 1:])


@pytest.mark.parametrize("batch", ["solved", "fixed"])
def test_exact_solution_fails_on_shifted_terminal_state(request, tmp_path, batch):
    _, _, trial, inp = _copy(request.getfixturevalue(batch), tmp_path)
    path = trial / "trajectory.csv"
    _, _, rows = checks.read_first_last_rows(path)
    _edit_csv_row(path, rows - 1, lambda v: v[:3] + [v[3] + 1e-6] + v[4:])
    assert list(checks.check_trial(trial, inp, batch == "solved")) == ["exact_solution"]


@pytest.mark.parametrize("batch", ["solved", "fixed"])
def test_overlap_count_fails_on_pinned_count_off_by_one(request, tmp_path, batch):
    _, _, trial, inp = _copy(request.getfixturevalue(batch), tmp_path)

    def bump(s):
        s["outcome"]["pinned_count"] += 1

    summary = _edit_summary(trial, bump)
    with pytest.raises(checks.CheckError, match="distinct pinned nodes"):
        checks.check_overlap_count(inp, summary)


@pytest.mark.parametrize("column", [3, 1])  # pinned_fraction, feasible
def test_batch_summary_fails_on_altered_trials_row(solved, tmp_path, column):
    _, batch, _, _ = _copy(solved, tmp_path)
    path = batch / "trials.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = "0" if column == 1 else repr(float(cells[column]) + 0.02)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="trials.csv folds"):
        checks.check_batch_summary(batch)


def test_expm_matches_an_eigendecomposition():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(12, 12))
    sym = -(b @ b.T) * 3.0  # stiff and decaying, like a closed-loop drift
    lam, vec = np.linalg.eigh(sym)
    expected = (vec * np.exp(lam)) @ vec.T
    assert np.allclose(checks.expm(sym), expected, rtol=1e-10, atol=1e-13)
    asym = rng.normal(size=(9, 9))
    lam, vec = np.linalg.eig(asym)
    expected = ((vec * np.exp(lam)) @ np.linalg.inv(vec)).real
    assert np.allclose(checks.expm(asym), expected, rtol=1e-9, atol=1e-12)
