"""Output checks for pinnet trial artifacts, computed apart from the program.

Every check reads the artifacts a trial wrote (``summary.json``,
``trajectory.csv``, ``errors.csv``) or a batch wrote (``trials.csv``,
``batch_summary.json``) and recomputes what they claim with numpy alone: the
Laplacians, the eigenvalue certificate, the closed-loop drift and its matrix
exponential. Only the inputs of a trial (adjacency matrices, node ids and the
scenario constants) come from outside. A check raises ``CheckError`` with a
one-line reason when the artifacts disagree with the recomputation.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Relative step below a solved gain at which the certificate must fail.
MIN_GAIN_EPS = 1e-3
# Below this absolute step the minimality test falls back to gain zero.
MIN_GAIN_RESOLUTION = 1e-5
# Certificate slack, relative to the scale of the test matrix.
CERT_RTOL = 1e-10
# V(t) may exceed V(0) * exp(-delta t / q) by this share (roundoff only).
DECAY_SLACK = 1e-9
# Absolute floor of the exact-solution tolerance, relative to max |x|.
EXACT_RTOL = 1e-12


class CheckError(AssertionError):
    """An artifact disagrees with its independent recomputation."""


@dataclass(frozen=True)
class NetworkInput:
    """One network as the trial received it: the inputs, not derived data."""

    adjacency: np.ndarray
    node_ids: np.ndarray
    coupling: float
    gamma: float
    target: float


@dataclass(frozen=True)
class TrialInput:
    """Everything a check needs besides the artifacts themselves."""

    networks: tuple[NetworkInput, ...]
    n_total: int
    delta: float
    q: float
    dt: float
    horizon: float


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """L = diag(G 1) - G."""
    g = np.asarray(adjacency, dtype=np.float64)
    return np.diag(g.sum(axis=1)) - g


def symmetric_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """The symmetric part (L + L^T) / 2 of the Laplacian."""
    lap = laplacian(adjacency)
    return 0.5 * (lap + lap.T)


def certificate_matrix(net: NetworkInput, pins: np.ndarray, gain: float) -> np.ndarray:
    """2*C*gamma*L_s + 2*c*gamma*D_hat for one network."""
    ls = symmetric_laplacian(net.adjacency)
    return 2.0 * net.coupling * net.gamma * ls + 2.0 * gain * net.gamma * np.diag(pins)


def _margin(net: NetworkInput, pins: np.ndarray, gain: float, delta: float, q: float):
    m = certificate_matrix(net, pins, gain)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    scale = max(1.0, float(np.max(np.abs(m))))
    return q * lam_min - delta, scale


def _plan(summary: dict) -> tuple[list[np.ndarray], list[float]]:
    best = summary["ga"]["feasible_best"]
    if best is None:
        raise CheckError("summary.json holds no feasible plan")
    genes = [np.array([float(b) for b in s]) for s in best["genes"]]
    return genes, [float(c) for c in best["gains"]]


def check_certificate(inp: TrialInput, summary: dict) -> None:
    """q * lambda_min(2 C gamma L_s + 2 c gamma D_hat) >= delta on every network."""
    genes, gains = _plan(summary)
    outcome_gains = summary["outcome"]["gains"]
    if [float(c) for c in outcome_gains] != gains:
        raise CheckError(f"outcome gains {outcome_gains} differ from the plan's {gains}")
    for k, (net, pins, gain) in enumerate(zip(inp.networks, genes, gains)):
        margin, scale = _margin(net, pins, gain, inp.delta, inp.q)
        if margin < -CERT_RTOL * scale:
            raise CheckError(
                f"network {k}: q*lambda_min - delta = {margin:.3e} < 0 at gain {gain!r}"
            )


def check_minimal_gain(inp: TrialInput, summary: dict) -> None:
    """Every nonzero solved gain is minimal: the certificate fails just below it."""
    genes, gains = _plan(summary)
    for k, (net, pins, gain) in enumerate(zip(inp.networks, genes, gains)):
        if gain == 0.0:
            continue
        below = gain * (1.0 - MIN_GAIN_EPS)
        if gain - below < MIN_GAIN_RESOLUTION:
            below = 0.0
        margin, _ = _margin(net, pins, below, inp.delta, inp.q)
        if margin >= 0.0:
            raise CheckError(
                f"network {k}: gain {gain!r} is not minimal; {below!r} also certifies"
            )


def check_overlap_count(inp: TrialInput, summary: dict) -> None:
    """The pinned count is the size of the union of pinned node ids."""
    genes, _ = _plan(summary)
    pinned = set()
    for net, pins in zip(inp.networks, genes):
        pinned.update(int(i) for i in net.node_ids[pins == 1.0])
    outcome = summary["outcome"]
    if outcome["pinned_count"] != len(pinned):
        raise CheckError(
            f"pinned_count {outcome['pinned_count']} != {len(pinned)} distinct pinned nodes"
        )
    if summary["ga"]["feasible_best"]["pinned_count"] != len(pinned):
        raise CheckError("the plan's pinned_count disagrees with its genes")
    if abs(outcome["pinned_fraction"] - len(pinned) / inp.n_total) > 1e-15:
        raise CheckError(f"pinned_fraction {outcome['pinned_fraction']} != count / N")


def check_certified_decay(inp: TrialInput, times: np.ndarray, errors: np.ndarray) -> None:
    """V(t) = sum_i e_i^2 stays below V(0) * exp(-delta t / q)."""
    v = np.sum(errors * errors, axis=1)
    bound = v[0] * np.exp(-inp.delta * times / inp.q)
    ratio = v / np.maximum(bound, np.finfo(float).tiny)
    worst = int(np.argmax(ratio))
    if ratio[worst] > 1.0 + DECAY_SLACK:
        raise CheckError(
            f"V(t) exceeds its certified bound by a factor {ratio[worst]:.9g} "
            f"at t = {times[worst]:g}"
        )


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Pade approximant.

    The coefficients and the scaling threshold are those of Higham, "The
    scaling and squaring method for the matrix exponential revisited", SIAM
    J. Matrix Anal. Appl. 26 (2005).
    """
    b = (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    )
    a = np.asarray(a, dtype=np.float64)
    norm1 = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    s = max(0, int(math.ceil(math.log2(norm1 / 5.371920351148152)))) if norm1 > 0 else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def drift_matrix(inp: TrialInput, genes: Sequence[np.ndarray], gains: Sequence[float]) -> np.ndarray:
    """A = sum_k embed(-C_k gamma_k L_k - c_k gamma_k D_hat_k) in global coordinates."""
    a = np.zeros((inp.n_total, inp.n_total))
    for net, pins, gain in zip(inp.networks, genes, gains):
        idx = np.asarray(net.node_ids)
        a[np.ix_(idx, idx)] -= (
            net.coupling * net.gamma * laplacian(net.adjacency) + gain * net.gamma * np.diag(pins)
        )
    return a


def composite_targets(inp: TrialInput) -> np.ndarray:
    """Each node's target: the mean of its member networks' targets."""
    total = np.zeros(inp.n_total)
    count = np.zeros(inp.n_total)
    for net in inp.networks:
        total[net.node_ids] += net.target
        count[net.node_ids] += 1.0
    return total / count


def check_exact_solution(
    inp: TrialInput, summary: dict, times: np.ndarray, x_first: np.ndarray, x_last: np.ndarray
) -> None:
    """The terminal state equals x* + exp(A T) (x(0) - x*) within the RK4 error.

    The tolerance is twice the distance between the exact solution and the
    RK4 propagator R(hA)^n applied to the same initial error, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, plus a roundoff floor.
    """
    genes, gains = _plan(summary)
    a = drift_matrix(inp, genes, gains)
    target = composite_targets(inp)
    e0 = x_first - target
    n_steps = len(times) - 1
    if n_steps != int(round(inp.horizon / inp.dt)):
        raise CheckError(f"trajectory has {n_steps} steps, expected horizon / dt")
    exact = expm(a * (n_steps * inp.dt)) @ e0
    ha = inp.dt * a
    eye = np.eye(inp.n_total)
    step = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    rk4 = np.linalg.matrix_power(step, n_steps) @ e0
    tol = 2.0 * np.abs(rk4 - exact) + EXACT_RTOL * (1.0 + np.max(np.abs(x_first)))
    dev = np.abs((x_last - target) - exact)
    worst = int(np.argmax(dev - tol))
    if dev[worst] > tol[worst]:
        raise CheckError(
            f"node {worst}: terminal state off the exact solution by {dev[worst]:.3e} "
            f"(tolerance {tol[worst]:.3e})"
        )


def read_first_last_rows(path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    """First and last data rows of a series CSV, and its data row count."""
    with open(path, "rb") as fh:
        fh.readline()
        first = last = fh.readline()
        rows = 1
        for line in fh:
            last = line
            rows += 1
    return (
        np.array(first.decode().split(","), dtype=np.float64),
        np.array(last.decode().split(","), dtype=np.float64),
        rows,
    )


def check_trial(trial_dir: Path, inp: TrialInput, solved: bool) -> dict[str, str]:
    """Run every per-trial check; map the name of each failed check to its reason."""
    summary = json.loads((trial_dir / "summary.json").read_text(encoding="utf-8"))
    if not summary["outcome"]["feasible"]:
        return {"feasible": "the trial ended without a feasible plan"}
    errors = np.loadtxt(trial_dir / "errors.csv", delimiter=",", skiprows=1, ndmin=2)
    first, last, rows = read_first_last_rows(trial_dir / "trajectory.csv")
    failed = {}
    if rows != errors.shape[0]:
        failed["trajectory_rows"] = f"{rows} trajectory rows, {errors.shape[0]} error rows"
    checks = [
        ("certificate", lambda: check_certificate(inp, summary)),
        ("overlap_count", lambda: check_overlap_count(inp, summary)),
        ("certified_decay", lambda: check_certified_decay(inp, errors[:, 0], errors[:, 1:])),
        ("exact_solution", lambda: check_exact_solution(
            inp, summary, errors[:, 0], first[1:], last[1:])),
    ]
    if solved:
        checks.append(("minimal_gain", lambda: check_minimal_gain(inp, summary)))
    for name, check in checks:
        try:
            check()
        except CheckError as exc:
            failed[name] = str(exc)
    return failed


def check_batch_summary(batch_dir: Path) -> None:
    """Feasibility rate and mean pinned fraction folded from trials.csv match the summary."""
    with open(batch_dir / "trials.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((batch_dir / "batch_summary.json").read_text(encoding="utf-8"))
    if summary["trials"] != len(rows):
        raise CheckError(f"batch_summary.json counts {summary['trials']} trials, trials.csv {len(rows)}")
    rate = statistics.fmean(float(r["feasible"]) for r in rows)
    frac = statistics.fmean(float(r["pinned_fraction"]) for r in rows)
    for name, folded, stated in (
        ("feasibility_rate", rate, summary["feasibility_rate"]),
        ("pinned_fraction.mean", frac, summary["pinned_fraction"]["mean"]),
    ):
        if not math.isclose(folded, stated, rel_tol=1e-12, abs_tol=1e-15):
            raise CheckError(f"{name}: trials.csv folds to {folded!r}, summary states {stated!r}")
