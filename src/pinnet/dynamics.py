"""Fixed-step integration of the coupled consensus dynamics.

Node states evolve under diffusive coupling plus pinning feedback.  Both the
single- and multi-network simulators integrate the deviation e_i = x_i - x_i*
from each node's (composite) target, whose dynamics are linear:

    de/dt = sum_k [ -C_k*gamma_k*L^(k) - c_k*gamma_k*D_hat^(k) ] e,

with every network's matrices embedded into global node coordinates.  Working
in deviations makes heterogeneous network targets aggregate compatibly at
overlap nodes: the composite target is an exact equilibrium, the error
trajectory scales linearly with the initial error, and a feasible stability
certificate at the used gains yields monotone Lyapunov descent.  For a single
network (or equal targets) this coincides with coupling the raw states.
The drift A is constant, so a step of size h is one product with the scheme's
stability polynomial sum_{j<=p} (hA)^j / j! (p = 1 for Euler, p = 4 for RK4).

Trajectories record every step: states x(t) = x* + e(t), per-node error norms
and the Lyapunov value sum_i ||e_i||^2 (unit weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .network import DirectedNetwork, MultiNetworkSystem, single_network_system
from .stability import PinningPlan

DIVERGENCE_LIMIT = 1e12
# Steps integrated between divergence checks, and rows per CSV format call.
# Blocks of 128-512 rows kept peak RSS at the old writer's; 64 raised it ~6 MB.
_BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when the integrator produces a non-finite or exploding state."""

    def __init__(self, step: int, time: float):
        super().__init__(
            f"state diverged at step {step} (t = {time:.6g} s); "
            "check gains and step size"
        )
        self.step = step
        self.time = time


@dataclass(frozen=True)
class SimulationConfig:
    """Integration step, horizon, scheme and convergence tolerance."""

    dt: float = 1e-3
    horizon: float = 5.0
    integrator: str = "rk4"
    convergence_tol: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step")
        if self.integrator not in ("rk4", "euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be > 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Sampled states x(t), per-node error norms and Lyapunov values."""

    times: np.ndarray  # (S,)
    states: np.ndarray  # (S, N, m)
    errors: np.ndarray  # (S, N), ||x_i(t) - x_i*||
    lyapunov: np.ndarray  # (S,), sum_i ||e_i(t)||^2

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    def max_errors(self) -> np.ndarray:
        return self.errors.max(axis=1)

    @property
    def terminal_max_error(self) -> float:
        return float(self.errors[-1].max())


def _drift_matrix(net: DirectedNetwork, pins: np.ndarray, gain: float) -> np.ndarray:
    return (
        -net.coupling_strength * net.gamma * net.lap.laplacian
        - gain * net.gamma * np.diag(np.asarray(pins, dtype=np.float64))
    )


def _assemble_drift(sys: MultiNetworkSystem, plan: PinningPlan) -> np.ndarray:
    n = sys.total_nodes
    a = np.zeros((n, n))
    for net, pins, gain in zip(sys.networks, plan.pins, plan.gains):
        if gain is None or gain < 0.0:
            raise ValueError("every network needs a solved nonnegative gain")
        idx = net.node_ids
        a[np.ix_(idx, idx)] += _drift_matrix(net, pins, gain)
    return a


def _integrate(
    a: np.ndarray, e0: np.ndarray, targets: np.ndarray, sim: SimulationConfig
) -> Trajectory:
    n_steps = sim.n_steps
    path = np.empty((n_steps + 1,) + e0.shape)
    path[0] = e0
    ha, eye = sim.dt * a, np.eye(len(a))  # the stability polynomial, Horner form
    step = eye
    for k in (4.0, 3.0, 2.0, 1.0) if sim.integrator == "rk4" else (1.0,):
        step = eye + (ha @ step) / k
    # A diverging block may overflow before it is checked; the check catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            for k in range(start, stop):
                np.matmul(step, path[k], out=path[k + 1])
            block = path[start + 1 : stop + 1].reshape(stop - start, -1)
            bad = ~(np.abs(block) <= DIVERGENCE_LIMIT).all(axis=1)  # nan is bad too
            if bad.any():
                first = start + 1 + int(np.argmax(bad))
                raise DivergenceError(step=first, time=first * sim.dt)
    errors = np.sqrt(np.sum(path * path, axis=2))
    path += targets[None, :, :]  # the states, in place of a second path-sized array
    return Trajectory(
        times=np.arange(n_steps + 1) * sim.dt,
        states=path,
        errors=errors,
        lyapunov=np.sum(errors * errors, axis=1),
    )


def _as_states(x0: np.ndarray, n: int, m: int) -> np.ndarray:
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (n, m):
        raise ValueError(f"initial states must have shape ({n}, {m}), got {x.shape}")
    return x


def simulate_multi(
    sys: MultiNetworkSystem,
    plan: PinningPlan,
    x0: np.ndarray,
    sim: SimulationConfig,
) -> Trajectory:
    """Integrate the coupled multi-network dynamics from x0.

    Errors are measured against the per-node composite targets.
    """
    targets = sys.composite_targets
    x = _as_states(x0, sys.total_nodes, sys.state_dim)
    a = _assemble_drift(sys, plan)
    return _integrate(a, x - targets, targets, sim)


def simulate_single(
    net: DirectedNetwork,
    d_hat: np.ndarray,
    gain: float,
    x0: np.ndarray,
    sim: SimulationConfig,
) -> Trajectory:
    """Integrate one network pulling pinned nodes toward its target."""
    sys = single_network_system(net)
    pins = np.asarray(d_hat, dtype=np.float64)
    if pins.shape != (net.n,):
        raise ValueError("pin vector length must match the network size")
    plan = PinningPlan.from_genes(sys, [pins], [float(gain)])
    return simulate_multi(sys, plan, x0, sim)


def convergence_time(traj: Trajectory, tol: float) -> Optional[float]:
    """Earliest sampled time from which the max-node error stays within tol."""
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    worst = traj.max_errors()
    above = np.nonzero(worst > tol)[0]
    if len(above) == 0:
        return float(traj.times[0])
    last_bad = above[-1]
    if last_bad + 1 >= len(worst):
        return None
    return float(traj.times[last_bad + 1])


def lyapunov_series(traj: Trajectory, q: float) -> tuple[np.ndarray, np.ndarray]:
    """V(t) = q * sum_i ||e_i||^2 per sample, plus its forward difference.

    The derivative has one fewer entry than the series and is aligned with
    times[:-1].
    """
    if q <= 0.0:
        raise ValueError("q must be > 0")
    values = q * traj.lyapunov
    derivative = np.diff(values) / np.diff(traj.times)
    return values, derivative


def _write_series_csv(
    path: str | Path, times: np.ndarray, table: np.ndarray, labels: list[str], stride: int
) -> None:
    if stride < 1:
        raise ValueError("stride must be >= 1")
    times, table = times[::stride], table[::stride]
    line = ",".join(["%.17g"] * (len(labels) + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(labels) + "\n")
        for start in range(0, len(times), _BLOCK):
            block = np.column_stack((times[start : start + _BLOCK], table[start : start + _BLOCK]))
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def export_trajectory_csv(traj: Trajectory, path: str | Path, stride: int = 1) -> None:
    """Write sampled states, one row per instant, 17 significant digits.

    Columns are node_0..node_{N-1} for scalar states; for m > 1 every
    component gets its own node_{i}_{j} column.  ``stride`` keeps every n-th
    sample (plus the first); the in-memory trajectory always holds every step.
    """
    s, n, m = traj.states.shape
    if m == 1:
        labels = [f"node_{i}" for i in range(n)]
    else:
        labels = [f"node_{i}_{j}" for i in range(n) for j in range(m)]
    _write_series_csv(path, traj.times, traj.states.reshape(s, n * m), labels, stride)


def export_errors_csv(traj: Trajectory, path: str | Path, stride: int = 1) -> None:
    """Write per-node error norms with the same shape as the trajectory CSV."""
    labels = [f"node_{i}" for i in range(traj.n_nodes)]
    _write_series_csv(path, traj.times, traj.errors, labels, stride)
