"""Integration of the coupled dynamics, error series and Lyapunov checks."""

import warnings

import numpy as np
import pytest

from pinnet import dynamics
from pinnet.dynamics import (
    _BLOCK,
    DivergenceError,
    SimulationConfig,
    Trajectory,
    convergence_time,
    export_errors_csv,
    export_trajectory_csv,
    simulate_multi,
)
from pinnet.network import DirectedNetwork, MultiNetworkSystem, generate_adjacency
from pinnet.stability import StabilityParams, solve_min_gain

from property_checks import stagewise_integrate


def one_network(adjacency: np.ndarray, target: float) -> MultiNetworkSystem:
    """A K = 1 system: one network on nodes 0..n-1 with coupling 0.8."""
    return MultiNetworkSystem((DirectedNetwork(adjacency, 0.8, 1.0, target),))


def scalar_system(target: float = 5.0) -> MultiNetworkSystem:
    return one_network(np.zeros((1, 1)), target)


class TestSimulateSingle:
    def test_equilibrium_is_invariant(self):
        sys = one_network(generate_adjacency(6, 0.4, 0), 90.0)
        x0 = np.full(6, 90.0)
        traj = simulate_multi(sys, [np.ones(6)], [2.0], x0, SimulationConfig(horizon=0.5))
        assert np.all(traj.errors == 0.0)
        assert np.all(traj.states == 90.0)
        assert np.all(traj.lyapunov == 0.0)

    def test_scalar_closed_form_decay(self):
        # single pinned node, no neighbors, unit gain: error is exp(-t)
        sys = scalar_system()
        sim = SimulationConfig(dt=1e-3, horizon=2.0)
        traj = simulate_multi(sys, [np.ones(1)], [1.0], np.array([6.0]), sim)
        for t in (0.5, 1.0, 2.0):
            idx = int(round(t / sim.dt))
            assert abs(traj.errors[idx, 0] - np.exp(-t)) <= 1e-6

    def test_times_strictly_increasing_and_sampled_every_step(self):
        sys = scalar_system()
        sim = SimulationConfig(dt=0.01, horizon=0.25)
        traj = simulate_multi(sys, [np.ones(1)], [1.0], np.array([6.0]), sim)
        assert len(traj.times) == 26
        assert np.all(np.diff(traj.times) > 0)

    @staticmethod
    def divergence_matching_oracle(integrator: str, gain: float) -> DivergenceError:
        """Diverge a scalar pinned node at ``gain``; the error must match the oracle's.

        The reported step and time must equal those of the stagewise integrator,
        and no numpy warning may escape.
        """
        sys = scalar_system()
        net = sys.networks[0]
        sim = SimulationConfig(dt=1e-3, horizon=1.0, integrator=integrator)
        a = -net.coupling_strength * net.lap.laplacian - gain * np.eye(1)
        e0 = np.array([[15.0 - 5.0]])  # x0 = 15 against the target 5
        with pytest.raises(DivergenceError) as expected:
            stagewise_integrate(a, e0, sim.dt, sim.n_steps, integrator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                simulate_multi(sys, [np.ones(1)], [gain], np.array([15.0]), sim)
        assert err.value.step == expected.value.step
        assert err.value.time == expected.value.time
        return err.value

    def test_divergence_guard_reports_first_bad_step(self):
        # gain far beyond the explicit-step stability limit blows up fast:
        # hA = -5 gives |R(hA)| ~ 14, so the first bad step is in the first block
        self.divergence_matching_oracle("rk4", 5000.0)

    def test_divergence_in_a_later_block(self):
        # Euler with |1 + hA| chosen to take the error of 10 past 1e12 half a
        # step after 1.5 blocks, so roundoff cannot move the first bad step
        rate = (1e12 / 10.0) ** (1.0 / (1.5 * _BLOCK + 0.5))
        err = self.divergence_matching_oracle("euler", (1.0 + rate) / 1e-3)
        assert _BLOCK < err.step < 2 * _BLOCK

    def test_divergence_with_overflow_in_its_block(self):
        # |R(hA)| ~ 1e13 per step: the block overflows to inf after its first
        # bad step, which must still be the one reported
        self.divergence_matching_oracle("rk4", 5e6)

    def test_euler_integrator(self):
        sys = scalar_system()
        sim = SimulationConfig(dt=1e-4, horizon=1.0, integrator="euler")
        traj = simulate_multi(sys, [np.ones(1)], [1.0], np.array([6.0]), sim)
        assert abs(traj.errors[-1, 0] - np.exp(-1.0)) <= 1e-3


class TestSimulateMulti:
    def test_k1_system_matches_single_bitwise(self):
        # embedding one network on nodes 0..n-1 leaves its closed-loop drift as it is
        sys = one_network(generate_adjacency(6, 0.5, 1), 42.0)
        net = sys.networks[0]
        pins = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        res = solve_min_gain(net.lap.symmetric_part, pins, 0.8, 1.0, StabilityParams())
        rng = np.random.default_rng(3)
        x0 = rng.normal(45.0, 5.0, 6)
        sim = SimulationConfig(dt=1e-3, horizon=0.8)
        a = -0.8 * net.lap.laplacian - res.gain * np.diag(pins)
        traj_a = dynamics._integrate(a, x0[:, None] - 42.0, sys.composite_targets, sim)
        traj_b = simulate_multi(sys, [pins], [res.gain], x0, sim)
        assert np.array_equal(traj_a.states, traj_b.states)
        assert np.array_equal(traj_a.errors, traj_b.errors)

    def test_shared_node_gains_add(self):
        # one node pinned in two networks with equal targets: rates stack
        nets = [
            DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 60.0, [0]),
            DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 60.0, [0]),
        ]
        sys = MultiNetworkSystem(tuple(nets))
        sim = SimulationConfig(dt=1e-3, horizon=1.5)
        traj = simulate_multi(sys, [np.ones(1), np.ones(1)], [1.0, 1.0], np.array([65.0]), sim)
        for t in (0.5, 1.0, 1.5):
            idx = int(round(t / sim.dt))
            assert abs(traj.errors[idx, 0] - 5.0 * np.exp(-2.0 * t)) <= 1e-6

    def test_errors_measured_against_composite_targets(self):
        nets = [
            DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 50.0, [0]),
            DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 70.0, [0]),
        ]
        sys = MultiNetworkSystem(tuple(nets))
        sim = SimulationConfig(horizon=0.1)
        traj = simulate_multi(sys, [np.ones(1), np.ones(1)], [1.0, 1.0], np.array([60.0]), sim)
        # starting on the composite target keeps the error identically zero
        assert np.all(traj.errors == 0.0)

    @pytest.mark.parametrize(
        "pins, gains, message",
        [
            ([np.ones(1)], [1.0, 1.0], "one gene vector and one gain per network"),
            ([np.ones(1)] * 2, [1.0], "one gene vector and one gain per network"),
            ([np.ones(1), np.ones(2)], [1.0, 1.0], "gene vector length must match"),
            ([np.ones(1)] * 2, [1.0, -0.5], "finite nonnegative gain, got -0.5"),
            ([np.ones(1)] * 2, [float("nan"), 1.0], "finite nonnegative gain, got nan"),
            ([np.ones(1)] * 2, [1.0, float("inf")], "finite nonnegative gain, got inf"),
            ([np.ones(1)] * 2, [None, 1.0], "finite nonnegative gain, got None"),
        ],
        ids=["one-pin-vector", "one-gain", "long-pin-vector", "negative-gain", "nan-gain",
             "inf-gain", "unsolved-gain"],
    )
    def test_rejects_a_malformed_plan(self, pins, gains, message):
        nets = [DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 60.0, [0]) for _ in range(2)]
        sys = MultiNetworkSystem(tuple(nets))
        with pytest.raises(ValueError, match=message):
            simulate_multi(sys, pins, gains, np.array([65.0]), SimulationConfig(horizon=0.1))


class TestConvergenceTime:
    def _traj(self, errs: np.ndarray) -> Trajectory:
        s = len(errs)
        return Trajectory(
            times=np.arange(s) * 0.1,
            states=np.zeros((s, 1, 1)),
            errors=errs[:, None],
            lyapunov=errs**2,
        )

    def brute_force_settle(self, traj: Trajectory, tol: float):
        worst = traj.errors.max(axis=1)
        for i in range(len(worst)):
            if np.all(worst[i:] <= tol):
                return float(traj.times[i])
        return None

    def test_zero_error_settles_at_origin(self):
        traj = self._traj(np.zeros(8))
        assert convergence_time(traj, 0.1) == 0.0

    def test_monotone_crossing(self):
        errs = np.array([1.0, 0.8, 0.5, 0.2, 0.09, 0.05, 0.01, 0.005])
        traj = self._traj(errs)
        assert convergence_time(traj, 0.1) == pytest.approx(0.4)
        assert convergence_time(traj, 0.1) == self.brute_force_settle(traj, 0.1)

    def test_dip_and_reexceed_settles_late(self):
        errs = np.array([1.0] * 5 + [0.05, 0.2] + [0.15] * 5 + [0.05] * 9)
        traj = self._traj(errs)
        expected = self.brute_force_settle(traj, 0.1)
        assert convergence_time(traj, 0.1) == expected == pytest.approx(1.2)

    def test_never_settles(self):
        errs = np.array([1.0, 0.05, 1.0, 0.5])
        traj = self._traj(errs)
        assert convergence_time(traj, 0.1) is None

    def test_tol_validation(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be finite and > 0"):
                convergence_time(self._traj(np.zeros(3)), tol)


class TestLyapunovSeries:
    def test_zero_error(self):
        sys = scalar_system()
        traj = simulate_multi(
            sys, [np.ones(1)], [1.0], np.array([5.0]), SimulationConfig(horizon=0.2)
        )
        assert np.all(traj.lyapunov == 0.0) and np.all(np.diff(traj.lyapunov) == 0.0)

    def test_exponential_error_closed_form(self):
        sys = scalar_system()
        sim = SimulationConfig(dt=1e-3, horizon=1.0)
        traj = simulate_multi(sys, [np.ones(1)], [1.0], np.array([6.0]), sim)
        values = traj.lyapunov
        derivative = np.diff(values) / np.diff(traj.times)
        expected = np.exp(-2.0 * traj.times)
        assert np.max(np.abs(values - expected)) <= 1e-5
        # forward difference of exp(-2t) sits within O(dt) of -2 V
        resid = derivative + 2.0 * values[:-1]
        assert np.max(np.abs(resid) / values[:-1]) <= 3e-3

    def test_certified_run_decays_at_least_at_strictness_rate(self):
        # with a certificate of margin >= 0 at strictness delta, the discrete
        # derivative satisfies Vdot <= -(delta - eps) * ||e||^2 with 5% slack
        # at every sample after the first
        delta = 7.5
        sys = one_network(generate_adjacency(40, 0.5, 7), 90.0)
        rng = np.random.default_rng(11)
        pins = np.zeros(40)
        pins[rng.choice(40, 16, replace=False)] = 1.0
        res = solve_min_gain(
            sys.networks[0].lap.symmetric_part, pins, 0.8, 1.0, StabilityParams(delta=delta)
        )
        assert res.feasible
        x0 = rng.normal(100.0, 15.0, 40)
        traj = simulate_multi(sys, [pins], [res.gain], x0, SimulationConfig(horizon=5.0))
        derivative = np.diff(traj.lyapunov) / np.diff(traj.times)
        err_sq = traj.lyapunov[:-1]  # sum of squared node errors
        bound = -(delta - 0.05 * delta) * err_sq
        assert np.all(derivative[1:] <= bound[1:] + 1e-12)


class TestPinnedNodesConvergeFaster:
    def test_median_pinned_settle_time_below_unpinned(self):
        # solved-gain plan on a mid-size network: directly driven nodes settle
        # before the nodes that only feel them through coupling
        sys = one_network(generate_adjacency(40, 0.5, 7), 90.0)
        rng = np.random.default_rng(11)
        pins = np.zeros(40)
        pins[rng.choice(40, 16, replace=False)] = 1.0
        params = StabilityParams(delta=7.5)
        res = solve_min_gain(sys.networks[0].lap.symmetric_part, pins, 0.8, 1.0, params)
        assert res.feasible
        x0 = rng.normal(100.0, 15.0, 40)
        traj = simulate_multi(sys, [pins], [res.gain], x0, SimulationConfig(horizon=5.0))
        settle = np.empty(40)
        for i in range(40):
            above = np.nonzero(traj.errors[:, i] > 1e-3)[0]
            settle[i] = traj.times[above[-1] + 1] if len(above) else 0.0
        assert np.median(settle[pins == 1.0]) < np.median(settle[pins == 0.0])


class TestCsvExport:
    def test_trajectory_and_errors_roundtrip(self, tmp_path):
        sys = one_network(generate_adjacency(3, 0.4, 2), 10.0)
        traj = simulate_multi(
            sys, [np.ones(3)], [1.0], np.array([11.0, 9.0, 10.5]), SimulationConfig(horizon=0.05)
        )
        tpath = tmp_path / "trajectory.csv"
        epath = tmp_path / "errors.csv"
        export_trajectory_csv(traj, tpath)
        export_errors_csv(traj, epath)
        lines = tpath.read_text().splitlines()
        assert lines[0] == "t,node_0,node_1,node_2"
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]]
        )
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1:], traj.states[:, :, 0])
        elines = epath.read_text().splitlines()
        assert elines[0] == "t,node_0,node_1,node_2"

    @staticmethod
    def fstring_csv(times, table, labels) -> bytes:
        """The value-by-value writer the block writer must match byte for byte."""
        out = ["t," + ",".join(labels) + "\n"]
        for t, row in zip(times, table):
            out.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
        return "".join(out).encode("utf-8")

    @pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_block_writer_matches_fstring_writer(self, tmp_path, monkeypatch, m, stride, rows):
        # stride 3 writes a trajectory thinned by slicing, so every array is a strided view
        n = 3
        # trajectory.csv is written _BLOCK rows a call, so the row counts straddle a call
        monkeypatch.setattr(dynamics, "_CSV_VALUES", _BLOCK * (1 + n * m))
        samples = (rows - 1) * stride + 1
        rng = np.random.default_rng(rows + 10 * stride + 100 * m)
        states = rng.normal(0.0, 50.0, size=(samples, n, m))
        special = [
            -0.0, 5e-324, 1e17, -1e17, -2.5, 1.0 / 3.0, -5e-324, 0.0,
            9.9999999999999991e-05, np.nextafter(100.0, 0.0), 1e-5, 1e-4, 1e16,
            1e23, -1e-100, 1e200, np.nan, np.inf, -np.inf,
        ]
        flat = states.reshape(-1)
        flat[: min(len(special), flat.size)] = special[: flat.size]
        errors = np.abs(rng.normal(0.0, 1.0, size=(samples, n)))
        errors.reshape(-1)[-len(special) :] = np.abs(special[: errors.size])
        errors[0, 0] = -0.0
        traj = Trajectory(
            times=(np.arange(samples) * 1e-3)[::stride],
            states=states[::stride],
            errors=errors[::stride],
            lyapunov=np.zeros(samples)[::stride],  # in neither CSV
        )
        if m == 1:
            labels = [f"node_{i}" for i in range(n)]
        else:
            labels = [f"node_{i}_{j}" for i in range(n) for j in range(m)]
        export_trajectory_csv(traj, tmp_path / "trajectory.csv")
        export_errors_csv(traj, tmp_path / "errors.csv")
        assert len(traj.times) == rows
        table = traj.states.reshape(rows, n * m)
        assert (tmp_path / "trajectory.csv").read_bytes() == self.fstring_csv(
            traj.times, table, labels
        )
        assert (tmp_path / "errors.csv").read_bytes() == self.fstring_csv(
            traj.times, traj.errors, [f"node_{i}" for i in range(n)]
        )

    def test_log10_one_under_at_powers_of_ten_goes_to_percent(self, monkeypatch):
        # numpy's log10 may read one ulp under at an exact power of ten on some
        # platforms; D then reaches 10**17, and only the d >= 10**17 guard in
        # _digits hands the value to %
        def log10(a):
            e = np.log10(a)
            return np.where(e == np.floor(e), np.nextafter(e, -np.inf), e)

        class Numpy:
            def __getattr__(self, name):
                return log10 if name == "log10" else getattr(np, name)

        monkeypatch.setattr(dynamics, "np", Numpy())
        values = np.array([[1e2, 1e5, 1e-3, 10.0, 1e16, 3.5]])
        words = np.empty((values.size, dynamics._W // 4), dtype=np.uint32)
        keep = np.empty((values.size, dynamics._W), dtype=bool)
        text = dynamics._format_rows(values, words, keep).tobytes()
        assert text == (",".join("%.17g" % v for v in values[0]) + "\n").encode()

    def test_validation_of_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.1, horizon=0.05)
        with pytest.raises(ValueError):
            SimulationConfig(integrator="rk5")
        with pytest.raises(ValueError):
            SimulationConfig(convergence_tol=0.0)
