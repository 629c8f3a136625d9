"""Stability reduction: test matrices, minimum eigenvalues, gain solving."""

import numpy as np
import pytest

from pinnet import stability
from pinnet.network import (
    DirectedNetwork,
    MultiNetworkSystem,
    generate_adjacency,
    laplacian,
)
from pinnet.stability import (
    CertificateTest,
    StabilityParams,
    check_gain,
    solve_min_gain,
    stability_matrix,
)
from property_checks import bisect_min_gain
from test_network import char_poly_roots


def eig2x2_min(m: np.ndarray) -> float:
    """Closed-form smallest eigenvalue of a symmetric 2x2 matrix."""
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    return (a + d) / 2.0 - np.sqrt(((a - d) / 2.0) ** 2 + b * b)


def hinge_norm(m: np.ndarray, delta: float, q: float = 1.0) -> float:
    """Independent recomputation of the violation norm from raw eigenvalues."""
    lam = np.linalg.eigvalsh(m)
    short = np.maximum(0.0, delta - q * lam)
    return float(np.sqrt((short**2).sum()))


class TestStabilityMatrix:
    def test_empty_graph_all_pinned(self):
        m = stability_matrix(np.zeros((2, 2)), np.ones(2), 1.0, 1.0, 1.0)
        assert np.array_equal(m, 2.0 * np.eye(2))
        assert np.linalg.eigvalsh(m)[0] == 2.0

    def test_two_node_worked_example(self):
        l_sym = np.array([[0.5, -0.5], [-0.5, 0.5]])
        m = stability_matrix(l_sym, np.array([1.0, 0.0]), 0.8, 2.0, 1.0)
        assert np.allclose(m, [[4.8, -0.8], [-0.8, 0.8]], atol=1e-15)
        assert abs(np.linalg.eigvalsh(m)[0] - eig2x2_min(m)) <= 1e-12

    def test_zero_gain_drops_pin_term(self):
        g = generate_adjacency(5, 0.4, 3)
        l_sym = laplacian(g).symmetric_part
        m = stability_matrix(l_sym, np.ones(5), 0.7, 0.0, 1.3)
        assert np.allclose(m, 2.0 * 0.7 * 1.3 * l_sym, atol=1e-15)

    def test_rejects_asymmetric(self):
        for l_sym in ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [2.0 + 1e-6, 1.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                stability_matrix(np.array(l_sym), np.ones(2), 1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            stability_matrix(np.zeros((3, 3)), np.ones(2), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="0 or 1"):
            stability_matrix(np.zeros((2, 2)), np.array([0.5, 1.0]), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            stability_matrix(np.zeros((2, 2)), np.ones(2), -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            stability_matrix(np.zeros((2, 2)), np.ones(2), 1.0, -0.1, 1.0)


class TestSolveMinGain:
    def test_scalar_node_needs_half_delta(self):
        res = solve_min_gain(
            np.zeros((1, 1)), np.ones(1), 1.0, 1.0, StabilityParams(delta=1.0)
        )
        assert res.feasible and res.xi == 0.0
        assert abs(res.gain - 0.5) <= 1e-4
        assert res.margin >= 0.0

    def test_no_control_authority_is_infeasible(self):
        for n, delta in ((2, 1.0), (5, 0.7), (9, 2.5)):
            res = solve_min_gain(
                np.zeros((n, n)), np.zeros(n), 1.0, 1.0, StabilityParams(delta=delta)
            )
            assert not res.feasible
            assert res.gain is None
            assert abs(res.xi - delta * np.sqrt(n)) <= 1e-12

    def test_matches_linear_scan_oracle(self):
        params = StabilityParams(delta=1.0, c_max=50.0)
        for seed in range(6):
            g = generate_adjacency(5, 0.5, seed)
            l_sym = laplacian(g).symmetric_part
            pins = np.ones(5)
            res = solve_min_gain(l_sym, pins, 0.8, 1.0, params)
            assert res.feasible
            # independent oracle: march c upward in 1e-4 steps
            c = 0.0
            while c <= params.c_max:
                m = 2.0 * 0.8 * l_sym + 2.0 * c * np.diag(pins)
                if np.linalg.eigvalsh(m)[0] >= params.delta:
                    break
                c += 1e-4
            assert abs(res.gain - c) <= 1e-3

    def test_zero_gain_when_unneeded(self):
        # strongly diagonally dominant symmetric part certifies itself
        l_sym = np.diag([5.0, 6.0, 7.0])
        res = solve_min_gain(l_sym, np.zeros(3), 1.0, 1.0, StabilityParams(delta=1.0))
        assert res.feasible and res.gain == 0.0

    def test_feasible_iff_xi_zero(self):
        rng = np.random.default_rng(5)
        params = StabilityParams(delta=1.2, c_max=8.0)
        seen = {True: 0, False: 0}
        for seed in range(60):
            g = generate_adjacency(4, 0.6, seed)
            l_sym = laplacian(g).symmetric_part
            pins = (rng.random(4) < 0.4).astype(float)
            res = solve_min_gain(l_sym, pins, 0.8, 1.0, params)
            assert res.feasible == (res.xi == 0.0)
            if res.feasible:
                assert 0.0 <= res.gain <= params.c_max
                assert res.margin >= 0.0
            seen[res.feasible] += 1
        assert seen[True] > 0 and seen[False] > 0


    def test_gain_exactly_at_c_max(self):
        # one pinned node with no coupling needs exactly delta / 2
        args = (np.zeros((1, 1)), np.ones(1), 1.0, 1.0)
        at = solve_min_gain(*args, StabilityParams(delta=1.0, c_max=0.5))
        assert at.feasible and at.gain == 0.5 and at.margin == 0.0
        under = solve_min_gain(*args, StabilityParams(delta=1.0, c_max=0.5 - 1e-9))
        assert not under.feasible and under.gain is None and under.xi > 0.0

    def test_near_singular_unpinned_block(self):
        # unpinned block eigenvalues 1 and 2, so delta = 1 -/+ 1e-10 leaves
        # A_UU = L_UU - delta*I just positive definite / just indefinite
        l_sym = np.array([[1.5, 0.5, 0.0], [0.5, 1.5, 0.0], [0.0, 0.0, 0.0]])
        pins = np.array([0.0, 0.0, 1.0])
        for delta, feasible in ((1.0 - 1e-10, True), (1.0 + 1e-10, False)):
            params = StabilityParams(delta=delta)
            res = solve_min_gain(l_sym, pins, 1.0, 0.5, params)
            oracle = bisect_min_gain(l_sym, pins, 1.0, 0.5, params)
            assert res.feasible == oracle.feasible == feasible
            if feasible:
                assert abs(res.gain - delta) <= 1e-12 and res.margin >= 0.0
                assert abs(res.gain - oracle.gain) <= 1e-6
            else:
                assert res.xi == oracle.xi > 0.0

    def test_round_up_continues_past_an_uncertified_eigensolve(self, monkeypatch):
        # With the Cholesky pre-test always passing, every step of the round-up
        # is eigensolved, so the loop must itself reject steps with margin < 0.
        monkeypatch.setattr(stability, "_positive_definite", lambda m, shift: True)
        verdicts = []
        result_at = stability._result_at

        def spy(lam, gain, params):
            res = result_at(lam, gain, params)
            verdicts.append(res.feasible)
            return res

        monkeypatch.setattr(stability, "_result_at", spy)
        rng = np.random.default_rng(2024)
        feasible = retried = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = generate_adjacency(n, float(rng.uniform(0.1, 0.8)), int(rng.integers(0, 2**31)))
            pins = (rng.random(n) < 0.5).astype(float)
            params = StabilityParams(delta=float(rng.uniform(0.2, 4.0)))
            verdicts.clear()
            res = solve_min_gain(
                laplacian(g).symmetric_part,
                pins,
                float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(0.3, 3.0)),
                params,
            )
            if res.feasible:
                feasible += 1
                assert res.margin >= 0.0
                assert verdicts[-1] and not any(verdicts[:-1])
                retried += len(verdicts) > 1
        assert feasible > 0 and retried > 0


class TestCheckGain:
    def test_fixed_gain_feasibility(self):
        l_sym = np.zeros((1, 1))
        params = StabilityParams(delta=1.0)
        ok = check_gain(l_sym, np.ones(1), 1.0, 1.0, 0.6, params)
        assert ok.feasible and ok.gain == 0.6 and ok.xi == 0.0
        bad = check_gain(l_sym, np.ones(1), 1.0, 1.0, 0.4, params)
        assert not bad.feasible and bad.gain is None
        assert abs(bad.xi - hinge_norm(np.array([[0.8]]), 1.0)) <= 1e-15

    def test_margin_matches_char_poly_oracle(self):
        rng = np.random.default_rng(17)
        params = StabilityParams(delta=1.0)
        for _ in range(25):
            a = rng.normal(size=(6, 6))
            l_sym = (a + a.T) / 2.0
            pins = (rng.random(6) < 0.5).astype(float)
            res = check_gain(l_sym, pins, 1.0, 1.0, 2.0, params)
            oracle = np.min(char_poly_roots(stability_matrix(l_sym, pins, 1.0, 2.0, 1.0)).real)
            assert abs(res.margin - (oracle - params.delta)) <= 1e-8


class TestCertificateTest:
    def test_eigensolves_only_what_cholesky_rejects(self):
        l_sym = np.zeros((1, 1))
        params = StabilityParams(delta=1.0)
        ok = CertificateTest(l_sym, 1.0, 1.0, 0.6, params)
        assert ok.xis(np.ones((1, 1)))[0] == 0.0 and ok.eigensolves == 0
        bad = CertificateTest(l_sym, 1.0, 1.0, 0.4, params)
        expected = check_gain(l_sym, np.ones(1), 1.0, 1.0, 0.4, params).xi
        assert bad.xis(np.ones((1, 1)))[0] == expected
        assert bad.xis(np.zeros((1, 1)))[0] == 1.0 and bad.eigensolves == 2

    def test_a_bound_settles_rows_whose_xi_is_proven_above_it(self):
        # M = [0.4] against delta 1: xi = 0.6, so a bound of 0.5 is proven
        # exceeded without a spectrum, and one of 0.7 or inf asks for xi.
        test = CertificateTest(np.zeros((1, 1)), 1.0, 1.0, 0.2, StabilityParams(delta=1.0))
        pins = np.ones((4, 1))
        xi = test.xis(pins, np.array([0.5, 0.7, np.inf, 0.0]))
        exact = check_gain(np.zeros((1, 1)), np.ones(1), 1.0, 1.0, 0.2, StabilityParams()).xi
        assert xi.tolist() == [np.inf, exact, exact, np.inf]
        assert (test.tested, test.bound_settled, test.eigensolves) == (4, 2, 2)
        # a passing row reads 0 whatever its bound
        ok = CertificateTest(np.zeros((1, 1)), 1.0, 1.0, 0.6, StabilityParams(delta=1.0))
        assert ok.xis(np.ones((1, 1)), np.zeros(1)).tolist() == [0.0]
        assert ok.bound_settled == ok.eigensolves == 0
        with pytest.raises(ValueError, match="bounds shape"):
            test.xis(pins, np.zeros(3))

    def test_rejects_bad_input(self):
        params = StabilityParams()
        with pytest.raises(ValueError):
            CertificateTest(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 1.0, 1.0, params)
        with pytest.raises(ValueError):
            CertificateTest(np.zeros((2, 2)), 1.0, 0.0, 1.0, params)
        with pytest.raises(ValueError):
            CertificateTest(np.zeros((2, 2)), 1.0, 1.0, -0.1, params)
        test = CertificateTest(np.zeros((2, 2)), 1.0, 1.0, 1.0, params)
        for pins in (np.ones((1, 3)), np.array([[0.5, 1.0]]), np.diag([1.0, 2.0]), np.ones(2)):
            with pytest.raises(ValueError):
                test.xis(pins)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constants_rejected(bad):
    """NaN and infinite couplings, gammas and gains raise instead of passing a sign test."""
    l_sym, pins, params = np.zeros((2, 2)), np.ones(2), StabilityParams()
    calls = [
        lambda: stability_matrix(l_sym, pins, bad, 1.0, 1.0),
        lambda: stability_matrix(l_sym, pins, 1.0, bad, 1.0),
        lambda: stability_matrix(l_sym, pins, 1.0, 1.0, bad),
        lambda: check_gain(l_sym, pins, 1.0, 1.0, bad, params),
        lambda: solve_min_gain(l_sym, pins, bad, 1.0, params),
        lambda: solve_min_gain(l_sym, pins, 1.0, bad, params),
        lambda: CertificateTest(l_sym, bad, 1.0, 1.0, params),
        lambda: CertificateTest(l_sym, 1.0, 1.0, bad, params),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


class TestViolationNorm:
    def test_zero_on_certified_matrix(self):
        # M = 2 * L_s = 3 I against delta = 1
        res = check_gain(1.5 * np.eye(4), np.zeros(4), 1.0, 1.0, 1.0, StabilityParams(delta=1.0))
        assert res.feasible and res.xi == 0.0

    def test_uncontrolled_zero_matrix(self):
        res = check_gain(np.zeros((4, 4)), np.zeros(4), 1.0, 1.0, 1.0, StabilityParams(delta=2.0))
        assert abs(res.xi - 2.0 * 2.0) <= 1e-15


def joint_stability_margin(sys, pins, gains, params: StabilityParams) -> float:
    """q * lambda_min - delta of the summed (whole-system) stability inequality.

    Every network's test matrix is embedded into global coordinates and the
    embeddings are summed.  Per-network feasibility at the plan's gains
    implies this margin is nonnegative.
    """
    n = sys.total_nodes
    joint = np.zeros((n, n))
    for net, vec, gain in zip(sys.networks, pins, gains):
        m = stability_matrix(net.lap.symmetric_part, vec, net.coupling_strength, gain, net.gamma)
        idx = net.node_ids
        joint[np.ix_(idx, idx)] += m
    return params.q * float(np.linalg.eigvalsh(joint)[0]) - params.delta


class TestJointMargin:
    def test_nonnegative_when_all_networks_certified(self):
        params = StabilityParams(delta=1.0)
        nets, genes, gains = [], [], []
        for k in range(2):
            g = generate_adjacency(4, 0.4, k)
            ids = np.arange(4) if k == 0 else np.array([1, 2, 3])
            if k == 1:
                g = g[:3, :3]
            net = DirectedNetwork(
                adjacency=g,
                coupling_strength=0.8,
                gamma=1.0,
                target=np.array([float(10 * (k + 1))]),
                node_ids=ids,
            )
            nets.append(net)
            pins = np.ones(net.n)
            res = solve_min_gain(
                net.lap.symmetric_part, pins, 0.8, 1.0, params
            )
            assert res.feasible
            genes.append(pins)
            gains.append(res.gain)
        sys = MultiNetworkSystem(tuple(nets))
        assert joint_stability_margin(sys, genes, gains, params) >= -1e-9
