"""Randomized invariant checks shared by the property tests and the gate.

Each check runs ``n_cases`` independently seeded cases and raises on the first
violation, so the same functions back both the granular property tests and the
one-shot acceptance sweep.
"""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from pinnet.dynamics import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    SimulationConfig,
    simulate_multi,
    write_series_csv,
)
from pinnet import ga
from pinnet.ga import GaConfig, evolve
from pinnet.harness import brute_force_min_pinning
from pinnet.network import (
    DirectedNetwork,
    MultiNetworkSystem,
    generate_adjacency,
    laplacian,
)
from pinnet.stability import (
    CHUNK_ROWS,
    CertificateTest,
    FeasibilityResult,
    StabilityParams,
    check_gain,
    solve_min_gain,
    stability_matrix,
)


def bisect_min_gain(
    l_sym: np.ndarray,
    pins: np.ndarray,
    coupling: float,
    gamma: float,
    params: StabilityParams,
) -> FeasibilityResult:
    """Reference minimal gain by bisection, the oracle for ``solve_min_gain``.

    lambda_min of the test matrix is nondecreasing in the gain, so feasibility
    is decided at c_max: if even that fails, the set is infeasible and xi
    measures its violation at c_max.  Otherwise bisection shrinks to the
    smallest certifying gain within a relative tolerance of 1e-6 (at most 60
    halvings).
    """
    n = l_sym.shape[0]
    base = 2.0 * coupling * gamma * l_sym
    lift = 2.0 * gamma * pins

    def spectrum(c: float) -> np.ndarray:
        m = base.copy()
        m[np.diag_indices(n)] += c * lift
        return np.linalg.eigvalsh(m)

    def margin(c: float) -> float:
        return params.q * float(spectrum(c)[0]) - params.delta

    top = spectrum(params.c_max)
    if params.q * top[0] < params.delta:
        short = np.clip(params.delta - params.q * top, 0.0, None)
        return FeasibilityResult(
            feasible=False,
            gain=None,
            margin=params.q * float(top[0]) - params.delta,
            xi=float(np.sqrt(np.sum(short * short))),
        )
    if margin(0.0) >= 0.0:
        return FeasibilityResult(feasible=True, gain=0.0, margin=margin(0.0), xi=0.0)
    lo, hi = 0.0, params.c_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * max(1.0, hi):
            break
    return FeasibilityResult(feasible=True, gain=hi, margin=margin(hi), xi=0.0)


def stagewise_integrate(
    a: np.ndarray, e0: np.ndarray, dt: float, n_steps: int, integrator: str
) -> np.ndarray:
    """Reference integration of de/dt = A e, the oracle for the one-step propagator.

    Classical four-stage RK4 (or explicit Euler) written out stage by stage, as
    for a nonlinear right-hand side, with the divergence test after every step.
    Returns the (n_steps + 1, n, m) path; raises ``DivergenceError`` at the first
    step whose state is non-finite or exceeds ``DIVERGENCE_LIMIT`` in magnitude.
    """
    path = np.empty((n_steps + 1,) + e0.shape)
    path[0] = e0
    e = e0.copy()
    for k in range(n_steps):
        if integrator == "rk4":
            k1 = a @ e
            k2 = a @ (e + 0.5 * dt * k1)
            k3 = a @ (e + 0.5 * dt * k2)
            k4 = a @ (e + dt * k3)
            e = e + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            e = e + dt * (a @ e)
        if not np.all(np.isfinite(e)) or np.max(np.abs(e)) > DIVERGENCE_LIMIT:
            raise DivergenceError(step=k + 1, time=(k + 1) * dt)
        path[k + 1] = e
    return path


def score_row(genes, sys: MultiNetworkSystem, cfg: GaConfig, penalty_coeff=None) -> ga.Individual:
    """One chromosome row scored by the search's own steps, as ``evolve`` scores a generation.

    Each network's certificate is tested at cfg.fixed_gain when set, else at
    c_max; the fitness is the pinned count plus the penalty times xi.
    """
    lam = cfg.penalty_coeff if penalty_coeff is None else penalty_coeff
    rows = np.asarray(genes)[np.newaxis]
    counts = ga._pinned_counts(rows, sys)
    xi = ga._violations(rows, ga._certificate_tests(sys, cfg), sys, np.full(1, np.inf))
    return ga._individual(sys, rows[0], ga._fitness(counts, xi, lam)[0], counts[0], xi[0])


def subset_loop_min_pinning(net: DirectedNetwork, params: StabilityParams):
    """The subset-at-a-time walk ``brute_force_min_pinning`` ran before it scored
    a whole size in one call, as its oracle: the first subset, by size and then
    lexicographically, that certifies at c_max, or None."""
    test = CertificateTest(
        net.lap.symmetric_part, net.coupling_strength, net.gamma, params.c_max, params
    )
    for size in range(net.n + 1):
        for subset in itertools.combinations(range(net.n), size):
            pins = np.zeros(net.n)
            pins[list(subset)] = 1.0
            if test.xis(pins[np.newaxis])[0] == 0.0:
                return size, pins
    return None


def _random_graph(rng, n_lo=2, n_hi=8):
    n = int(rng.integers(n_lo, n_hi + 1))
    threshold = float(rng.uniform(0.1, 0.8))
    seed = int(rng.integers(0, 2**31))
    return generate_adjacency(n, threshold, seed)


def check_laplacian_row_sums(n_cases: int) -> None:
    rng = np.random.default_rng(1001)
    for _ in range(n_cases):
        g = _random_graph(rng, 2, 12)
        n = g.shape[0]
        assert np.all(np.diagonal(g) == 0.0)
        assert np.all((g >= 0.0) & (g <= 1.0))
        pair = laplacian(g)
        assert np.max(np.abs(pair.laplacian @ np.ones(n))) <= 1e-12
        ls = pair.symmetric_part
        assert np.array_equal((ls + ls.T) / 2.0, ls)


def check_eigmin_monotone_in_gain_and_pins(n_cases: int) -> None:
    rng = np.random.default_rng(1002)
    for _ in range(n_cases):
        g = _random_graph(rng)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        pins = (rng.random(n) < 0.5).astype(float)
        c_lo, c_hi = np.sort(rng.uniform(0.0, 30.0, size=2))
        lam_lo = np.linalg.eigvalsh(stability_matrix(l_sym, pins, 0.8, c_lo, 1.0))[0]
        lam_hi = np.linalg.eigvalsh(stability_matrix(l_sym, pins, 0.8, c_hi, 1.0))[0]
        assert lam_hi >= lam_lo - 1e-10
        unpinned = np.nonzero(pins == 0.0)[0]
        if len(unpinned):
            more = pins.copy()
            more[rng.choice(unpinned)] = 1.0
            lam_more = np.linalg.eigvalsh(
                stability_matrix(l_sym, more, 0.8, c_hi, 1.0)
            )[0]
            assert lam_more >= lam_hi - 1e-10


def check_all_pinned_bound_certifies(n_cases: int) -> None:
    rng = np.random.default_rng(1003)
    for _ in range(n_cases):
        g = _random_graph(rng)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        delta = float(rng.uniform(0.2, 4.0))
        coupling = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.3, 3.0))
        lam_min = np.linalg.eigvalsh(l_sym)[0]
        bound = (delta - 2.0 * coupling * gamma * lam_min) / (2.0 * gamma)
        m_at_bound = stability_matrix(l_sym, np.ones(n), coupling, max(bound, 0.0), gamma)
        assert np.linalg.eigvalsh(m_at_bound)[0] >= delta - 1e-9
        params = StabilityParams(delta=delta, c_max=max(bound, 0.0) + 0.5)
        res = solve_min_gain(l_sym, np.ones(n), coupling, gamma, params)
        assert res.feasible, (delta, coupling, gamma, bound)


def check_xi_zero_iff_feasible(n_cases: int) -> None:
    rng = np.random.default_rng(1004)
    feasible_seen = infeasible_seen = 0
    for _ in range(n_cases):
        g = _random_graph(rng)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        pins = (rng.random(n) < rng.uniform(0.0, 0.8)).astype(float)
        params = StabilityParams(
            delta=float(rng.uniform(0.3, 3.0)), c_max=float(rng.uniform(0.5, 20.0))
        )
        res = solve_min_gain(l_sym, pins, 0.8, 1.0, params)
        assert res.feasible == (res.xi == 0.0)
        if res.feasible:
            assert res.gain is not None and 0.0 <= res.gain <= params.c_max
            assert res.margin >= 0.0
            feasible_seen += 1
        else:
            assert res.gain is None and res.xi > 0.0
            infeasible_seen += 1
    assert feasible_seen > 0 and infeasible_seen > 0


def _gain_case(rng, i: int):
    """One certificate case for the gain checks: (graph, C, gamma, pins, params).

    Graphs range over n = 1..8, and the pin sets cycle with ``i`` through none,
    every node, a random half, and a random half with delta/q set a hair off
    the smallest eigenvalue of the unpinned block (a near-singular A_UU).
    """
    g = _random_graph(rng, 1, 8)
    n = g.shape[0]
    l_sym = laplacian(g).symmetric_part
    coupling = float(rng.uniform(0.3, 3.0))
    gamma = float(rng.uniform(0.3, 3.0))
    q = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(0.2, 4.0))
    mode = i % 4
    if mode == 0:
        pins = np.zeros(n)
    elif mode == 1:
        pins = np.ones(n)
    else:
        pins = (rng.random(n) < 0.5).astype(float)
    unpinned = np.nonzero(pins == 0.0)[0]
    if mode == 3 and len(unpinned):
        block = 2.0 * coupling * gamma * l_sym[np.ix_(unpinned, unpinned)]
        lam_uu = float(np.linalg.eigvalsh(block)[0])
        if lam_uu > 1e-3:
            delta = q * lam_uu * (1.0 + float(rng.choice([-1e-9, 1e-9])))
    params = StabilityParams(delta=delta, q=q, c_max=float(rng.uniform(0.5, 20.0)))
    return g, coupling, gamma, pins, params


def check_exact_gain_matches_bisection(n_cases: int) -> None:
    """The closed-form gain agrees with the bisection oracle, edges included.

    The cases come from ``_gain_case``.  Each feasible case is solved again
    with c_max set exactly to its gain (still feasible, same gain) and just
    below it (infeasible for both solvers), and with one pin more, which may
    not raise the gain beyond roundoff.
    """
    rng = np.random.default_rng(1011)
    seen = {True: 0, False: 0}
    for i in range(n_cases):
        g, coupling, gamma, pins, params = _gain_case(rng, i)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        unpinned = np.nonzero(pins == 0.0)[0]

        def both(pins, params):
            args = (l_sym, pins, coupling, gamma, params)
            return solve_min_gain(*args), bisect_min_gain(*args)

        exact, oracle = both(pins, params)
        case = (i, n, pins.tolist(), params)
        assert exact.feasible == oracle.feasible, case
        seen[exact.feasible] += 1
        if not exact.feasible:
            assert exact.gain is None and exact.xi > 0.0, case
            assert (exact.margin, exact.xi) == (oracle.margin, oracle.xi), case
            continue
        assert exact.xi == 0.0 and 0.0 <= exact.gain <= params.c_max, case
        assert exact.margin >= 0.0, case
        assert abs(exact.gain - oracle.gain) <= 1e-6 * max(1.0, oracle.gain), case

        if exact.gain > 1e-6:
            at, at_oracle = both(pins, replace(params, c_max=exact.gain))
            assert at.feasible and at_oracle.feasible and at.gain == exact.gain, case
            below = exact.gain - 1e-6 * max(1.0, exact.gain)
            if below > 0.0:
                under, under_oracle = both(pins, replace(params, c_max=below))
                assert not under.feasible and not under_oracle.feasible, case

        if len(unpinned):
            more = pins.copy()
            more[rng.choice(unpinned)] = 1.0
            extra = solve_min_gain(l_sym, more, coupling, gamma, params)
            assert extra.feasible, case
            assert extra.gain <= exact.gain + 1e-9 * max(1.0, exact.gain), case
    assert seen[True] > 0 and seen[False] > 0


def check_search_verdict_matches_solve(n_cases: int) -> None:
    """The search's certificate test gives check_gain's and the solve's verdicts.

    The cases come from ``_gain_case``.  Each is tested at c_max and at a fixed
    gain in [0, c_max].  A set solved feasible is tested again with c_max set
    exactly to its gain and 1e-6 below it.  Where lambda_min at c_max is
    positive, delta is also set one and two ulps above q * lambda_min, where
    only the tolerance keeps the Cholesky test from passing a set the
    eigensolve rejects, and one ulp below it.  At every gain,
    ``CertificateTest`` and ``fitness`` must give ``check_gain``'s verdict and
    xi to the bit; at c_max the verdict must be the minimal-gain solve's, with
    the same margin and xi to the bit on an infeasible set.
    """
    rng = np.random.default_rng(1013)
    eps = float(np.finfo(np.float64).eps)
    seen = {True: 0, False: 0}
    for i in range(n_cases):
        g, coupling, gamma, pins, params = _gain_case(rng, i)
        net = DirectedNetwork(g, coupling, gamma)
        sys = MultiNetworkSystem((net,))
        chromosome = pins.astype(np.uint8)
        args = (net.lap.symmetric_part, pins, coupling, gamma)

        def tested(gain, params):
            exact = check_gain(*args, gain, params)
            test = CertificateTest(net.lap.symmetric_part, coupling, gamma, gain, params)
            xi = test.xis(pins[np.newaxis])[0]
            ind = score_row(chromosome, sys, GaConfig(stability=params, fixed_gain=gain))
            case = (i, g.shape[0], pins.tolist(), gain, params)
            assert (xi == 0.0) == ind.feasible == exact.feasible, case
            assert xi == ind.xi == exact.xi, case
            return exact

        def agree(params):
            solved = solve_min_gain(*args, params)
            at_c_max = tested(params.c_max, params)
            ind = score_row(chromosome, sys, GaConfig(stability=params))
            case = (i, g.shape[0], pins.tolist(), params)
            assert solved.feasible == at_c_max.feasible == ind.feasible, case
            assert ind.xi == at_c_max.xi, case
            if not solved.feasible:
                assert (solved.margin, solved.xi) == (at_c_max.margin, at_c_max.xi), case
            return solved

        solved = agree(params)
        seen[solved.feasible] += 1
        tested(float(rng.uniform(0.0, params.c_max)), params)
        if solved.feasible and solved.gain > 1e-6:
            agree(replace(params, c_max=solved.gain))
            below = solved.gain - 1e-6 * max(1.0, solved.gain)
            if below > 0.0:
                agree(replace(params, c_max=below))
        m_top = stability_matrix(net.lap.symmetric_part, pins, coupling, params.c_max, gamma)
        top = params.q * float(np.linalg.eigvalsh(m_top)[0])
        if top > 1e-3:
            for ulps in (1.0, 2.0, -1.0):
                agree(replace(params, delta=top * (1.0 + ulps * eps)))
    assert seen[True] > 0 and seen[False] > 0


def check_generation_verdicts_match_check_gain(n_cases: int) -> None:
    """A batch of pin sets tested in one call gives each row check_gain's result.

    The cases come from ``_gain_case``; each batch holds the case's pin set,
    no pins, every pin and up to four random sets of its graph.  It is tested
    at c_max and, when the case's set certifies, at its solved gain and two
    ulps either side of it, where the Cholesky test falls through and the
    eigensolve decides.  Where lambda_min at c_max is positive, the batch is
    also tested with delta one and two ulps above q * lambda_min, where only
    the tolerance keeps the Cholesky test from passing a set the eigensolve
    rejects, and one ulp below it.  For every row, ``CertificateTest.xis``
    must give ``check_gain``'s verdict and xi to the bit, and its eigensolve
    count must equal that of testing the rows one at a time with ``xi``.
    """
    rng = np.random.default_rng(1014)
    eps = float(np.finfo(np.float64).eps)
    seen = {True: 0, False: 0}
    for i in range(n_cases):
        g, coupling, gamma, pins, params = _gain_case(rng, i)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        extra = rng.random((int(rng.integers(0, 5)), n)) < 0.5
        batch = np.vstack([pins, np.zeros(n), np.ones(n), extra]).astype(np.uint8)
        gains = [params.c_max]
        solved = solve_min_gain(l_sym, pins, coupling, gamma, params)
        if solved.feasible:
            gains.append(solved.gain)
            for direction in (np.inf, -np.inf):
                gain = solved.gain
                for _ in range(2):
                    gain = float(np.nextafter(gain, direction))
                    gains.append(gain)
        tests = [(gain, params) for gain in gains if gain >= 0.0]
        m_top = stability_matrix(l_sym, pins, coupling, params.c_max, gamma)
        top = params.q * float(np.linalg.eigvalsh(m_top)[0])
        if top > 1e-3:
            for ulps in (1.0, 2.0, -1.0):
                tests.append((params.c_max, replace(params, delta=top * (1.0 + ulps * eps))))
        for gain, params in tests:
            batched = CertificateTest(l_sym, coupling, gamma, gain, params)
            single = CertificateTest(l_sym, coupling, gamma, gain, params)
            xis = batched.xis(batch)
            for row, xi in zip(batch, xis):
                exact = check_gain(l_sym, row, coupling, gamma, gain, params)
                case = (i, n, row.tolist(), gain, params)
                assert (xi == 0.0) == exact.feasible, case
                assert xi == exact.xi == single.xis(row[np.newaxis])[0], case
                seen[exact.feasible] += 1
            assert batched.eigensolves == single.eigensolves, (i, n, gain, params)
    assert seen[True] > 0 and seen[False] > 0


def row_loop_xis(l_sym, coupling, gamma, gain, params, pins):
    """The per-row loop ``CertificateTest.xis`` ran before it factored stacks, as its oracle.

    Each row's shifted diagonal goes into one n x n buffer that
    ``np.linalg.cholesky`` factors; a row with no factor gets its unshifted
    diagonal back and is eigensolved alone.  Returns each row's xi and the
    number of eigensolves.
    """
    base = 2.0 * coupling * gamma * l_sym
    n = len(base)
    eps = float(np.finfo(np.float64).eps)
    norm_bound = float(np.linalg.norm(base)) + 2.0 * gamma * gain * n**0.5
    shift = params.delta / params.q + (n + 1) * eps * norm_bound
    m_diag = np.diagonal(base) + gain * (2.0 * gamma * np.array([[0.0], [1.0]]))
    shifted_diag = m_diag - shift
    buffer = base.copy()
    diagonal = buffer.reshape(-1)[:: n + 1]
    xi, eigensolves = np.zeros(len(pins)), 0
    for row, pinned in enumerate(pins == 1):
        diagonal[:] = np.where(pinned, shifted_diag[1], shifted_diag[0])
        try:
            np.linalg.cholesky(buffer)
        except np.linalg.LinAlgError:
            diagonal[:] = np.where(pinned, m_diag[1], m_diag[0])
            short = np.clip(params.delta - params.q * np.linalg.eigvalsh(buffer), 0.0, None)
            xi[row] = np.sqrt(np.sum(short * short))
            eigensolves += 1
    return xi, eigensolves


def check_stacked_certificate_matches_row_loop(n_cases: int) -> None:
    """Stacked Cholesky and eigvalsh calls give the per-row loop's xi to the bit.

    Graphs range over n = 1..70 and batches over 1, CHUNK_ROWS - 1, CHUNK_ROWS,
    CHUNK_ROWS + 1 and 2 * CHUNK_ROWS + 3 rows, tested at gain 0, a gain in
    [0, c_max] and c_max.  Each batch holds random pin sets, each node pinned
    with one probability drawn from [0.2, 1], a row that pins nothing and a
    row that pins everything (the last wins in a batch of one).  Batches
    of more than one chunk reuse the stack after an eigensolve has put
    unshifted diagonals into it.  Every xi must equal the oracle's bit for
    bit, and the eigensolve count must match.
    """
    rng = np.random.default_rng(1017)
    sizes = (1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3)
    seen = {True: 0, False: 0}
    for i in range(n_cases):
        g = _random_graph(rng, 1, 70)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        coupling = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.3, 3.0))
        params = StabilityParams(
            delta=float(rng.uniform(0.2, 4.0)),
            q=float(rng.uniform(0.5, 2.0)),
            c_max=float(rng.uniform(0.5, 20.0)),
        )
        gain = (0.0, float(rng.uniform(0.0, params.c_max)), params.c_max)[i % 3]
        pins = (rng.random((sizes[i % 5], n)) < rng.uniform(0.2, 1.0)).astype(np.uint8)
        pins[rng.integers(len(pins))] = 0
        pins[rng.integers(len(pins))] = 1
        want, eigensolves = row_loop_xis(l_sym, coupling, gamma, gain, params, pins)
        test = CertificateTest(l_sym, coupling, gamma, gain, params)
        case = (i, n, len(pins), gain, params)
        assert test.xis(pins).tobytes() == want.tobytes(), case
        assert test.eigensolves == eigensolves, case
        seen[True] += int(np.sum(want == 0.0))
        seen[False] += int(np.sum(want > 0.0))
    assert seen[True] > 0 and seen[False] > 0


def _certified_single_case(rng, n_lo=2, n_hi=5):
    """A network with pins and a solved gain whose certificate holds."""
    g = _random_graph(rng, n_lo, n_hi)
    n = g.shape[0]
    net = DirectedNetwork(g, float(rng.uniform(0.4, 1.5)), 1.0, float(rng.uniform(-5, 5)))
    pins = (rng.random(n) < 0.5).astype(float)
    params = StabilityParams(delta=float(rng.uniform(0.4, 1.5)), c_max=60.0)
    res = solve_min_gain(net.lap.symmetric_part, pins, net.coupling_strength, 1.0, params)
    if not res.feasible:
        pins = np.ones(n)
        lam_min = np.linalg.eigvalsh(net.lap.symmetric_part)[0]
        bound = (params.delta - 2.0 * net.coupling_strength * lam_min) / 2.0
        params = StabilityParams(delta=params.delta, c_max=max(bound, 0.0) + 1.0)
        res = solve_min_gain(
            net.lap.symmetric_part, pins, net.coupling_strength, 1.0, params
        )
        assert res.feasible
    return net, pins, res, params


def check_lyapunov_descent_on_certified_runs(n_cases: int) -> None:
    rng = np.random.default_rng(1005)
    sim = SimulationConfig(dt=1e-3, horizon=0.2)
    for _ in range(n_cases):
        net, pins, res, _ = _certified_single_case(rng)
        x0 = net.target[0] + rng.uniform(-3.0, 3.0, size=net.n)
        traj = simulate_multi(MultiNetworkSystem((net,)), [pins], [res.gain], x0, sim)
        assert np.all(np.diff(traj.lyapunov) <= 1e-9)


def check_error_trajectory_superposition(n_cases: int) -> None:
    rng = np.random.default_rng(1006)
    sim = SimulationConfig(dt=2e-3, horizon=0.2)
    alphas = (2.0, -0.5, 3.7)
    for i in range(n_cases):
        g = _random_graph(rng, 2, 5)
        n = g.shape[0]
        sys = MultiNetworkSystem((DirectedNetwork(g, float(rng.uniform(0.4, 1.5)), 1.0, 4.0),))
        pins = (rng.random(n) < 0.5).astype(float)
        gain = float(rng.uniform(0.0, 3.0))
        e0 = rng.uniform(-2.0, 2.0, size=n)
        alpha = alphas[i % len(alphas)]
        base = simulate_multi(sys, [pins], [gain], 4.0 + e0, sim)
        scaled = simulate_multi(sys, [pins], [gain], 4.0 + alpha * e0, sim)
        dev_base = base.states[:, :, 0] - 4.0
        dev_scaled = scaled.states[:, :, 0] - 4.0
        assert np.allclose(dev_scaled, alpha * dev_base, rtol=1e-9, atol=1e-12)
        assert np.allclose(scaled.errors, abs(alpha) * base.errors, rtol=1e-9, atol=1e-12)


def check_rk4_step_halving_fourth_order(n_cases: int) -> None:
    rng = np.random.default_rng(1007)
    ratios = []
    for _ in range(n_cases):
        g = _random_graph(rng, 2, 4)
        n = g.shape[0]
        sys = MultiNetworkSystem((DirectedNetwork(g, float(rng.uniform(0.5, 1.5)), 1.0, 0.0),))
        pins = np.zeros(n)
        pins[int(rng.integers(0, n))] = 1.0
        gain = float(rng.uniform(0.5, 3.0))
        x0 = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            sim = SimulationConfig(dt=dt, horizon=0.5)
            finals.append(simulate_multi(sys, [pins], [gain], x0, sim).states[-1, :, 0])
        coarse = np.linalg.norm(finals[0] - finals[1])
        fine = np.linalg.norm(finals[1] - finals[2])
        assert fine > 1e-15, "step-halving differences fell below resolution"
        ratio = coarse / fine
        assert 6.0 <= ratio <= 40.0, ratio
        ratios.append(ratio)
    assert 14.0 <= float(np.median(ratios)) <= 18.0


def check_propagator_matches_stagewise(n_cases: int) -> None:
    """One product per step with the stability polynomial equals the staged scheme.

    Random networks of n = 1..8 nodes with m = 1 or 2 state components, random
    pins and gains, both schemes; the states must match the stagewise oracle
    within 1e-12 of max |e0| at every step.
    """
    rng = np.random.default_rng(1012)
    for i in range(n_cases):
        g = _random_graph(rng, 1, 8)
        n = g.shape[0]
        m = 1 + i % 2
        coupling, gamma = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 1.5))
        # zero targets, so states are the error path itself with no rounding
        net = DirectedNetwork(g, coupling, gamma, np.zeros(m))
        pins = (rng.random(n) < 0.5).astype(float)
        gain = float(rng.uniform(0.0, 5.0))
        integrator = ("rk4", "euler")[(i // 2) % 2]
        sim = SimulationConfig(
            dt=float(rng.uniform(1e-3, 2e-2)),
            horizon=float(rng.uniform(0.05, 0.5)),
            integrator=integrator,
        )
        e0 = rng.uniform(-3.0, 3.0, size=(n, m))
        traj = simulate_multi(MultiNetworkSystem((net,)), [pins], [gain], e0, sim)
        a = -coupling * gamma * net.lap.laplacian - gain * gamma * np.diag(pins)
        oracle = stagewise_integrate(a, e0, sim.dt, sim.n_steps, integrator)
        gap = np.max(np.abs(traj.states - oracle))
        assert gap <= 1e-12 * np.max(np.abs(e0)), (i, n, m, integrator, gap)


def check_elitist_best_fitness_monotone(n_cases: int) -> None:
    rng = np.random.default_rng(1008)
    for i in range(n_cases):
        g = _random_graph(rng, 4, 6)
        net = DirectedNetwork(g, 0.8, 1.0, 1.0)
        sys = MultiNetworkSystem((net,))
        cfg = GaConfig(
            population_size=8,
            generations=5,
            rng_seed=int(rng.integers(0, 2**31)),
            stability=StabilityParams(delta=1.0, c_max=20.0),
        )
        report = evolve(cfg, sys)
        assert np.all(np.diff(report.best_fitness) <= 0.0)


def _random_overlap_system(rng):
    n_total = int(rng.integers(4, 9))
    k_total = int(rng.integers(2, 4))
    while True:
        memberships = []
        for _ in range(n_total):
            picks = np.nonzero(rng.random(k_total) < 0.5)[0]
            if len(picks) == 0:
                picks = [int(rng.integers(0, k_total))]
            memberships.append(frozenset(int(k) for k in picks))
        if all(
            any(k in m for m in memberships) for k in range(k_total)
        ):
            break
    nets = []
    for k in range(k_total):
        ids = np.array(sorted(i for i in range(n_total) if k in memberships[i]))
        g = generate_adjacency(len(ids), 0.5, int(rng.integers(0, 2**31)))
        nets.append(DirectedNetwork(g, 0.8, 1.0, float(k), ids))
    return MultiNetworkSystem(tuple(nets))


def check_overlap_nodes_counted_once(n_cases: int) -> None:
    """A node row counts each pinned node once and loses no pair-level plan.

    Each case draws a random overlap system and delta in [0.1, 3].  A random
    node row must score its gene sum as the pinned count, give network k the
    genes ``row[net.node_ids]``, and score that count when feasible.  A random
    pair-level plan (each network pins its own nodes) and its closure, which
    pins a node in all its networks when any of them pins it, must pin the
    same distinct nodes; each network's xi at c_max under the closure must be
    0 where the pair plan's is, and never larger.
    """
    rng = np.random.default_rng(1009)
    for i in range(n_cases):
        sys = _random_overlap_system(rng)
        params = StabilityParams(delta=float(rng.uniform(0.1, 3.0)))
        cfg = GaConfig(stability=params)
        row = (rng.random(sys.total_nodes) < 0.5).astype(np.uint8)
        ind = score_row(row, sys, cfg)
        assert ind.pinned_count == row.sum(), i
        for net, g in zip(sys.networks, ind.genes):
            assert np.array_equal(g, row[net.node_ids]), i
        if ind.feasible:
            assert ind.fitness == float(ind.pinned_count), i

        pairs = [rng.random(net.n) < 0.5 for net in sys.networks]
        pinned_anywhere = set()
        for net, g in zip(sys.networks, pairs):
            pinned_anywhere.update(net.node_ids[g].tolist())
        closure = np.zeros(sys.total_nodes, dtype=np.uint8)
        closure[sorted(pinned_anywhere)] = 1
        assert score_row(closure, sys, cfg).pinned_count == len(pinned_anywhere), i
        for net, g in zip(sys.networks, pairs):
            test = CertificateTest(
                net.lap.symmetric_part, net.coupling_strength, net.gamma, params.c_max, params
            )
            pair_xi = test.xis(g[np.newaxis])[0]
            closed_xi = test.xis(closure[np.newaxis, net.node_ids])[0]
            assert closed_xi <= pair_xi, (i, pair_xi, closed_xi)


def check_seeded_runs_identical(n_cases: int) -> None:
    rng = np.random.default_rng(1010)
    for _ in range(n_cases):
        g = _random_graph(rng, 3, 5)
        net = DirectedNetwork(g, 0.8, 1.0, 2.0)
        sys = MultiNetworkSystem((net,))
        cfg = GaConfig(
            population_size=4,
            generations=2,
            rng_seed=int(rng.integers(0, 2**31)),
            stability=StabilityParams(delta=1.0, c_max=20.0),
        )
        assert evolve(cfg, sys).to_dict() == evolve(cfg, sys).to_dict()


def check_settled_search_matches_full_search(n_cases: int) -> None:
    """Settling offspring early leaves the whole report as it was.

    Each case runs ``evolve`` as it is and again with ``ga._settling_bounds``
    replaced by one that settles nothing, which turns off the running
    cut-off, the pruning by pinned count, the bound proofs and the
    cross-network early exit: that run tests every chromosome bred once per
    network and eigensolves every set the Cholesky test rejects.  The cases
    draw a random single network or overlap system, either crossover op, a
    fixed gain or the solved-gain search and delta in [0.1, 1]; they take
    the penalty coefficients 0, 0.1, 1 and 10 in turn, with and without
    ``adaptive_penalty``, and every eighth case breeds a brood of 33-40 rows,
    which the search scores in two chunks.  Every ``to_dict()`` field but the
    work counters must be equal, and the settling run must not do more work.
    """
    rng = np.random.default_rng(1015)
    rule = ga._settling_bounds
    counters = ("lmi_evaluations", "eigensolves", "bound_settled", "pruned")
    settled_cases = 0
    for i in range(n_cases):
        if rng.random() < 0.5:
            sys = MultiNetworkSystem((DirectedNetwork(_random_graph(rng, 3, 8), 0.8, 1.0, 1.0),))
        else:
            sys = _random_overlap_system(rng)
        c_max = float(rng.uniform(2.0, 20.0))
        big = i % 8 == 7
        cfg = GaConfig(
            population_size=int(rng.integers(CHUNK_ROWS + 1, 41) if big else rng.integers(2, 9)),
            generations=int(rng.integers(1, 4 if big else 9)),
            penalty_coeff=(0.0, 0.1, 1.0, 10.0)[i % 4],
            rng_seed=int(rng.integers(0, 2**31)),
            stability=StabilityParams(delta=float(rng.uniform(0.1, 1.0)), c_max=c_max),
            crossover_op=str(rng.choice(["uniform", "one_point"])),
            adaptive_penalty=i // 4 % 2 == 1,
            fixed_gain=float(rng.uniform(0.5, c_max)) if rng.random() < 0.5 else None,
        )
        settled = evolve(cfg, sys)
        ga._settling_bounds = lambda counts, *rest: np.full(len(counts), np.inf)
        try:
            full = evolve(cfg, sys)
        finally:
            ga._settling_bounds = rule
        a, b = settled.to_dict(), full.to_dict()
        case = (i, cfg, {k: (a[k], b[k]) for k in counters})
        bred = cfg.population_size * (cfg.generations + 1)
        assert full.lmi_evaluations == bred * sys.num_networks, case
        assert full.pruned == full.bound_settled == 0, case
        assert {k: v for k, v in a.items() if k not in counters} == {
            k: v for k, v in b.items() if k not in counters
        }, case
        assert settled.lmi_evaluations <= full.lmi_evaluations, case
        assert settled.eigensolves + settled.bound_settled <= full.eigensolves, case
        settled_cases += settled.lmi_evaluations < full.lmi_evaluations
    assert settled_cases >= n_cases // 4, settled_cases


def check_bound_proofs_exceed_their_bounds(n_cases: int) -> None:
    """A row that ``xis`` settles against a bound has an eigvalsh xi above that bound.

    Graphs range over n = 1..70 with random coupling, gamma, q and gain,
    and delta puts every row's eigvalsh lambda_min below delta/q, so each
    row fails the feasibility test and gets the proof pass.  Each row's
    bound b puts (delta - b)/q at lambda_min + j*tau, with tau =
    (n+1)*eps*||M||_F and j drawn from [-2, 8]: the proof factors M at that
    point less its slack of about 2*tau, so the proof shift lies within a
    few tau of lambda_min, where rounding decides whether it fails.  Every
    row that reads inf must have ``check_gain``'s xi strictly above its
    bound, every other row must read that xi to the bit, and both outcomes
    must occur.
    """
    rng = np.random.default_rng(1019)
    eps = float(np.finfo(np.float64).eps)
    seen = {True: 0, False: 0}
    for i in range(n_cases):
        g = _random_graph(rng, 1, 70)
        n = g.shape[0]
        l_sym = laplacian(g).symmetric_part
        coupling = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.3, 3.0))
        gain = float(rng.uniform(0.0, 20.0))
        q = float(rng.uniform(0.5, 2.0))
        pins = (rng.random((int(rng.integers(1, 5)), n)) < rng.uniform(0.0, 1.0)).astype(np.uint8)
        ms = [stability_matrix(l_sym, row, coupling, gain, gamma) for row in pins]
        lam = np.array([np.linalg.eigvalsh(m)[0] for m in ms])
        tau = (n + 1) * eps * np.array([np.linalg.norm(m) for m in ms])
        params = StabilityParams(
            delta=q * (max(float(lam.max()), 0.0) + float(rng.uniform(0.01, 1.0))), q=q
        )
        bounds = params.delta - q * (lam + rng.uniform(-2.0, 8.0, size=len(pins)) * tau)
        xis = CertificateTest(l_sym, coupling, gamma, gain, params).xis(pins, bounds)
        for row, xi, bound in zip(pins, xis, bounds):
            exact = check_gain(l_sym, row, coupling, gamma, gain, params).xi
            case = (i, n, row.tolist(), gain, params, bound, exact)
            if xi == np.inf:
                assert exact > bound, case
            else:
                assert xi == exact, case
            seen[xi == np.inf] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


def check_stacked_oracle_matches_subset_loop(n_cases: int) -> None:
    """The oracle's one call per subset size finds the subset-at-a-time walk's answer.

    Networks of n = 1..10 nodes with random coupling, gamma and delta.  A
    quarter of the cases have n = 1; a quarter have n <= 7 and a c_max below
    delta / (2*gamma), where not even pinning every node certifies; and a
    quarter have n <= 7 and a delta at lambda_min with every node pinned,
    where only that set certifies.  These two walk all 2^n subsets.  Both
    oracles must return the same size and pin vector, or both None.
    """
    rng = np.random.default_rng(1017)
    seen = {"none": 0, "all": 0, "some": 0}
    for i in range(n_cases):
        kind = i % 4
        n = 1 if kind == 0 else int(rng.integers(2, 11 if kind == 2 else 8))
        g = generate_adjacency(n, float(rng.uniform(0.1, 0.8)), int(rng.integers(0, 2**31)))
        coupling, gamma = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 1.5))
        net = DirectedNetwork(g, coupling, gamma)
        delta = float(rng.uniform(0.2, 3.0))
        c_max = float(rng.uniform(1.0, 20.0))
        if kind == 1:
            c_max = delta / (2.0 * gamma) * float(rng.uniform(0.1, 0.99))
        elif kind == 3:
            full = stability_matrix(net.lap.symmetric_part, np.ones(n), coupling, c_max, gamma)
            delta = float(np.linalg.eigvalsh(full)[0])
        params = StabilityParams(delta=delta, c_max=c_max)
        want = subset_loop_min_pinning(net, params)
        got = brute_force_min_pinning(net, params)
        case = (i, n, coupling, gamma, params)
        if want is None:
            assert got is None, case
            seen["none"] += 1
        else:
            assert got is not None and got[0] == want[0], (case, got, want)
            assert got[1].tobytes() == want[1].tobytes(), (case, got, want)
            seen["all" if want[0] == n else "some"] += 1
    assert min(seen.values()) > 0, seen


def percent_csv(times: np.ndarray, table: np.ndarray, labels: list[str]) -> bytes:
    """The `%`-tuple block writer the vectorised %.17g kernel replaced, as its oracle."""
    line = ",".join(["%.17g"] * len(labels)) + "\n"
    out = [",".join(labels) + "\n"]
    for start in range(0, len(times), 256):
        block = np.column_stack((times[start : start + 256], table[start : start + 256]))
        out.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(out).encode("utf-8")


def fstring_ga_report(report: ga.GaReport) -> bytes:
    """The f-string writer of ``GaReport.write_csv`` before it went through the
    %.17g kernel, as its oracle."""
    out = ["generation,best_fitness,mean_fitness,best_pinned_count,feasible_fraction\n"]
    for row in zip(
        report.generations,
        report.best_fitness,
        report.mean_fitness,
        report.best_pinned_count,
        report.feasible_fraction,
    ):
        out.append(f"{row[0]},{row[1]:.17g},{row[2]:.17g},{row[3]},{row[4]:.17g}\n")
    return "".join(out).encode("utf-8")


def _adversarial_floats() -> np.ndarray:
    """Values at the kernel's edges: powers of ten and their neighbours, exact
    rounding ties q / 2**j, the fast range's ends, subnormals, zeros, nan, inf."""
    powers = 10.0 ** np.arange(-307, 309)
    ties = np.arange(1, 2048, 2)[:, None] / 2.0 ** np.arange(0, 90)[None, :]
    ends = np.array([1e-280, 1e280, 1e-5, 1e-4, 1e16, 1e17, 2.0**53, 2.0**63])
    rare = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    pool = np.concatenate([powers, ties.ravel(), ends, rare])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([pool, np.nextafter(pool, 0.0), np.nextafter(pool, np.inf), [np.nan]])


def check_csv_kernel_matches_percent(n_cases: int) -> None:
    """The CSV writer gives the `%` writer's bytes on random blocks.

    Values are random finite bit patterns, decaying states and error norms
    reaching below the subnormals, or draws from the adversarial set, with
    random signs; blocks are 1-40 rows of 1-8 columns.
    """
    rng = np.random.default_rng(1016)
    adversarial = _adversarial_floats()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        for i in range(n_cases):
            shape = (int(rng.integers(1, 41)), int(rng.integers(1, 9)))
            kind = i % 4
            if kind == 0:
                v = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
                v = np.where(np.isfinite(v), v, 1.0)
            elif kind in (1, 2):
                t = np.arange(shape[0])[:, None] * rng.uniform(1e-3, 0.5)
                rates = rng.uniform(0.0, 50.0, size=shape[1])
                decay = rng.uniform(0.0, 20.0, size=shape[1]) * np.exp(-rates * t)
                v = decay if kind == 2 else rng.uniform(-200.0, 200.0, size=shape[1]) + decay
            else:
                v = rng.choice(adversarial, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            labels = ["t"] + [f"c{j}" for j in range(shape[1] - 1)]
            write_series_csv(path, labels, v[:, 0], v[:, 1:])
            assert path.read_bytes() == percent_csv(v[:, 0], v[:, 1:], labels), (i, v.tolist())


ALL_CHECKS = (
    ("laplacian row sums zero", check_laplacian_row_sums),
    ("eigenvalue monotone in gain and pins", check_eigmin_monotone_in_gain_and_pins),
    ("all-pinned bound certifies", check_all_pinned_bound_certifies),
    ("xi zero iff feasible", check_xi_zero_iff_feasible),
    ("exact gain matches bisection", check_exact_gain_matches_bisection),
    ("search verdict at c_max matches the minimal-gain solve", check_search_verdict_matches_solve),
    ("generation verdicts match check_gain", check_generation_verdicts_match_check_gain),
    ("stacked certificate matches the row loop", check_stacked_certificate_matches_row_loop),
    ("Lyapunov descent on certified runs", check_lyapunov_descent_on_certified_runs),
    ("error superposition scaling", check_error_trajectory_superposition),
    ("rk4 step-halving ratio ~16", check_rk4_step_halving_fourth_order),
    ("propagator matches stagewise integrator", check_propagator_matches_stagewise),
    ("elitist best-fitness monotone", check_elitist_best_fitness_monotone),
    ("overlap nodes counted once", check_overlap_nodes_counted_once),
    ("seeded reruns identical", check_seeded_runs_identical),
    ("pruned search matches the full search", check_settled_search_matches_full_search),
    ("bound proofs exceed their bounds", check_bound_proofs_exceed_their_bounds),
    ("stacked oracle matches the subset walk", check_stacked_oracle_matches_subset_loop),
    ("csv kernel matches %", check_csv_kernel_matches_percent),
)
