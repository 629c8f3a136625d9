"""Eigenvalue-reduced stability tests and minimal-gain solving.

With internal coupling gamma * I and Lyapunov weight Q = q * I, the Kronecker
matrix inequality certifying pinning consensus collapses to an N x N symmetric
test: the network is certified stable when

    q * lambda_min(2*C*gamma*L_s + 2*c*gamma*D_hat) >= delta,

where L_s is the symmetric Laplacian part, D_hat the 0/1 pinning diagonal and
c the control gain.  The minimal certifying gain has a closed form: with
A = 2*C*gamma*L_s - (delta/q)*I split into pinned and unpinned nodes, it is
one Cholesky factorisation of the unpinned block and the largest eigenvalue of
a Schur complement (Boyd, El Ghaoui, Feron & Balakrishnan, "Linear Matrix
Inequalities in System and Control Theory", SIAM 1994, section 2.1).
When no gain up to c_max certifies the set, the infeasibility measure xi is
the Frobenius norm of the violating part of the shifted matrix, i.e.
sqrt(sum_i max(0, delta - q*lambda_i)^2) at c = c_max; xi is zero exactly on
feasible sets, which is what makes it usable as a search penalty.

The search tests many pin sets of one network at one gain through a
``CertificateTest``: it forms 2*C*gamma*L_s once, takes the pin sets as one
(B, n) matrix and factors them a chunk at a time in one reusable
(CHUNK_ROWS, n, n) stack, settles a set as feasible when
M - (delta/q + tol)*I has a Cholesky factor, and, given a bound on xi,
settles a rejected set whose xi a second factorisation proves above it.
Only the sets left are eigensolved, which need the spectrum for xi anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# np.linalg.cholesky raises for a whole stack when any one matrix has no factor.
# Its gufunc (the same LAPACK call on the same bits) instead returns that
# matrix as NaN when the invalid flag is ignored, so a stack of pin sets is
# tested in one call.  numpy has had it under this name since 1.8; this import
# is the only place pinnet reaches into numpy's internals.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

SYMMETRY_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)
# Pin sets a CertificateTest factors per call: a stack of 0.3 MB at the 35
# rows of a multi-50 network and 1.25 MB at the 70 rows of a multi-100 one.
CHUNK_ROWS = 32


@dataclass(frozen=True)
class StabilityParams:
    """Constants of the stability test and the gain search."""

    delta: float = 1.0
    q: float = 1.0
    c_max: float = 50.0

    def __post_init__(self):
        for name in ("delta", "q", "c_max"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a gain search: solved gain when feasible, violation size otherwise.

    ``margin`` is q * lambda_min(M) - delta at the reported gain (c_max when
    infeasible); ``xi`` is zero iff feasible.
    """

    feasible: bool
    gain: Optional[float]
    margin: float
    xi: float


def _as_pin_vector(d_hat: np.ndarray, n: int) -> np.ndarray:
    """A 0/1 vector of pin indicators as float64, checked against n."""
    d = np.asarray(d_hat, dtype=np.float64)
    if d.shape != (n,):
        raise ValueError(f"pin vector length {d.shape} does not match n={n}")
    if np.any((d != 0.0) & (d != 1.0)):
        raise ValueError("pin indicators must be 0 or 1")
    return d


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.size and np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance 1e-9")
    return m


def stability_matrix(
    l_sym: np.ndarray,
    d_hat: np.ndarray,
    coupling: float,
    gain: float,
    gamma: float,
) -> np.ndarray:
    """Form M = 2*C*gamma*L_s + 2*c*gamma*D_hat, the reduced test matrix."""
    base = _coupling_term(l_sym, coupling, gamma)
    if not (np.isfinite(gain) and gain >= 0.0):
        raise ValueError(f"gain must be finite and >= 0, got {gain!r}")
    return _with_pins(base, _as_pin_vector(d_hat, len(base)), gain, gamma)


def _coupling_term(l_sym: np.ndarray, coupling: float, gamma: float) -> np.ndarray:
    """2*C*gamma*L_s, once L_s is checked symmetric and C, gamma finite and positive."""
    l_sym = _check_symmetric(l_sym)
    if not (np.isfinite(coupling) and coupling > 0.0 and np.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"coupling and gamma must be finite and > 0, got {coupling!r}, {gamma!r}")
    return 2.0 * coupling * gamma * l_sym


def _with_pins(base: np.ndarray, pins: np.ndarray, gain: float, gamma: float) -> np.ndarray:
    """A copy of ``base`` with 2*c*gamma*pins added to its diagonal in place.

    Every test matrix is formed here, so the search, the solve and
    ``stability_matrix`` see the same bits.  Adding np.diag(pins) instead would
    turn L_s's -0.0 entries into +0.0, which moves eigvalsh.
    """
    m = base.copy()
    m.reshape(-1)[:: len(m) + 1] += gain * (2.0 * gamma * pins)
    return m


def _shortfall_norm(lam: np.ndarray, delta: float, q: float) -> np.ndarray:
    """xi of a spectrum, or of each row of a stack of spectra.

    It is 0 exactly when no eigenvalue falls below delta/q, i.e. margin >= 0.
    """
    short = np.clip(delta - q * lam, 0.0, None)
    return np.sqrt(np.sum(short * short, axis=-1))


def _result_at(lam: np.ndarray, gain: float, params: StabilityParams) -> FeasibilityResult:
    """Verdict, margin and xi from the test matrix's spectrum at ``gain``."""
    margin = params.q * float(lam[0]) - params.delta
    if margin >= 0.0:
        return FeasibilityResult(feasible=True, gain=float(gain), margin=margin, xi=0.0)
    xi = float(_shortfall_norm(lam, params.delta, params.q))
    return FeasibilityResult(feasible=False, gain=None, margin=margin, xi=xi)


def check_gain(
    l_sym: np.ndarray,
    d_hat: np.ndarray,
    coupling: float,
    gamma: float,
    gain: float,
    params: StabilityParams,
) -> FeasibilityResult:
    """Test the stability condition at one fixed gain (no search)."""
    m = stability_matrix(l_sym, d_hat, coupling, gain, gamma)
    return _result_at(np.linalg.eigvalsh(m), gain, params)


class CertificateTest:
    """One network's certificate at one gain, for many pin sets.

    2*C*gamma*L_s is formed and checked once, with the two values each
    diagonal entry of M (and of M - shift*I) can take: unpinned and pinned.
    ``xis`` tests a (B, n) matrix of pin sets CHUNK_ROWS at a time in one
    reusable (CHUNK_ROWS, n, n) stack that holds the off-diagonal part; each
    pass writes its rows' diagonals into the first slots of the stack.  A row
    is feasible, with xi = 0 and no spectrum, when M - (delta/q + tol)*I has
    a Cholesky factor.  A row that fails it and has a finite bound b gets a
    second factorisation at the proof shift (delta - b)/q - 2*(tol +
    2*eps*|(delta - b)/q|): when that fails too, lambda_min lies below
    (delta - b)/q by more than the rounding of both tests, so xi > b, and the
    row reads inf with no spectrum.  The rows left are eigensolved in one
    stacked call, which gives ``check_gain``'s verdict and xi.  ``tested``
    counts the rows tested, ``bound_settled`` those the proof pass settled
    and ``eigensolves`` the rows eigensolved, one per matrix.

    A floating-point Cholesky factor of M - s*I proves M >= s*I only up to a
    rounding term that grows like (n+1)*eps times the size of M (Rump,
    "Verification of positive definiteness", BIT 46, 2006), and eigvalsh errs
    by about eps*||M||.  The round-up's tol = 2*eps*||M||_F in
    ``solve_min_gain`` is not enough here, where no eigensolve follows a
    pass: on sampled matrices of 2-70 rows the Cholesky test passed up to
    2.04*eps*||M||_F above eigvalsh's lambda_min.  This test uses
    tol = (n+1)*eps*(||2*C*gamma*L_s||_F + 2*gamma*c*sqrt(n)), computed once;
    it bounds (n+1)*eps*||M||_F for every pin set.  The proof shift keeps
    one tol for the factorisation, one for eigvalsh, and 4*eps of the shift
    for forming it and the diagonal.
    """

    def __init__(
        self,
        l_sym: np.ndarray,
        coupling: float,
        gamma: float,
        gain: float,
        params: StabilityParams,
    ):
        base = _coupling_term(l_sym, coupling, gamma)
        if not (np.isfinite(gain) and gain >= 0.0):
            raise ValueError(f"gain must be finite and >= 0, got {gain!r}")
        n = len(base)
        norm_bound = float(np.linalg.norm(base)) + 2.0 * gamma * gain * n**0.5
        self._tol = (n + 1) * _EPS * norm_bound
        # Row 0 unpinned, row 1 pinned; the same bits as _with_pins and
        # _positive_definite give.
        lift = gain * (2.0 * gamma * np.array([[0.0], [1.0]]))
        self._m_diag = np.diagonal(base) + lift
        self._shifted_diag = self._m_diag - (params.delta / params.q + self._tol)
        # The LAPACK gufuncs copy their argument, so only the diagonals of
        # the stack change from one pass to the next.
        self._stack = np.repeat(base[np.newaxis], CHUNK_ROWS, axis=0)
        self._diagonals = self._stack.reshape(CHUNK_ROWS, n * n)[:, :: n + 1]
        self._params = params
        self.tested = self.bound_settled = self.eigensolves = 0

    def xis(self, pins: np.ndarray, bounds: Optional[np.ndarray] = None) -> np.ndarray:
        """Each row's violation at the gain, for a (B, n) 0/1 matrix of pin sets.

        With ``bounds``, one per row, a row whose xi is proven to exceed its
        bound reads inf and is not eigensolved; an infinite bound, or none,
        asks for the row's xi itself.
        """
        pins = np.asarray(pins)
        n = self._stack.shape[1]
        if pins.ndim != 2 or pins.shape[1] != n:
            raise ValueError(f"pin rows shape {pins.shape} does not match n={n}")
        pinned = pins == 1
        if not np.all(pinned | (pins == 0)):
            raise ValueError("pin indicators must be 0 or 1")
        bounds = np.full(len(pins), np.inf) if bounds is None else np.asarray(bounds, np.float64)
        if bounds.shape != (len(pins),):
            raise ValueError(f"bounds shape {bounds.shape} does not match {len(pins)} rows")
        p = self._params
        shifted = np.where(pinned, self._shifted_diag[1], self._shifted_diag[0])
        xi = np.zeros(len(pins))
        for start in range(0, len(pins), CHUNK_ROWS):
            failed = start + self._failing(shifted[start : start + CHUNK_ROWS])
            trial = failed[bounds[failed] < np.inf]
            if trial.size:
                proof = (p.delta - bounds[trial]) / p.q
                proof -= 2.0 * (self._tol + 2.0 * _EPS * np.abs(proof))
                lifted = np.where(pinned[trial], self._m_diag[1], self._m_diag[0])
                proven = trial[self._failing(lifted - proof[:, np.newaxis])]
                xi[proven] = np.inf
                self.bound_settled += proven.size
                failed = failed[xi[failed] == 0.0]
            if failed.size:
                self._diagonals[: failed.size] = np.where(
                    pinned[failed], self._m_diag[1], self._m_diag[0]
                )
                spectra = np.linalg.eigvalsh(self._stack[: failed.size])
                xi[failed] = _shortfall_norm(spectra, p.delta, p.q)
                self.eigensolves += failed.size
        self.tested += len(pins)
        return xi

    def _failing(self, diagonals: np.ndarray) -> np.ndarray:
        """Indices of the rows whose matrix, with these diagonals, has no Cholesky factor."""
        k = len(diagonals)
        self._diagonals[:k] = diagonals
        factors = _factor(self._stack[:k])
        return np.flatnonzero(np.isnan(np.diagonal(factors, axis1=1, axis2=2)).any(axis=1))


def solve_min_gain(
    l_sym: np.ndarray,
    d_hat: np.ndarray,
    coupling: float,
    gamma: float,
    params: StabilityParams,
) -> FeasibilityResult:
    """Find the minimal gain in [0, c_max] certifying stability, in closed form.

    With A = 2*C*gamma*L_s - (delta/q)*I split into pinned (P) and unpinned
    (U) nodes, the certificate A + 2*c*gamma*D_hat >= 0 can hold only if
    A_UU > 0, and then holds exactly when
    2*c*gamma >= lambda_max(A_PU A_UU^-1 A_UP - A_PP) (Schur complement).
    The gain so found is rounded up until the eigensolve at it certifies, so a
    feasible result always has margin >= 0; the round-up steps are tested by
    Cholesky factorisations, and only a gain that passes one is eigensolved.
    When A_UU has no Cholesky factor,
    or the gain would pass c_max, the spectrum at c_max decides feasibility
    and gives xi.
    """
    base = _coupling_term(l_sym, coupling, gamma)
    n = len(base)
    pins = _as_pin_vector(d_hat, n)
    shifted = base.copy()
    shifted[np.diag_indices(n)] -= params.delta / params.q
    p, u = pins == 1.0, pins == 0.0

    gain = params.c_max
    chol = _factor(shifted[np.ix_(u, u)])
    if not np.isnan(chol).any():  # else A_UU is not positive definite: no gain certifies
        w = np.linalg.solve(chol, shifted[np.ix_(u, p)])
        schur = w.T @ w - shifted[np.ix_(p, p)]
        top = float(np.linalg.eigvalsh(schur)[-1]) if schur.size else 0.0
        gain = min(params.c_max, max(0.0, top) / (2.0 * gamma))

    bump = 0.0
    while True:
        m = _with_pins(base, pins, gain, gamma)
        # eigvalsh is accurate to about eps*||M||, so a gain at which
        # M - (delta/q + tol)*I has a Cholesky factor should certify.  Only such
        # a gain is eigensolved, and the eigensolve has the last word.
        tol = 2.0 * _EPS * float(np.linalg.norm(m))
        if gain >= params.c_max or _positive_definite(m, params.delta / params.q + tol):
            res = _result_at(np.linalg.eigvalsh(m), gain, params)
            if res.feasible or gain >= params.c_max:
                return res
        # A gain step dc lifts lambda_min by at most 2*gamma*dc, so the first
        # step lifts it by at most 8*tol; each further step doubles.
        bump = max(2.0 * bump, 4.0 * tol / gamma, float(np.spacing(gain)))
        gain = min(params.c_max, gain + bump)


def _positive_definite(m: np.ndarray, shift: float) -> bool:
    """Whether m - shift*I has a Cholesky factor."""
    shifted = m.copy()
    shifted.reshape(-1)[:: len(m) + 1] -= shift
    return not np.isnan(_factor(shifted)).any()


def _factor(m: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of m, or of each matrix of a stack, as
    np.linalg.cholesky gives it; all NaN for a matrix that has none."""
    with np.errstate(invalid="ignore"):
        return _cholesky_lo(m, signature="d->d")
