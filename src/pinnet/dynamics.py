"""Fixed-step integration of the coupled consensus dynamics.

Node states evolve under diffusive coupling plus pinning feedback.  The
simulator integrates the deviation e_i = x_i - x_i* from each node's
(composite) target, whose dynamics are linear (one network is the K = 1 case):

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
from typing import Optional, Sequence

import numpy as np

from .network import DirectedNetwork, MultiNetworkSystem

DIVERGENCE_LIMIT = 1e12
# Steps integrated between divergence checks.
_BLOCK = 256
# Values per %.17g kernel call.  Its working arrays take ~0.2 kB a value: one
# multi50-solved round (seed 1) peaked at 43.5 MB RSS with the `%` writer and
# at 43.9 MB with 4096 values a call (44.9 MB with 8192, 43.9 MB with 2048).
_CSV_VALUES = 4096


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
        for name in ("dt", "horizon", "convergence_tol"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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


def _assemble_drift(
    sys: MultiNetworkSystem, pins: Sequence[np.ndarray], gains: Sequence[float]
) -> np.ndarray:
    """The closed loop's drift: each network's matrix embedded at its node ids."""
    if len(pins) != sys.num_networks or len(gains) != sys.num_networks:
        raise ValueError("need one gene vector and one gain per network")
    n = sys.total_nodes
    a = np.zeros((n, n))
    for net, vec, gain in zip(sys.networks, pins, gains):
        if np.shape(vec) != (net.n,):
            raise ValueError("gene vector length must match network size")
        if gain is None or not (np.isfinite(gain) and gain >= 0.0):
            raise ValueError(f"every network needs a finite nonnegative gain, got {gain!r}")
        idx = net.node_ids
        a[np.ix_(idx, idx)] += _drift_matrix(net, vec, float(gain))
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
    pins: Sequence[np.ndarray],
    gains: Sequence[float],
    x0: np.ndarray,
    sim: SimulationConfig,
) -> Trajectory:
    """Integrate the coupled multi-network dynamics from x0.

    ``pins[k]`` is network k's 0/1 pin vector in its node order and
    ``gains[k]`` its gain.  Errors are measured against the per-node
    composite targets.
    """
    targets = sys.composite_targets
    x = _as_states(x0, sys.total_nodes, sys.state_dim)
    a = _assemble_drift(sys, pins, gains)
    return _integrate(a, x - targets, targets, sim)


def convergence_time(traj: Trajectory, tol: float) -> Optional[float]:
    """Earliest sampled time from which the max-node error stays within tol."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    worst = traj.max_errors()
    above = np.nonzero(worst > tol)[0]
    if len(above) == 0:
        return float(traj.times[0])
    last_bad = above[-1]
    if last_bad + 1 >= len(worst):
        return None
    return float(traj.times[last_bad + 1])


# "%.17g" % v for a whole block of values at once, to the byte.  |v| is scaled
# by 10**(16 - e), e = floor(log10|v|), held as a double-double, and the product
# is exact by Dekker's algorithm (Loitsch's Grisu3 idea, PLDI 2010), so the
# digits D = round(|v| * 10**(16 - e)) are exact wherever the scaled value is
# not within 1e-9 of a rounding tie.  Those values go to `%` one by one, with
# +-0, nan, +-inf, subnormals, |v| outside [1e-280, 1e280], and values whose D
# falls outside [1e16, 1e17): a log10 one off next to a power of ten, or a
# round-up to 10**17, which needs |v| within a relative 5e-18 of a power of
# ten, where log10 already reads one over.
_E_MIN, _E_MAX = -282, 282  # table rows: e for |v| in [1e-280, 1e280], one either side
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo into halves whose products are exact."""
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**(16 - e) per e as hi + mid + lo: hi + mid the nearest double, split."""
    near, rest = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        x = num / den  # int / int rounds correctly
        a, b = x.as_integer_ratio()
        near.append(x)
        rest.append((num * b - a * den) / (den * b))
    return (*_split(np.array(near)), np.array(rest))


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The bytes "dddd" of 0..9999 as one uint32 word each, and their trailing zeros."""
    n = np.arange(10000)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    zeros = sum((n % 10**k == 0).astype(np.uint8) for k in (1, 2, 3, 4))
    return chars.astype(np.uint8).view(np.uint32).ravel(), zeros


def _ascii_words(strings: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(strings), dtype=np.uint32)


_P_HI, _P_MID, _P_LO = _pow10_table()
_DIGITS4, _ZEROS4 = _digit_tables()

# One value's row, 13 words: the separator goes right after its last kept byte.
#   0-3    "\0\0-d"    d the first digit, '-' kept for negatives
#   4-19   digits 2-17  the integer part (A)
#   20-23  "\0-0."      sign, "0" and "." of 0.000ddd
#   24-43  "000d" and digits 2-17, the fraction (B): its "." overwrites the
#          digit before it, and the zeros of 0.000ddd sit in front of d
#   44-51  the exponent, "e+17" to "e-282"
_W = 52
_A, _P, _B, _S = 3, 21, 27, 44  # first digit of A, the sign of P, first digit of B, "e"
_LEAD = _ascii_words([b"\0\0-%d" % i for i in range(10)])
_SMALL = _ascii_words([b"\0-0."])[0]
_SUFFIX = _ascii_words([b"%-8s" % (b"e%+03d" % e) for e in range(_E_MIN, _E_MAX + 1)])
_SUFFIX = _SUFFIX.reshape(-1, 2).T.copy()


def _layout_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kept bytes, '.' byte and separator byte of each value class, and the
    class of each exponent with 17 digits and a plus sign.

    A class is (form, significant digits 1-17, sign), row
    (form * 17 + digits - 1) * 2 + negative, where form is 4 + e for the fixed
    forms (-4 <= e <= 16), 21 for an exponent of two digits and 22 for three.
    """
    form = np.arange(23)[:, None, None, None]
    digits = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None] == 1
    col = np.arange(_W)
    e = form - 4
    small = (e < 0) & (form < 21)  # 0.000ddd
    exp = form >= 21
    whole = np.where(small, 0, np.where(exp, 1, e + 1))  # digits before the point
    frac = small | (digits > whole)
    suffix = np.where(form == 22, 5, 4)
    sep = np.where(exp, _S + suffix, np.where(frac, _B + digits, _A + whole))
    keep = (col == sep) | (neg & (col == np.where(small, _P, _A - 1)))
    keep |= ~small & (col >= _A) & (col < _A + whole)
    keep |= small & ((col == _P + 1) | (col == _P + 2))
    keep |= small & (col >= _B + e + 1) & (col < _B)
    keep |= frac & (col >= _B + np.maximum(whole - 1, 0)) & (col < _B + digits)
    keep |= exp & (col >= _S) & (col < _S + suffix)
    dot = np.where(small, _P + 2, _B + whole - 1)
    rows = keep.shape[:3]
    exps = np.arange(_E_MIN, _E_MAX + 1)
    form = np.where((exps >= -4) & (exps <= 16), exps + 4, np.where(abs(exps) < 100, 21, 22))
    return (
        keep.reshape(-1, _W),
        np.broadcast_to(dot, rows + (1,)).ravel(),
        np.broadcast_to(sep, rows + (1,)).ravel(),
        34 * form + 32,
    )


_KEEP, _DOT_AT, _SEP_AT, _FORM_ROW = _layout_table()


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D = round(|v| * 10**(16 - e)) for e = floor(log10|v|), e's table row, and
    the values left to `%`, whose D is 10**16."""
    a = np.abs(v)
    bad = ~((a >= 1e-280) & (a <= 1e280))  # also 0, nan and inf
    a[bad] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e -= _E_MIN
    row = e.astype(np.intp)
    # a * 10**(16 - e) = hi + err: a * (ph + pm) exactly (Dekker), plus a * pl
    ph, pm = _P_HI[row], _P_MID[row]
    hi = ph + pm
    hi *= a
    ah, al = _split(a)
    err = ah * ph
    err -= hi
    ph *= al
    al *= pm
    pm *= ah
    err += pm
    err += ph
    err += al
    a *= _P_LO[row]
    err += a
    whole = np.floor(err)
    err -= whole  # the scaled value's fraction
    d = hi.astype(np.int64)
    d += whole.astype(np.int64)
    bad |= d < 10**16  # log10 one over
    err -= 0.5
    d += err > 0
    bad |= d >= 10**17  # log10 one under, or rounded up to 10**17
    bad |= np.abs(err) < 1e-9  # too close to a tie to round here
    d[bad] = 10**16
    return d, row, bad


def _digit_groups(d: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The leading digit of each 17-digit D and its four groups of four."""
    top = d // 10**8
    low = d - top * 10**8
    lead = top // 10**8
    upper, lower = top // 10**4, low // 10**4
    return lead, (upper - lead * 10**4, top - upper * 10**4, lower, low - lower * 10**4)


def _format_rows(block: np.ndarray, words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The CSV bytes of a (rows, cols) float block, each value as "%.17g" % v.

    ``words`` (values, 13) and ``keep`` (values, 52) are scratch, overwritten.
    """
    rows, cols = block.shape
    v = block.reshape(-1)
    n = v.size
    d, row, bad = _digits(v)  # the helpers' temporaries go on return: peak RSS
    lead, groups = _digit_groups(d)
    zeros = _ZEROS4[groups[3]]  # trailing zeros, 4 per zero group
    for count, group in ((4, groups[2]), (8, groups[1]), (12, groups[0])):
        more = np.flatnonzero(zeros == count)
        zeros[more] += _ZEROS4[group[more]]
    np.take(_LEAD, lead, out=words[:, 0])
    words[:, 5] = _SMALL
    np.take(_DIGITS4, lead, out=words[:, 6])
    for j, group in enumerate(groups):
        np.take(_DIGITS4, group, out=words[:, 7 + j])
        words[:, 1 + j] = words[:, 7 + j]
    np.take(_SUFFIX[0], row, out=words[:, 11])
    np.take(_SUFFIX[1], row, out=words[:, 12])
    cls = _FORM_ROW[row]
    cls -= 2 * zeros
    cls += np.signbit(v)
    np.take(_KEEP, cls, axis=0, out=keep)
    dot, sep = _DOT_AT[cls], _SEP_AT[cls]
    out = words.view(np.uint8)
    if bad.any():
        at = np.flatnonzero(bad)
        text = ["%.17g" % x for x in v[at].tolist()]
        out[at, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        sep[at] = [len(t) for t in text]
        keep[at] = np.arange(_W) <= sep[at, None]
        dot[at] = _W - 1
    start = np.arange(0, n * _W, _W)
    flat = out.reshape(-1)
    flat[start + dot] = ord(".")
    ends = np.full(cols, ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    flat[(start + sep).reshape(rows, cols)] = ends
    return out[keep]


def _write_series_csv(
    path: str | Path, times: np.ndarray, table: np.ndarray, labels: list[str]
) -> None:
    width = len(labels) + 1
    step = max(1, _CSV_VALUES // width)
    words = np.empty((step * width, _W // 4), dtype=np.uint32)
    keep = np.empty((step * width, _W), dtype=bool)
    with open(path, "wb") as fh:
        fh.write(("t," + ",".join(labels) + "\n").encode("utf-8"))
        for start in range(0, len(times), step):
            block = np.column_stack((times[start : start + step], table[start : start + step]))
            fh.write(_format_rows(block, words[: block.size], keep[: block.size]))


def export_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the states of every step, one row per instant, 17 significant digits.

    Columns are node_0..node_{N-1} for scalar states; for m > 1 every
    component gets its own node_{i}_{j} column.
    """
    s, n, m = traj.states.shape
    if m == 1:
        labels = [f"node_{i}" for i in range(n)]
    else:
        labels = [f"node_{i}_{j}" for i in range(n) for j in range(m)]
    _write_series_csv(path, traj.times, traj.states.reshape(s, n * m), labels)


def export_errors_csv(traj: Trajectory, path: str | Path) -> None:
    """Write per-node error norms with the same shape as the trajectory CSV."""
    labels = [f"node_{i}" for i in range(traj.n_nodes)]
    _write_series_csv(path, traj.times, traj.errors, labels)
