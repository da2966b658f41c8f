"""Closed-form evaluators, limit objects and empirical-measure statistics.

Covers the scaling regime where the tilt exponent grows linearly with the
dimension, delta = (beta/2) n d with Re(d) >= 0: the limiting spectral
measure on an arc, the log-gamma product formulas (joint transform of the
characteristic polynomial at 1, coefficient moments, partition function),
the free-energy constant B(d), the potential, the free entropy and the
large-deviation rate function, plus Kolmogorov-Smirnov-type distances and
the weight-gap statistic used in convergence experiments.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import ParameterError, TruncationWarning
from .gof import gauss_panels, ks_statistic, tilted_disk_power_moment
from .opuc import TWO_PI, EnsembleParams, SpectralMeasure, circle_angles, nonnegative_tilt
from .sampling import complex_log_gamma, log_tilt_mass

__all__ = [
    "LimitParams",
    "GridMeasure",
    "EmpiricalMeasure",
    "RateReport",
    "limit_params",
    "w_d",
    "mu_d_grid",
    "haar_grid",
    "mu_d_cdf",
    "mellin_fourier",
    "moment_one_minus_gamma",
    "partition_zst",
    "log_partition_zst",
    "b_const",
    "b_const_finite_n",
    "potential_q",
    "sigma_energy",
    "rate_function",
    "ks_distance",
    "weight_gap_stat",
    "convergence_stats",
]


# ---------------------------------------------------------------------------
# limit measure


@dataclass(frozen=True)
class LimitParams:
    """Derived constants of the arc limit measure for a given d.

    gamma_inf = -d/(1 + conj(d)) is the constant deformed coefficient of the
    limit measure, theta_d the half-gap angle (sin(theta_d/2) = |d/(1+d)|)
    and xi_d the rotation (exp(i xi_d) = (1+d)/(1+conj(d))), constrained to
    [-theta_d, theta_d].
    """

    d: complex
    gamma_inf: complex
    theta_d: float
    xi_d: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.theta_d + self.xi_d, TWO_PI - self.theta_d + self.xi_d)

    def ensemble(self, n: int, beta: float) -> EnsembleParams:
        """The ensemble of size n at inverse temperature beta in this limit regime,
        delta = (beta/2) n d."""
        return EnsembleParams(n, beta, 0.5 * beta * n * self.d)


def limit_params(d: complex) -> LimitParams:
    """Compute the limit constants; requires a finite d with Re(d) >= 0."""
    d = nonnegative_tilt(d)
    gamma_inf = -d / (1.0 + np.conj(d))
    ratio = min(abs(d / (1.0 + d)), 1.0)
    theta_d = 2.0 * float(np.arcsin(ratio))
    xi_d = float(np.angle((1.0 + d) / (1.0 + np.conj(d))))
    if not abs(xi_d) <= theta_d + tol.LIMIT_RANGE_TOL:
        raise ParameterError(f"rotation {xi_d!r} outside [-theta_d, theta_d] for d={d}")
    return LimitParams(d, complex(gamma_inf), theta_d, xi_d)


def w_d(params: LimitParams, theta):
    """Limit density against d(theta)/2pi; zero outside the support arc.

    Vanishes like a square root at the arc endpoints, except at a boundary
    case (Re(d) = 0) where the endpoint touching 1 carries an integrable
    inverse-square-root blow-up.  Periodic in theta.
    """
    th = circle_angles(np.asarray(theta, dtype=float))
    if params.d == 0:
        out = np.ones_like(th)
        return float(out) if np.isscalar(theta) else out
    lo, hi = params.support
    out = np.zeros_like(th)
    inside = (th > lo) & (th < hi)
    if np.any(inside):
        ti = th[inside]
        num = np.sin(0.5 * (ti - params.xi_d)) ** 2 - np.sin(0.5 * params.theta_d) ** 2
        num = np.clip(num, 0.0, None)
        out[inside] = np.sqrt(num) * abs(1.0 + params.d) / np.sin(0.5 * ti)
    return float(out) if np.isscalar(theta) else out


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Quadrature representation of an absolutely continuous circle measure."""

    thetas: np.ndarray
    weights: np.ndarray

    def total(self) -> float:
        return float(self.weights.sum())

    def moment(self, k: int) -> complex:
        return complex(np.sum(self.weights * np.exp(1j * k * self.thetas)))

    def reweighted(self, factor) -> "GridMeasure":
        """New measure with density multiplied by `factor(theta)`, renormalized."""
        w = self.weights * np.asarray(factor(self.thetas), dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ParameterError("reweighting factor must keep the measure positive")
        return GridMeasure(self.thetas, w / w.sum())


def haar_grid(nodes: int = 4096) -> GridMeasure:
    """Midpoint-rule representation of the uniform measure."""
    th = (np.arange(nodes) + 0.5) * TWO_PI / nodes
    return GridMeasure(th, np.full(nodes, 1.0 / nodes))


def mu_d_grid(params: LimitParams, panels: int = 256, order: int = 64) -> GridMeasure:
    """Quadrature grid for the arc limit measure.

    Uses theta = mid + half * sin(x) on the support arc, which absorbs the
    square-root endpoint behaviour (and the inverse-square-root boundary
    case) into a smooth integrand, then composite Gauss-Legendre in x.
    """
    if params.d == 0:
        return haar_grid(panels * order)
    lo, hi = params.support
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    edges = np.linspace(-0.5 * np.pi, 0.5 * np.pi, panels + 1)
    x, wx = (a.ravel() for a in gauss_panels(edges, order))
    theta = mid + half * np.sin(x)
    jac = half * np.cos(x)
    weights = w_d(params, theta) * jac * wx / TWO_PI
    return GridMeasure(theta, weights)


@functools.lru_cache(maxsize=32)
def _mu_d_table(params: LimitParams):
    grid = mu_d_grid(params)
    lo, hi = params.support
    xs = np.concatenate(([lo], grid.thetas, [hi]))
    cum = np.concatenate(([0.0], np.cumsum(grid.weights)))
    cum = np.concatenate((cum, [1.0]))
    return xs, np.minimum(cum, 1.0)


def mu_d_cdf(params: LimitParams, t):
    """Distribution function F(t) = mu_d([0, t)) of the limit measure."""
    tt = np.asarray(t, dtype=float)
    if params.d == 0:
        out = np.clip(tt / TWO_PI, 0.0, 1.0)
    else:
        xs, cum = _mu_d_table(params)
        out = np.interp(tt, xs, cum)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# log-gamma product formulas


def mellin_fourier(params: EnsembleParams, s, t) -> complex:
    """Joint transform E[|Z|^t exp(i s arg Z)] of Z = det(Id - U).

    Closed log-gamma product over the independent coefficient factors, written
    out independently of `log_tilt_mass`; requires finite s and t with
    Re(t) > -1/2 and Re(1 + 2 Re(delta) + t) > 0, where E|Z|^t converges.
    """
    t = complex(t)
    s = complex(s)
    d = params.delta
    two_c = 2.0 * d.real
    if not (np.isfinite(s) and np.isfinite(t) and t.real > -0.5 and 1.0 + two_c + t.real > 0):
        raise ParameterError("need finite s and t with Re(t) > -1/2 and "
                             f"Re(1 + 2 Re(delta) + t) > 0, got s={s}, t={t}, delta={d}")
    x = params.beta_half * np.arange(params.n) + 1.0
    g = complex_log_gamma(np.stack([x + d, x + np.conj(d), x + two_c + t, x + two_c,
                                    x + d + 0.5 * (t - s), x + np.conj(d) + 0.5 * (t + s)]))
    return complex(np.exp(np.sum(g[0] + g[1] + g[2] - g[3] - g[4] - g[5])))


def moment_one_minus_gamma(k: int, params: EnsembleParams, s) -> complex:
    """E[(1 - gamma_k)^s] for coefficient index k (the last one included)."""
    if not 0 <= k < params.n or int(k) != k:
        raise ParameterError(f"coefficient index {k!r} is not an integer in 0..{params.n - 1}")
    return tilted_disk_power_moment(params.radial_exponents[int(k)], params.delta, s, 0.0)


def log_partition_zst(n: int, beta: float, s, t) -> complex:
    """log of the tilted angular partition function (uniform base measure).

    The normalization is d(theta_j)/2pi per angle, so s = t = 0 gives
    Gamma(beta' n + 1) / Gamma(beta' + 1)^n with beta' = beta/2.  Requires
    an `EnsembleParams` pair (n, beta) and (0, s, t) in the domain of
    `log_tilt_mass`: finite s and t with Re(1 + s + t) > 0.
    """
    params = EnsembleParams(n, beta)
    n, bh, ell = params.n, params.beta_half, params.radial_exponents[::-1]
    g = complex_log_gamma(np.append(ell + 1.0, [bh * n + 1.0, bh + 1.0]))
    terms = g[:n] + log_tilt_mass(ell, s, t)
    return complex(g[n] - n * g[n + 1] + np.sum(terms))


def partition_zst(n: int, beta: float, s, t) -> complex:
    """Exponentiated form of `log_partition_zst` (overflows for large n; use logs)."""
    return complex(np.exp(log_partition_zst(n, beta, s, t)))


def b_const(d: complex) -> float:
    """Free-energy constant B(d) in closed form.

    B(d) = int_0^1 [x log x + (x + 2c) log(x + 2c) - 2 Re (x + d) log(x + d)] dx
    with c = Re d, evaluated with the antiderivative F(y) = y^2 (log y / 2 - 1/4)
    of y log y, F(0) = 0; the principal log is continuous on each segment
    because Re(x + d) > 0 for x > 0.
    """
    d = nonnegative_tilt(d)
    two_c = 2.0 * d.real

    def anti(y: complex) -> complex:
        return y * y * (0.5 * np.log(y) - 0.25) if y != 0 else 0.0

    plus = anti(1.0) + anti(1.0 + two_c) - anti(two_c)
    minus = 2.0 * (anti(1.0 + d) - anti(d))
    return float(np.real(plus - minus))


def b_const_finite_n(d: complex, n: int, beta: float = 2.0) -> float:
    """Finite-size route to B(d): log partition function at the matched tilt,
    divided by (beta/2) n^2.  Converges to `b_const(d)` as n grows."""
    params = limit_params(d).ensemble(n, beta)
    log_z = log_partition_zst(n, beta, np.conj(params.delta), params.delta)
    return float(np.real(log_z) / (params.beta_half * n * n))


def potential_q(d: complex, theta):
    """External potential of the tilted ensemble, extended value at theta = 0.

    Requires a finite d with Re(d) >= 0.
    """
    d = nonnegative_tilt(d)
    th = circle_angles(np.asarray(theta, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        body = -2.0 * d.real * np.log(2.0 * np.sin(0.5 * th)) - d.imag * (th - np.pi)
    at_one = np.inf if d.real > 0 else -abs(d.imag) * np.pi
    out = np.where(th == 0.0, at_one, body)
    return float(out) if np.isscalar(theta) else out


# ---------------------------------------------------------------------------
# empirical measures, entropy, rate function


def _check_atoms(thetas: np.ndarray, weights: np.ndarray) -> None:
    """Raise `ParameterError` unless the angles are finite, the weights >= 0 and each
    weight sum over the last axis within `STRUCTURAL_TOL` of 1 (so no weight is inf)."""
    if not (np.all(np.isfinite(thetas)) and np.all(weights >= 0.0)):
        raise ParameterError("atoms need finite angles and weights >= 0")
    sums = weights.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= tol.STRUCTURAL_TOL)
    if bad.any():
        raise ParameterError(
            f"weights must sum to 1 within {tol.STRUCTURAL_TOL:g}, got {sums[bad].flat[0]!r}"
        )


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Atomic measure with atoms sorted by angle (uniform or spectral weights)."""

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float).reshape(-1)
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if th.size != w.size or th.size < 1:
            raise ParameterError("thetas and weights must have equal positive length")
        _check_atoms(th, w)
        th = circle_angles(th)
        order = np.argsort(th, kind="stable")
        th = th[order]
        w = w[order]
        th.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "weights", w)

    @classmethod
    def esd(cls, thetas) -> "EmpiricalMeasure":
        th = np.asarray(thetas, dtype=float).reshape(-1)
        return cls(th, np.ones(th.size) / th.size)

    @property
    def n(self) -> int:
        return self.thetas.size


@dataclass(frozen=True)
class RateReport:
    """Decomposition of the large-deviation cost of a measure."""

    sigma: float
    potential_term: float
    b_const: float
    rate: float


# complex entries of the two power tables of one `_moment_octave` block; the
# grid is cut into blocks of nodes so that the tables stay this small
MOMENT_ENTRY_BUDGET = 2**15


def _running_products(first: np.ndarray, z: np.ndarray, count: int) -> np.ndarray:
    """Rows first, first z, ..., first z^{count-1} of vectors (or a scalar `first`)."""
    out = np.empty((count, z.size), dtype=np.complex128)
    out[0] = first
    for row in range(1, count):
        np.multiply(out[row - 1], z, out=out[row])
    return out


def _moment_octave(start: np.ndarray, phases: np.ndarray, count: int):
    """Sums of start z^q over the grid, z the phases, q = 1..count; and start z^count.

    With B = ceil(sqrt(count)) and q = a B + b + 1, 0 <= b < B, the sums are
    the entries (a, b) of a matrix product, of the rows start z^{a B} with
    the columns z^{b + 1}, so the powers cost about 2 sqrt(count) vector
    products.  The product runs over blocks of nodes of at most
    `MOMENT_ENTRY_BUDGET` table entries.
    """
    width = int(np.ceil(np.sqrt(count)))
    height = -(-count // width)
    a, b = divmod(count - 1, width)
    sums = np.zeros((height, width), dtype=np.complex128)
    end = np.empty_like(start, dtype=np.complex128)
    step = max(1, MOMENT_ENTRY_BUDGET // (width + height))
    for lo in range(0, phases.size, step):
        nodes = slice(lo, lo + step)
        cols = _running_products(phases[nodes], phases[nodes], width)
        rows = _running_products(start[nodes], cols[-1], height)
        sums += rows @ cols.T
        end[nodes] = rows[a] * cols[b]
    return sums.reshape(-1)[:count], end


def sigma_energy(measure, *, kmax: int = 4096) -> float:
    """Free entropy via the moment series -sum_{k>=1} |m_k|^2 / k.

    Atomic measures have value -inf.  For grid densities the series is summed
    over dyadic octaves; once consecutive octave sums decay geometrically the
    remaining tail is extrapolated (ratio model) and added.  A
    `TruncationWarning` is emitted when the tail estimate still exceeds
    `ENTROPY_TAIL_TOL` at `kmax` terms.
    """
    if isinstance(measure, (EmpiricalMeasure, SpectralMeasure)):
        return float("-inf")
    if not isinstance(measure, GridMeasure):
        raise ParameterError(f"unsupported measure type {type(measure)!r}")
    if kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {kmax!r}")
    phases = np.exp(1j * measure.thetas)
    cur = measure.weights  # w e^{i k theta}
    total = 0.0
    k = 0

    def advance(stop: int) -> float:
        nonlocal k, cur, total
        moments, cur = _moment_octave(cur, phases, stop - k)
        acc = float(np.sum(np.abs(moments) ** 2 / np.arange(k + 1, stop + 1)))
        k = stop
        total += acc
        return acc

    head = min(64, kmax)
    advance(head)
    prev_octave = None
    tail_est = np.inf
    while k < kmax:
        octave = advance(min(2 * k, kmax))
        if octave <= 1e-14:  # moment roundoff floor
            tail_est = octave
            break
        if prev_octave is not None and octave < prev_octave:
            ratio = octave / prev_octave  # per-octave geometric factor
            tail_est = octave * ratio / (1.0 - ratio)
            if tail_est < min(1e-8, tol.ENTROPY_TAIL_TOL):
                break
        prev_octave = octave
    if np.isfinite(tail_est):
        total += tail_est
    if tail_est > tol.ENTROPY_TAIL_TOL:
        warnings.warn(
            f"entropy series truncated at {k} terms with tail estimate {tail_est:.2e}",
            TruncationWarning,
        )
    return -total


def rate_function(d: complex, measure) -> RateReport:
    """Large-deviation cost -Sigma(mu) + integral(Q_d) + B(d).

    Vanishes (within quadrature slack) exactly at the arc limit measure;
    atomic inputs report rate +inf through the -inf entropy sentinel.
    """
    d = nonnegative_tilt(d)
    sigma = sigma_energy(measure)
    pot = float(np.sum(measure.weights * potential_q(d, measure.thetas)))
    b_val = b_const(d)
    rate = -sigma + pot + b_val
    return RateReport(sigma=sigma, potential_term=pot, b_const=b_val, rate=rate)


def _sorted_atoms(measure) -> tuple[np.ndarray, np.ndarray]:
    """Ascending angles in [0, 2pi) and cumulative weights, 0 first, of an atomic measure."""
    if not isinstance(measure, (EmpiricalMeasure, SpectralMeasure)):
        raise ParameterError(f"unsupported measure type {type(measure)!r}")
    order = np.argsort(measure.thetas, kind="stable")
    return measure.thetas[order], np.concatenate(([0.0], np.cumsum(measure.weights[order])))


def ks_distance(a, b) -> float:
    """sup_t |F_a(t) - F_b(t)| (upper-bounds the Levy distance) of two measures, or
    of a measure and a continuous cdf callable in either order."""
    if callable(a):
        a, b = b, a
    th, cum = _sorted_atoms(a)
    if callable(b):
        return float(ks_statistic(cum[1:], np.asarray(b(th), dtype=float)))
    # between merged jumps both cdfs are constant, and the mass of [0, t) at a
    # jump is the mass of [0, t] at the jump before (or 0): right values suffice
    th_b, cum_b = _sorted_atoms(b)
    ts = np.union1d(th, th_b)
    gaps = cum[np.searchsorted(th, ts, "right")] - cum_b[np.searchsorted(th_b, ts, "right")]
    return float(np.max(np.abs(gaps)))


def weight_gap_stat(measure) -> float:
    """max_k |S_k - k/n| for angle-ordered cumulative weights S_k.

    Controls the uniform distance between the spectral measure and the
    equal-weight empirical measure on the same atoms.
    """
    return float(_weight_gaps(_sorted_atoms(measure)[1][1:]))


def _weight_gaps(cum: np.ndarray) -> np.ndarray:
    """max_k |S_k - k/n| over the last axis of cumulative weights `cum`."""
    n = cum.shape[-1]
    return np.max(np.abs(cum - np.arange(1, n + 1) / n), axis=-1)


def convergence_stats(thetas, weights, cdf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KS distances of the ESD and of the spectral measure to `cdf`, and the weight gap.

    `thetas` and `weights` are (count, n) blocks: each row of angles strictly
    ascending in [0, 2pi), each row of weights summing to 1 within
    `STRUCTURAL_TOL`.  Returns three (count,) arrays whose entry i equals
    `ks_distance(EmpiricalMeasure.esd(thetas[i]), cdf)`,
    `ks_distance(EmpiricalMeasure(thetas[i], weights[i]), cdf)` and
    `weight_gap_stat` of that measure, bit for bit.  `cdf` is called once,
    on the whole angle block.
    """
    th = np.asarray(thetas, dtype=float)
    w = np.asarray(weights, dtype=float)
    if th.ndim != 2 or th.shape != w.shape or th.shape[1] < 1:
        raise ParameterError(
            f"expected angle and weight blocks of one shape (count, n), got {th.shape}, {w.shape}"
        )
    if not (np.all(th >= 0.0) and np.all(th < TWO_PI) and np.all(np.diff(th, axis=1) > 0.0)):
        raise ParameterError("angles of each row must ascend strictly in [0, 2pi)")
    _check_atoms(th, w)
    n = th.shape[1]
    f = np.asarray(cdf(th), dtype=float)
    cum = np.cumsum(w, axis=1)
    return ks_statistic(np.cumsum(np.full(n, 1.0 / n)), f), ks_statistic(cum, f), _weight_gaps(cum)
