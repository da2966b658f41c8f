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
import scipy

from . import tolerances as tol
from .errors import ParameterError, TruncationWarning
from .gof import tilted_disk_power_moment
from .opuc import TWO_PI, EnsembleParams, SpectralMeasure
from .sampling import complex_log_gamma

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
    "mu_d_moment",
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

    alpha_d = -conj(d)/(1 + conj(d)) is the limiting coefficient value,
    theta_d the half-gap angle (sin(theta_d/2) = |d/(1+d)|) and xi_d the
    rotation (exp(i xi_d) = (1+d)/(1+conj(d))), constrained to
    [-theta_d, theta_d].
    """

    d: complex
    alpha_d: complex
    theta_d: float
    xi_d: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.theta_d + self.xi_d, TWO_PI - self.theta_d + self.xi_d)


def limit_params(d: complex) -> LimitParams:
    """Compute the limit constants; requires a finite d with Re(d) >= 0."""
    d = complex(d)
    if not (np.isfinite(d) and d.real >= 0):
        raise ParameterError(f"limit regime requires a finite d with Re(d) >= 0, got {d}")
    if d == 0:
        return LimitParams(0j, 0j, 0.0, 0.0)
    alpha = -np.conj(d) / (1.0 + np.conj(d))
    ratio = min(abs(d / (1.0 + d)), 1.0)
    theta_d = 2.0 * float(np.arcsin(ratio))
    xi_d = float(np.angle((1.0 + d) / (1.0 + np.conj(d))))
    if not abs(xi_d) <= theta_d + 1e-12:
        raise ParameterError(f"rotation {xi_d!r} outside [-theta_d, theta_d] for d={d}")
    if not abs(alpha + 0.5) <= 0.5 + 1e-12:
        raise ParameterError(f"limit coefficient {alpha!r} outside the admissible disk")
    return LimitParams(d, complex(alpha), theta_d, xi_d)


def w_d(params: LimitParams, theta):
    """Limit density against d(theta)/2pi; zero outside the support arc.

    Vanishes like a square root at the arc endpoints, except at a boundary
    case (Re(d) = 0) where the endpoint touching 1 carries an integrable
    inverse-square-root blow-up.
    """
    th = np.asarray(theta, dtype=float)
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
        out[inside] = np.sqrt(num) / (abs(1.0 + params.alpha_d) * np.sin(0.5 * ti))
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


def _panel_gauss(lo: float, hi: float, panels: int, order: int):
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


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
    x, wx = _panel_gauss(-0.5 * np.pi, 0.5 * np.pi, panels, order)
    theta = mid + half * np.sin(x)
    jac = half * np.cos(x)
    weights = w_d(params, theta) * jac * wx / TWO_PI
    return GridMeasure(theta, weights)


@functools.lru_cache(maxsize=32)
def _mu_d_table(params: LimitParams, panels: int, order: int):
    grid = mu_d_grid(params, panels, order)
    lo, hi = params.support
    xs = np.concatenate(([lo], grid.thetas, [hi]))
    cum = np.concatenate(([0.0], np.cumsum(grid.weights)))
    cum = np.concatenate((cum, [1.0]))
    return xs, np.minimum(cum, 1.0)


def mu_d_cdf(params: LimitParams, t, panels: int = 256, order: int = 64):
    """Distribution function F(t) = mu_d([0, t)) of the limit measure."""
    tt = np.asarray(t, dtype=float)
    if params.d == 0:
        out = np.clip(tt / TWO_PI, 0.0, 1.0)
    else:
        xs, cum = _mu_d_table(params, panels, order)
        out = np.interp(tt, xs, cum)
    return float(out) if np.isscalar(t) else out


def mu_d_moment(params: LimitParams, k: int, panels: int = 256, order: int = 64) -> complex:
    """k-th trigonometric moment of the limit measure."""
    if params.d == 0:
        return complex(1.0 if k == 0 else 0.0)
    return mu_d_grid(params, panels, order).moment(k)


# ---------------------------------------------------------------------------
# log-gamma product formulas


def mellin_fourier(params: EnsembleParams, s, t) -> complex:
    """Joint transform E[|Z|^t exp(i s arg Z)] of Z = det(Id - U).

    Closed log-gamma product over the independent coefficient factors;
    requires Re(t) > -1/2.
    """
    t = complex(t)
    s = complex(s)
    if not t.real > -0.5:
        raise ParameterError(f"Re(t) must exceed -1/2, got {t}")
    d = params.delta
    two_c = 2.0 * d.real
    x = params.beta_half * np.arange(params.n) + 1.0
    log_terms = (
        complex_log_gamma(x + d)
        + complex_log_gamma(x + np.conj(d))
        + complex_log_gamma(x + two_c + t)
        - complex_log_gamma(x + two_c)
        - complex_log_gamma(x + d + 0.5 * (t - s))
        - complex_log_gamma(x + np.conj(d) + 0.5 * (t + s))
    )
    return complex(np.exp(np.sum(log_terms)))


def moment_one_minus_gamma(k: int, params: EnsembleParams, s) -> complex:
    """E[(1 - gamma_k)^s] for coefficient index k (the last one included)."""
    if not 0 <= k < params.n:
        raise ParameterError(f"coefficient index {k} outside 0..{params.n - 1}")
    return tilted_disk_power_moment(params.beta_half * (params.n - k - 1), params.delta, s, 0.0)


def log_partition_zst(n: int, beta: float, s, t) -> complex:
    """log of the tilted angular partition function (uniform base measure).

    The normalization is d(theta_j)/2pi per angle, so s = t = 0 gives
    Gamma(beta' n + 1) / Gamma(beta' + 1)^n with beta' = beta/2.
    """
    if n < 1 or beta <= 0:
        raise ParameterError("need n >= 1 and beta > 0")
    s = complex(s)
    t = complex(t)
    bh = 0.5 * beta
    x = bh * np.arange(n) + 1.0
    terms = (
        complex_log_gamma(x)
        + complex_log_gamma(x + s + t)
        - complex_log_gamma(x + s)
        - complex_log_gamma(x + t)
    )
    return complex(
        complex_log_gamma(bh * n + 1.0) - n * complex_log_gamma(bh + 1.0) + np.sum(terms)
    )


def partition_zst(n: int, beta: float, s, t) -> complex:
    """Exponentiated form of `log_partition_zst` (overflows for large n; use logs)."""
    return complex(np.exp(log_partition_zst(n, beta, s, t)))


def b_const(d: complex) -> float:
    """Free-energy constant B(d) by adaptive quadrature of its two integrals."""
    d = complex(d)
    if d.real < 0:
        raise ParameterError(f"B(d) requires Re(d) >= 0, got {d}")
    two_c = 2.0 * d.real

    def plus_part(x):
        first = x * np.log(x) if x > 0 else 0.0
        second = (x + two_c) * np.log(x + two_c) if x + two_c > 0 else 0.0
        return first + second

    def minus_part(x):
        z = x + d
        if z == 0:
            return 0.0
        return 2.0 * np.real(z * np.log(z))

    plus, _ = scipy.integrate.quad(plus_part, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    minus, _ = scipy.integrate.quad(minus_part, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return float(plus - minus)


def b_const_finite_n(d: complex, n: int, beta: float = 2.0) -> float:
    """Finite-size route to B(d): log partition function at the matched tilt,
    divided by (beta/2) n^2.  Converges to `b_const(d)` as n grows."""
    d = complex(d)
    if d.real < 0:
        raise ParameterError(f"requires Re(d) >= 0, got {d}")
    bh = 0.5 * beta
    log_z = log_partition_zst(n, beta, np.conj(d) * bh * n, d * bh * n)
    return float(np.real(log_z) / (bh * n * n))


def potential_q(d: complex, theta):
    """External potential of the tilted ensemble, extended value at theta = 0."""
    d = complex(d)
    th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = -2.0 * d.real * np.log(2.0 * np.sin(0.5 * th)) - d.imag * (th - np.pi)
    at_one = np.inf if d.real > 0 else -abs(d.imag) * np.pi
    out = np.where(th == 0.0, at_one, body)
    return float(out) if np.isscalar(theta) else out


# ---------------------------------------------------------------------------
# empirical measures, entropy, rate function


def _check_unit_mass(sums) -> None:
    """Raise `ParameterError` unless each weight sum is within `STRUCTURAL_TOL` of 1."""
    sums = np.asarray(sums, dtype=float)
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
        th = np.mod(np.asarray(self.thetas, dtype=float).reshape(-1), TWO_PI)
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if th.size != w.size or th.size < 1:
            raise ParameterError("thetas and weights must have equal positive length")
        _check_unit_mass(w.sum())
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
        return cls(th, np.full(th.size, 1.0 / th.size))

    @classmethod
    def from_spectral(cls, measure: SpectralMeasure) -> "EmpiricalMeasure":
        return cls(measure.thetas, measure.weights)

    @property
    def n(self) -> int:
        return self.thetas.size

    def cdf_left(self, t):
        """F(t) = mass of [0, t) (left-continuous convention)."""
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        idx = np.searchsorted(self.thetas, np.asarray(t, dtype=float), side="left")
        out = cum[idx]
        return float(out) if np.isscalar(t) else out

    def cdf_right(self, t):
        """Mass of [0, t]."""
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        idx = np.searchsorted(self.thetas, np.asarray(t, dtype=float), side="right")
        out = cum[idx]
        return float(out) if np.isscalar(t) else out


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


def sigma_energy(measure, *, kmax: int = 4096, tail_tol: float = 1e-4) -> float:
    """Free entropy via the moment series -sum_{k>=1} |m_k|^2 / k.

    Atomic measures have value -inf.  For grid densities the series is summed
    over dyadic octaves; once consecutive octave sums decay geometrically the
    remaining tail is extrapolated (ratio model) and added.  A
    `TruncationWarning` is emitted when the tail estimate still exceeds
    `tail_tol` at `kmax` terms.
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
            if tail_est < min(1e-8, tail_tol):
                break
        prev_octave = octave
    if np.isfinite(tail_est):
        total += tail_est
    if tail_est > tail_tol:
        warnings.warn(
            f"entropy series truncated at {k} terms with tail estimate {tail_est:.2e}",
            TruncationWarning,
        )
    return -total


def rate_function(d: complex, measure, *, kmax: int = 4096) -> RateReport:
    """Large-deviation cost -Sigma(mu) + integral(Q_d) + B(d).

    Vanishes (within quadrature slack) exactly at the arc limit measure;
    atomic inputs report rate +inf through the -inf entropy sentinel.
    """
    d = complex(d)
    if d.real < 0:
        raise ParameterError(f"rate function requires Re(d) >= 0, got {d}")
    sigma = sigma_energy(measure, kmax=kmax)
    if isinstance(measure, GridMeasure):
        pot = float(np.sum(measure.weights * potential_q(d, measure.thetas)))
    else:
        emp = measure if isinstance(measure, EmpiricalMeasure) else EmpiricalMeasure.from_spectral(measure)
        pot = float(np.sum(emp.weights * potential_q(d, emp.thetas)))
    b_val = b_const(d)
    rate = -sigma + pot + b_val
    return RateReport(sigma=sigma, potential_term=pot, b_const=b_val, rate=rate)


def _cdf_views(obj):
    """Return (cdf_left, cdf_right, jump_points or None) for a measure-like input."""
    if isinstance(obj, SpectralMeasure):
        obj = EmpiricalMeasure.from_spectral(obj)
    if isinstance(obj, EmpiricalMeasure):
        return obj.cdf_left, obj.cdf_right, obj.thetas
    if callable(obj):
        return obj, obj, None
    raise ParameterError(f"cannot interpret {type(obj)!r} as a distribution function")


def ks_distance(a, b, grid: int = 2048) -> float:
    """sup_t |F_a(t) - F_b(t)| over the merged jump set (upper-bounds the
    Levy distance).  Arguments may be empirical/spectral measures or plain
    distribution-function callables."""
    left_a, right_a, jumps_a = _cdf_views(a)
    left_b, right_b, jumps_b = _cdf_views(b)
    pts = [p for p in (jumps_a, jumps_b) if p is not None]
    if pts:
        ts = np.unique(np.concatenate(pts))
    else:
        ts = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    d_left = np.max(np.abs(np.asarray(left_a(ts)) - np.asarray(left_b(ts))))
    d_right = np.max(np.abs(np.asarray(right_a(ts)) - np.asarray(right_b(ts))))
    return float(max(d_left, d_right))


def weight_gap_stat(measure) -> float:
    """max_k |S_k - k/n| for angle-ordered cumulative weights S_k.

    Controls the uniform distance between the spectral measure and the
    equal-weight empirical measure on the same atoms.
    """
    if isinstance(measure, SpectralMeasure):
        measure = EmpiricalMeasure.from_spectral(measure)
    if not isinstance(measure, EmpiricalMeasure):
        raise ParameterError(f"unsupported measure type {type(measure)!r}")
    return float(_weight_gaps(np.cumsum(measure.weights)))


def _weight_gaps(cum: np.ndarray) -> np.ndarray:
    """max_k |S_k - k/n| over the last axis of cumulative weights `cum`."""
    n = cum.shape[-1]
    return np.max(np.abs(cum - np.arange(1, n + 1) / n), axis=-1)


def _ks_to_cdf(cum: np.ndarray, f: np.ndarray) -> np.ndarray:
    """KS distance, per row, of atoms with cumulative weights `cum` to cdf values `f` at them.

    Both cdf conventions of `ks_distance` on strictly ascending atoms: the
    mass of [0, t) is the cumulative weight of the atoms before t.
    """
    cum = np.broadcast_to(cum, f.shape)
    left = np.concatenate((np.zeros_like(f[..., :1]), cum[..., :-1]), axis=-1)
    return np.maximum(np.max(np.abs(left - f), axis=-1), np.max(np.abs(cum - f), axis=-1))


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
    _check_unit_mass(w.sum(axis=1))
    n = th.shape[1]
    f = np.asarray(cdf(th), dtype=float)
    cum = np.cumsum(w, axis=1)
    return _ks_to_cdf(np.cumsum(np.full(n, 1.0 / n)), f), _ks_to_cdf(cum, f), _weight_gaps(cum)
