"""Binned goodness-of-fit helpers shared by the test suite and the verifier.

Expected bin masses come from panel Gauss-Legendre quadrature of the model
density and are self-normalized over the full partition, so only density
ratios matter.  Cells whose expected count falls below a floor are pooled
into a single remainder cell before forming the chi-square statistic.

The quadrature oracles (`disk_integral_quad`, `partition_quad`) are the
independent routes to the disk integral and the angular partition function.
Their angular integrals are not adaptive: each is one NumPy evaluation on a
fixed composite Gauss-Legendre rule graded geometrically toward the
integrand's non-smooth points.  Only the outer integrals are adaptive.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy

from .errors import ParameterError
from .opuc import TWO_PI
from .sampling import (
    DiskDensitySpec,
    complex_log_gamma,
    gamma_k_density,
    lambda_delta_density,
)

__all__ = [
    "chi2_from_cells",
    "disk_coefficient_chi2",
    "circle_angle_chi2",
    "pair_angle_chi2",
    "ks_pvalue",
    "disk_integral_quad",
    "disk_integral_closed",
    "partition_quad",
    "tilted_disk_power_moment",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _cell_quad_1d(fn, edges):
    """Integral of fn over each [edges[i], edges[i+1]] with 8-point Gauss."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = fn(nodes)
    return (vals * _GL_W[None, :]).sum(axis=1) * half


def _cell_quad_2d(fn, xedges, yedges):
    """Integral of fn over each rectangle of the grid, 8x8 Gauss per cell."""
    hx = 0.5 * np.diff(xedges)
    mx = 0.5 * (xedges[:-1] + xedges[1:])
    hy = 0.5 * np.diff(yedges)
    my = 0.5 * (yedges[:-1] + yedges[1:])
    xn = mx[:, None] + hx[:, None] * _GL_X[None, :]  # (nx, 8)
    yn = my[:, None] + hy[:, None] * _GL_X[None, :]  # (ny, 8)
    x4 = xn[:, None, :, None]
    y4 = yn[None, :, None, :]
    vals = fn(np.broadcast_to(x4, (xn.shape[0], yn.shape[0], 8, 8)),
              np.broadcast_to(y4, (xn.shape[0], yn.shape[0], 8, 8)))
    w2 = _GL_W[:, None] * _GL_W[None, :]
    cells = (vals * w2[None, None, :, :]).sum(axis=(2, 3))
    return cells * (hx[:, None] * hy[None, :])


def chi2_from_cells(counts, masses, *, min_expected: float = 10.0):
    """Chi-square p-value for observed cell counts against unnormalized masses.

    Masses are self-normalized; cells with expected count < `min_expected`
    are pooled into one remainder cell.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    masses = np.asarray(masses, dtype=float).ravel()
    if counts.size != masses.size:
        raise ParameterError("counts and masses must align")
    total = counts.sum()
    probs = masses / masses.sum()
    expected = total * probs
    keep = expected >= min_expected
    if keep.sum() < 2:
        raise ParameterError("too few usable cells; coarsen the binning")
    obs = counts[keep]
    exp = expected[keep]
    rest_obs = total - obs.sum()
    rest_exp = max(total - exp.sum(), 0.0)
    if rest_exp >= min_expected:
        obs = np.append(obs, rest_obs)
        exp = np.append(exp, rest_exp)
    elif rest_exp > 0:
        j = int(np.argmin(exp))  # fold a thin remainder into the smallest cell
        obs[j] += rest_obs
        exp[j] += rest_exp
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return stat, float(scipy.stats.chi2.sf(stat, dof)), dof


def disk_coefficient_chi2(
    samples,
    spec: DiskDensitySpec,
    *,
    n_rad: int = 10,
    n_ang: int = 12,
    min_expected: float = 10.0,
):
    """Chi-square test of disk samples against the coefficient density.

    Bins in (u, phi) with u = |z|^2 (edges at the quantiles of the untilted
    radial law) and a uniform angular split.
    """
    z = np.asarray(samples, dtype=np.complex128).ravel()
    u = np.abs(z) ** 2
    phi = np.mod(np.angle(z), TWO_PI)
    q = np.linspace(0.0, 1.0, n_rad + 1)
    u_edges = 1.0 - (1.0 - q) ** (1.0 / spec.a)
    u_edges[0], u_edges[-1] = 0.0, 1.0
    phi_edges = np.linspace(0.0, TWO_PI, n_ang + 1)
    counts, _, _ = np.histogram2d(u, phi, bins=(u_edges, phi_edges))

    def density_uphi(uu, pp):
        zz = np.sqrt(uu) * np.exp(1j * pp)
        return 0.5 * gamma_k_density(spec, zz)  # d2z = (1/2) du dphi

    masses = _cell_quad_2d(density_uphi, u_edges, phi_edges)
    return chi2_from_cells(counts, masses, min_expected=min_expected)


def circle_angle_chi2(
    thetas, delta: complex, *, n_bins: int = 24, min_expected: float = 10.0
):
    """Chi-square test of circle angles against the tilted circle law."""
    th = np.mod(np.asarray(thetas, dtype=float).ravel(), TWO_PI)
    edges = np.linspace(0.0, TWO_PI, n_bins + 1)
    counts, _ = np.histogram(th, bins=edges)
    masses = _cell_quad_1d(lambda x: lambda_delta_density(delta, x), edges)
    return chi2_from_cells(counts, masses, min_expected=min_expected)


def pair_angle_chi2(
    pairs, density, *, n_bins: int = 12, min_expected: float = 10.0
):
    """Chi-square test of angle pairs against an unnormalized joint density."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("expected an array of angle pairs")
    edges = np.linspace(0.0, TWO_PI, n_bins + 1)
    counts, _, _ = np.histogram2d(
        np.mod(arr[:, 0], TWO_PI), np.mod(arr[:, 1], TWO_PI), bins=(edges, edges)
    )
    masses = _cell_quad_2d(density, edges, edges)
    return chi2_from_cells(counts, masses, min_expected=min_expected)


def ks_pvalue(samples, cdf) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value against a cdf callable."""
    res = scipy.stats.kstest(np.asarray(samples, dtype=float).ravel(), cdf)
    return float(res.statistic), float(res.pvalue)


# ---------------------------------------------------------------------------
# quadrature oracles (independent routes for the closed-form identities)

# Angular rule on (0, 1], graded toward 0: panels [r^(k+1), r^k] for
# k < _GRADED_PANELS - 1 and [0, r^(_GRADED_PANELS - 1)], r = _GRADING, with
# _PANEL_NODES Gauss points each.  A singularity at 0 lies one panel length
# from each graded panel, where 8 points reach about 1e-12; the innermost
# panel, about 2e-9 of the half arc, bounds what the grading leaves.
_GRADING = 0.5
_GRADED_PANELS = 30
_PANEL_NODES = 8


def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.append(_GRADING ** np.arange(_GRADED_PANELS), 0.0)
    half = 0.5 * (edges[:-1] - edges[1:])
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


_GRADED_X, _GRADED_W = _graded_rule()


def _circle_rule(cuts) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, 2pi) graded toward each cut, cuts sorted in [0, 2pi)."""
    ends = np.append(cuts, TWO_PI)
    half = 0.5 * np.diff(ends)[:, None]
    nodes = np.concatenate(((ends[:-1, None] + half * _GRADED_X).ravel(),
                            (ends[1:, None] - half * _GRADED_X).ravel()))
    weights = np.tile((half * _GRADED_W).ravel(), 2)
    return nodes, weights


_CIRCLE_X, _CIRCLE_W = _circle_rule([0.0])


def _tilt(u, th, s: complex, t: complex):
    """(1 - z)^s (1 - conj z)^t at z = sqrt(u) e^{i th}, 0 <= u <= 1.

    1 - z is formed as (1 - u)/(1 + r) + 2 r sin^2(th/2) - i r sin(th),
    without cancellation near z = 1, where the rules are graded.
    """
    r = np.sqrt(u)
    log_1mz = np.log((1.0 - u) / (1.0 + r) + 2.0 * r * np.sin(0.5 * th) ** 2
                     - 1j * r * np.sin(th))
    return np.exp(s * log_1mz + t * np.conj(log_1mz))


def disk_integral_quad(ell: float, s, t, *, limit: int = 200) -> complex:
    """Iterated quadrature of (1-|z|^2)^(ell-1) (1-z)^s (1-conj z)^t over the disk.

    Radial variable u = |z|^2, integrated adaptively with the algebraic
    endpoint weight (1-u)^(ell-1) handled by the quadrature routine; the
    angular integral at each radial node is one evaluation of a fixed
    composite Gauss-Legendre rule graded toward theta = 0.
    """
    if ell <= 0:
        raise ParameterError("need ell > 0")
    s = complex(s)
    t = complex(t)

    @functools.cache  # the real and imaginary passes share their nodes
    def angular(u: float) -> complex:
        return complex(_CIRCLE_W @ _tilt(u, _CIRCLE_X, s, t))

    val, _ = scipy.integrate.quad(angular, 0.0, 1.0, complex_func=True, weight="alg",
                                  wvar=(0.0, ell - 1.0), limit=limit)
    return 0.5 * val


def disk_integral_closed(ell: float, s, t) -> complex:
    """Closed form pi Gamma(ell) Gamma(ell+1+s+t) / (Gamma(ell+1+s) Gamma(ell+1+t))."""
    s = complex(s)
    t = complex(t)
    return np.pi * complex(
        np.exp(
            complex_log_gamma(ell)
            + complex_log_gamma(ell + 1.0 + s + t)
            - complex_log_gamma(ell + 1.0 + s)
            - complex_log_gamma(ell + 1.0 + t)
        )
    )


def tilted_disk_power_moment(a: float, delta: complex, u, v) -> complex:
    """E[(1-z)^u (1-conj z)^v] under the coefficient law with radial exponent a.

    a = 0 degenerates to the tilted circle law.  Follows from the disk
    integral identity applied twice (tilt absorbed into the exponents).
    """
    d = complex(delta)
    u = complex(u)
    v = complex(v)
    two_c = 2.0 * d.real
    return complex(
        np.exp(
            complex_log_gamma(a + 1.0 + d)
            + complex_log_gamma(a + 1.0 + np.conj(d))
            + complex_log_gamma(a + 1.0 + two_c + u + v)
            - complex_log_gamma(a + 1.0 + two_c)
            - complex_log_gamma(a + 1.0 + np.conj(d) + u)
            - complex_log_gamma(a + 1.0 + d + v)
        )
    )


def partition_quad(n: int, beta: float, s, t, *, limit: int = 200) -> complex:
    """Brute-force quadrature of the tilted angular partition function, n <= 2.

    Normalization is d(theta)/2pi per angle, matching `partition_zst`.  The
    integral over theta at n = 1, and over theta_2 at each theta_1 at n = 2,
    is one evaluation of a fixed composite Gauss-Legendre rule graded toward
    0 and, unless beta is an even integer, toward theta_2 = theta_1.  Only the
    outer integral over theta_1 is adaptive (`limit` subintervals at most).
    """
    s = complex(s)
    t = complex(t)
    if n == 1:
        return complex(_CIRCLE_W @ _tilt(1.0, _CIRCLE_X, s, t)) / TWO_PI
    if n == 2:
        smooth_pair = beta % 2.0 == 0.0
        weights = _CIRCLE_W * _tilt(1.0, _CIRCLE_X, s, t)

        @functools.cache  # the real and imaginary passes share their nodes
        def inner(th1: float) -> complex:
            if smooth_pair:
                th2, w = _CIRCLE_X, weights
            else:
                th2, w = _circle_rule([0.0, th1])
                w = w * _tilt(1.0, th2, s, t)
            vdm = np.abs(2.0 * np.sin(0.5 * (th1 - th2))) ** beta
            return complex(w @ vdm) * complex(_tilt(1.0, th1, s, t))

        val, _ = scipy.integrate.quad(inner, 0.0, TWO_PI, complex_func=True, limit=limit)
        return val / TWO_PI**2
    raise ParameterError("brute-force partition quadrature supports n in {1, 2}")
