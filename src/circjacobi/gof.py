"""Binned goodness-of-fit helpers shared by the test suite and the verifier.

Expected bin masses come from panel Gauss-Legendre quadrature of the model
density and are self-normalized over the full partition, so only density
ratios matter.  Cells whose expected count falls below a floor are pooled
into a single remainder cell before forming the chi-square statistic.
"""

from __future__ import annotations

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


def _complex_quad(fn, a, b, **kwargs) -> complex:
    re, _ = scipy.integrate.quad(lambda x: np.real(fn(x)), a, b, **kwargs)
    im, _ = scipy.integrate.quad(lambda x: np.imag(fn(x)), a, b, **kwargs)
    return re + 1j * im


def disk_integral_quad(ell: float, s, t, *, limit: int = 200) -> complex:
    """Iterated adaptive quadrature of (1-|z|^2)^(ell-1) (1-z)^s (1-conj z)^t over the disk.

    Radial variable u = |z|^2 with the algebraic endpoint weight (1-u)^(ell-1)
    handled by the quadrature routine; the angular integral is adaptive.
    """
    if ell <= 0:
        raise ParameterError("need ell > 0")
    s = complex(s)
    t = complex(t)

    def angular(u: float) -> complex:
        r = np.sqrt(u)

        def fn(th):
            zb = r * np.exp(-1j * th)
            return np.exp(s * np.log(1.0 - np.conj(zb)) + t * np.log(1.0 - zb))

        return _complex_quad(fn, 0.0, TWO_PI, limit=limit)

    def outer(part):
        val, _ = scipy.integrate.quad(
            lambda u: part(angular(u)), 0.0, 1.0,
            weight="alg", wvar=(0.0, ell - 1.0), limit=limit,
        )
        return val

    return 0.5 * (outer(np.real) + 1j * outer(np.imag))


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


def _angle_tilt(th, s, t):
    z = np.exp(1j * th)
    return np.exp(s * np.log(1.0 - z) + t * np.log(1.0 - np.conj(z)))


def partition_quad(n: int, beta: float, s, t, *, limit: int = 200) -> complex:
    """Brute-force quadrature of the tilted angular partition function, n <= 2.

    Normalization is d(theta)/2pi per angle, matching `partition_zst`.
    """
    s = complex(s)
    t = complex(t)
    if n == 1:
        return _complex_quad(lambda th: _angle_tilt(th, s, t), 0.0, TWO_PI, limit=limit) / TWO_PI
    if n == 2:

        def inner(th1: float) -> complex:
            def fn(th2):
                vdm = np.abs(np.exp(1j * th1) - np.exp(1j * th2)) ** beta
                return vdm * _angle_tilt(th1, s, t) * _angle_tilt(th2, s, t)

            return _complex_quad(fn, 0.0, TWO_PI, limit=limit)

        re, _ = scipy.integrate.quad(lambda x: np.real(inner(x)), 0.0, TWO_PI, limit=limit)
        im, _ = scipy.integrate.quad(lambda x: np.imag(inner(x)), 0.0, TWO_PI, limit=limit)
        return (re + 1j * im) / TWO_PI**2
    raise ParameterError("brute-force partition quadrature supports n in {1, 2}")
