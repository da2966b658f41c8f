"""Binned goodness-of-fit helpers shared by the test suite and the verifier.

The binning is fixed by the module constants.  Expected bin masses come
from composite Gauss-Legendre quadrature (`gauss_panels`, the package's one
composite rule) of the model density and are self-normalized over the full
partition, so only density ratios matter.
Cells whose expected count falls below `MIN_EXPECTED` are pooled into a
single remainder cell before forming the chi-square statistic.

The quadrature oracles (`disk_integral_quad`, `partition_quad`) are the
independent routes to the disk integral and the angular partition function.
No rule is adaptive: each angular integral is one NumPy evaluation on a
fixed composite Gauss-Legendre rule graded geometrically toward the
integrand's non-smooth points, and the disk's radial rule is Gauss-Jacobi.
"""

from __future__ import annotations

import numpy as np
import scipy

from .errors import ParameterError
from .opuc import TWO_PI, EnsembleParams, circle_angles, law_tilt
from .sampling import (
    DiskDensitySpec,
    complex_log_gamma,
    gamma_k_density,
    lambda_delta_density,
    log_tilt_mass,
    tilt_mass_domain,
)

__all__ = [
    "gauss_panels",
    "chi2_from_cells",
    "disk_coefficient_chi2",
    "circle_angle_chi2",
    "pair_angle_chi2",
    "ks_statistic",
    "ks_pvalue",
    "disk_integral_quad",
    "disk_integral_closed",
    "partition_quad",
    "tilted_disk_power_moment",
]

# radial x angular disk cells, circle arcs and bins per angle of a pair
DISK_RADIAL_BINS = 10
DISK_ANGLE_BINS = 12
CIRCLE_BINS = 24
PAIR_BINS = 12
MIN_EXPECTED = 10.0
# Gauss points on each cell side of the binned masses and each panel of the graded rule
_PANEL_NODES = 8


def gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `order` points on each panel [edges[i], edges[i+1]].

    Returns the nodes and the weights, each of shape (panels, order); row i
    integrates polynomials of degree up to 2 order - 1 over panel i exactly.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def _cell_quad_2d(fn, xedges, yedges):
    """Integral of fn over each rectangle of the grid: the tensor product of two panel rules."""
    xn, xw = gauss_panels(xedges, _PANEL_NODES)
    yn, yw = gauss_panels(yedges, _PANEL_NODES)
    shape = (xn.shape[0], yn.shape[0], _PANEL_NODES, _PANEL_NODES)
    vals = fn(np.broadcast_to(xn[:, None, :, None], shape),
              np.broadcast_to(yn[None, :, None, :], shape))
    return (vals * (xw[:, None, :, None] * yw[None, :, None, :])).sum(axis=(2, 3))


def chi2_from_cells(counts, masses):
    """Chi-square p-value for observed cell counts against unnormalized masses.

    Counts must be finite and >= 0; masses finite, >= 0 and not all zero.
    Masses are self-normalized; cells with expected count < `MIN_EXPECTED`
    are pooled into one remainder cell.  The p-value is the chi-square upper
    tail `scipy.special.chdtrc`, the function behind SciPy's `chi2.sf`.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    masses = np.asarray(masses, dtype=float).ravel()
    if counts.size != masses.size:
        raise ParameterError("counts and masses must align")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ParameterError("counts must be finite and >= 0")
    if not (np.all(np.isfinite(masses) & (masses >= 0)) and np.any(masses > 0)):
        raise ParameterError("masses must be finite, >= 0 and not all zero")
    total = counts.sum()
    probs = masses / masses.sum()
    expected = total * probs
    keep = expected >= MIN_EXPECTED
    if keep.sum() < 2:
        raise ParameterError("too few usable cells; coarsen the binning")
    obs = counts[keep]
    exp = expected[keep]
    rest_obs = total - obs.sum()
    rest_exp = max(total - exp.sum(), 0.0)
    if rest_exp >= MIN_EXPECTED:
        obs = np.append(obs, rest_obs)
        exp = np.append(exp, rest_exp)
    elif rest_exp > 0:
        j = int(np.argmin(exp))  # fold a thin remainder into the smallest cell
        obs[j] += rest_obs
        exp[j] += rest_exp
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return stat, float(scipy.special.chdtrc(dof, stat)), dof


def disk_coefficient_chi2(samples, spec: DiskDensitySpec):
    """Chi-square test of disk samples against the coefficient density.

    Bins in (u, phi) with u = |z|^2 (edges at the quantiles of the untilted
    radial law) and a uniform angular split.
    """
    z = np.asarray(samples, dtype=np.complex128).ravel()
    u = np.abs(z) ** 2
    phi = circle_angles(np.angle(z))
    q = np.linspace(0.0, 1.0, DISK_RADIAL_BINS + 1)
    u_edges = 1.0 - (1.0 - q) ** (1.0 / spec.a)
    u_edges[0], u_edges[-1] = 0.0, 1.0
    phi_edges = np.linspace(0.0, TWO_PI, DISK_ANGLE_BINS + 1)
    counts, _, _ = np.histogram2d(u, phi, bins=(u_edges, phi_edges))

    def density_uphi(uu, pp):
        zz = np.sqrt(uu) * np.exp(1j * pp)
        return 0.5 * gamma_k_density(spec, zz)  # d2z = (1/2) du dphi

    masses = _cell_quad_2d(density_uphi, u_edges, phi_edges)
    return chi2_from_cells(counts, masses)


def circle_angle_chi2(thetas, delta: complex):
    """Chi-square test of circle angles against the tilted circle law."""
    th = circle_angles(np.asarray(thetas, dtype=float).ravel())
    edges = np.linspace(0.0, TWO_PI, CIRCLE_BINS + 1)
    counts, _ = np.histogram(th, bins=edges)
    nodes, weights = gauss_panels(edges, _PANEL_NODES)
    masses = (lambda_delta_density(delta, nodes) * weights).sum(axis=1)
    return chi2_from_cells(counts, masses)


def pair_angle_chi2(pairs, density):
    """Chi-square test of angle pairs against an unnormalized joint density."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("expected an array of angle pairs")
    edges = np.linspace(0.0, TWO_PI, PAIR_BINS + 1)
    counts, _, _ = np.histogram2d(*circle_angles(arr.T), bins=(edges, edges))
    masses = _cell_quad_2d(density, edges, edges)
    return chi2_from_cells(counts, masses)


def ks_statistic(cum, f):
    """KS distance to a continuous cdf, per row (last axis), of ascending atoms with
    cumulative weights `cum` (broadcast to `f`) and cdf values `f`: max(|left - f|,
    |cum - f|), `left` the weight before each atom.  Tied atoms change nothing."""
    cum = np.broadcast_to(cum, f.shape)
    left = np.concatenate((np.zeros_like(f[..., :1]), cum[..., :-1]), axis=-1)
    return np.maximum(np.max(np.abs(left - f), axis=-1), np.max(np.abs(cum - f), axis=-1))


def ks_pvalue(samples, cdf) -> tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov statistic D and p-value of samples against a cdf callable.

    D = `ks_statistic` at equal weights, max(D+, D-) as SciPy's `kstest` forms
    it.  The p-value is min(1, 2 smirnov(n, D)), twice the one-sided tail
    `scipy.special.smirnov`.  It is the exact two-sided tail (Simard and
    L'Ecuyer 2011) when n > 140 and n D^2 >= 2.2, which covers every p below
    about 0.025; elsewhere it bounds the exact tail from above.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0 or not np.all(np.isfinite(x)):
        raise ParameterError("KS samples must be non-empty and finite")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape or not np.all((f >= 0.0) & (f <= 1.0)):
        raise ParameterError("cdf must return one finite value in [0, 1] per sample")
    d = float(ks_statistic(np.arange(1, n + 1) / n, f))
    return d, min(1.0, 2.0 * float(scipy.special.smirnov(n, d)))


# ---------------------------------------------------------------------------
# quadrature oracles (independent routes for the closed-form identities)

# Angular rule on (0, 1], graded toward 0: panels [r^(k+1), r^k] for
# k < _GRADED_PANELS - 1 and [0, r^(_GRADED_PANELS - 1)], r = _GRADING, with
# _PANEL_NODES Gauss points each.  A singularity at 0 lies one panel length
# from each graded panel, where 8 points reach about 1e-12; the innermost
# panel, about 2e-9 of the half arc, bounds what the grading leaves.
_GRADING = 0.5
_GRADED_PANELS = 30
# panels listed from the outermost in
_GRADED_X, _GRADED_W = (a[::-1].ravel() for a in gauss_panels(
    np.append(0.0, _GRADING ** np.arange(_GRADED_PANELS)[::-1]), _PANEL_NODES))


def _circle_rule(cuts) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, 2pi) graded toward each cut, cuts sorted in [0, 2pi)."""
    ends = np.append(cuts, TWO_PI)
    half = 0.5 * np.diff(ends)[:, None]
    nodes = np.concatenate(((ends[:-1, None] + half * _GRADED_X).ravel(),
                            (ends[1:, None] - half * _GRADED_X).ravel()))
    weights = np.tile((half * _GRADED_W).ravel(), 2)
    return nodes, weights


_CIRCLE_X, _CIRCLE_W = _circle_rule([0.0])
_RADIAL_NODES = 24  # Gauss-Jacobi nodes of the radial rule of `disk_integral_quad`


def _tilt(u, th, s: complex, t: complex):
    """(1 - z)^s (1 - conj z)^t at z = sqrt(u) e^{i th}, 0 <= u <= 1.

    1 - z is formed as (1 - u)/(1 + r) + 2 r sin^2(th/2) - i r sin(th),
    without cancellation near z = 1, where the rules are graded.
    """
    r = np.sqrt(u)
    log_1mz = np.log((1.0 - u) / (1.0 + r) + 2.0 * r * np.sin(0.5 * th) ** 2
                     - 1j * r * np.sin(th))
    return np.exp(s * log_1mz + t * np.conj(log_1mz))


def disk_integral_quad(ell: float, s, t) -> complex:
    """Fixed-rule quadrature of (1-|z|^2)^(ell-1) (1-z)^s (1-conj z)^t over the disk.

    With u = |z|^2 and w = (1-u)^(1/4), (1-u)^(ell-1) du = 4 w^(4 ell-1) dw:
    the radial rule is Gauss-Jacobi in w with that endpoint weight (the fourth
    root smooths the powers of 1 - u), and the angular rule at every radial
    node is the one graded toward theta = 0, all evaluated as one array.
    Needs ell > 0 and (ell, s, t) in `tilt_mass_domain`, where the integral converges.
    """
    ell, s, t = tilt_mass_domain(ell, s, t)
    if not ell > 0:
        raise ParameterError("need ell > 0")
    x, weights = scipy.special.roots_jacobi(_RADIAL_NODES, 0.0, 4.0 * ell - 1.0)
    w = 0.5 * (1.0 + x)  # the rule on [-1, 1] moved to [0, 1]
    angular = _tilt(1.0 - w[:, None] ** 4, _CIRCLE_X, s, t) @ _CIRCLE_W
    # d^2z = du dtheta / 2, and w^(4 ell-1) dw = 2^(-4 ell) (1+x)^(4 ell-1) dx
    return complex(2.0 ** (1.0 - 4.0 * ell) * (weights @ angular))


def disk_integral_closed(ell: float, s, t) -> complex:
    """Closed form pi Gamma(ell) Gamma(ell+1+s+t) / (Gamma(ell+1+s) Gamma(ell+1+t)),
    pi Gamma(ell) exp(`log_tilt_mass`), on the domain of that kernel with ell > 0."""
    if ell <= 0:
        raise ParameterError("need ell > 0")
    return np.pi * complex(np.exp(log_tilt_mass(ell, s, t) + complex_log_gamma(ell)))


def tilted_disk_power_moment(a, delta: complex, u, v):
    """E[(1-z)^u (1-conj z)^v] under the coefficient law with radial exponent a: a
    complex, or at an array of exponents the array of moments.

    Needs delta in the law's domain (`law_tilt`) and (a, conj(delta) + u,
    delta + v) in the domain of `log_tilt_mass`; a = 0 degenerates to the
    tilted circle law.  The tilt is absorbed into the exponents, so the
    moment is a ratio of two values of that kernel.
    """
    d = law_tilt(delta)
    out = np.exp(log_tilt_mass(a, np.conj(d) + u, d + v) - log_tilt_mass(a, np.conj(d), d))
    return complex(out) if np.ndim(a) == 0 else out


def partition_quad(n: int, beta: float, s, t) -> complex:
    """Brute-force quadrature of the tilted angular partition function, n <= 2.

    Normalization is d(theta)/2pi per angle, matching `partition_zst`; each
    angular rule is the fixed composite Gauss-Legendre rule graded toward 0.
    At n = 2 and even beta = 2m, |e^{i theta_1} - e^{i theta_2}|^beta =
    sum_{|k| <= m} (-1)^k C(2m, m+k) e^{ik(theta_1 - theta_2)}, so the double
    integral is sum_k c_k F_k F_{-k} over the tilted Fourier coefficients F_k.
    For other beta the inner rule at each outer node theta_1 is graded also
    toward theta_2 = theta_1, where the Vandermonde factor is not smooth.
    Needs an `EnsembleParams` pair (n, beta) and (0, s, t) in `tilt_mass_domain`.
    """
    if EnsembleParams(n, beta).n > 2:
        raise ParameterError("brute-force partition quadrature supports n in {1, 2}")
    _, s, t = tilt_mass_domain(0.0, s, t)
    weights = _CIRCLE_W * _tilt(1.0, _CIRCLE_X, s, t)
    if n == 1:
        return complex(weights.sum()) / TWO_PI
    if beta % 2.0 == 0.0:
        m = int(beta) // 2
        k = np.arange(-m, m + 1)
        coeffs = (-1.0) ** k * scipy.special.comb(2 * m, m + k)
        fourier = np.exp(1j * k[:, None] * _CIRCLE_X) @ weights
        total = coeffs @ (fourier * fourier[::-1])
    else:
        total = 0.0
        for th1, w1 in zip(_CIRCLE_X, weights):
            th2, w2 = _circle_rule([0.0, th1])
            vdm = np.abs(2.0 * np.sin(0.5 * (th1 - th2))) ** beta
            total += w1 * ((w2 * _tilt(1.0, th2, s, t)) @ vdm)
    return complex(total) / TWO_PI**2
