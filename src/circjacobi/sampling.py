"""Exact samplers for the deformed-coefficient laws and their densities.

The coefficient law on the disk is

    c(a, delta) * (1 - |z|^2)^(a - 1) * (1 - z)^conj(delta) * (1 - conj(z))^delta,

and the last coefficient lives on the circle with the analogous tilt against
the uniform measure.  Both are sampled exactly through a polar factorization
about the point 1: writing 1 - z = rho * exp(i psi) with rho = 2 t cos(psi),
the pair (t, psi) decouples into

    1 - t ~ Beta(a, a + 2 Re(delta) + 1)
    psi   ~ density proportional to cos(psi)^(2 (a + Re(delta))) * exp(2 Im(delta) psi)

on (0,1) x (-pi/2, pi/2), and the circle law is the t = 1 limit (a = 0).
1 - t is drawn directly, so it keeps its precision when it is tiny.  For
Im(delta) = 0 the psi law is an arcsine-type transform of a symmetric Beta,
so the draw costs two Beta variates and no rejection at any parameter size.
For Im(delta) != 0 the log-density of psi is concave, and psi is drawn by
Devroye's log-concave rejection (Devroye 1986, ch. VII): a flat envelope
between the points where the log-density is 1 below its maximum and tangent
exponentials beyond, at acceptance about 0.75 for every tilt.  At K = 0 the
psi law is a truncated exponential, drawn by inversion.

A block (`sample_eta_batch`) takes one half-angle draw over all entries and
one Beta draw of 1 - t over the disk columns; the disk sampler forms each
disk column from them and pulls an entry that rounds onto |z| >= 1 just
inside the disk.  Called alone, a sampler draws the pair for its one column.

The densities take a tilt in the law's domain (`opuc.law_tilt`: finite,
Re(delta) > -1/2); the samplers need a finite Re(delta) >= 0 (`opuc.nonnegative_tilt`).

Reproducibility contract: a fixed (seed, stream_id) and call sequence yields
bit-identical output on the same build.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import ParameterError, PoleError
from .opuc import TWO_PI, DeformedCoeffs, EnsembleParams, circle_angles, law_tilt, nonnegative_tilt

__all__ = [
    "SeededRng",
    "DiskDensitySpec",
    "complex_log_gamma",
    "tilt_mass_domain",
    "log_tilt_mass",
    "sample_nu_s",
    "sample_lambda_delta",
    "lambda_delta_density",
    "gamma_k_density",
    "disk_tilt_norm",
    "sample_gamma_k",
    "sample_eta",
    "sample_eta_batch",
]

log = logging.getLogger(__name__)


@dataclass
class SeededRng:
    """Deterministic random source with independent parallel streams.

    Identical (seed, stream_id) reproduce identical draws bit-for-bit on the
    same build; distinct stream ids give statistically independent streams.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ParameterError("seed and stream_id must be nonnegative integers")
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def spawn(self, stream_id: int) -> "SeededRng":
        """Same seed, different stream."""
        return SeededRng(self.seed, stream_id)


@dataclass(frozen=True)
class DiskDensitySpec:
    """Radial exponent a > 0 and tilt delta of one disk coefficient.

    `delta` lies in the law's domain (`law_tilt`); exact sampling also needs
    Re(delta) >= 0 (`nonnegative_tilt`): the tilt is unbounded near z = 1 otherwise.
    """

    a: float
    delta: complex = 0j

    def __post_init__(self):
        if not 0 < self.a < np.inf:
            raise ParameterError(f"radial exponent a must be finite and > 0, got {self.a!r}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "delta", law_tilt(self.delta))


# Stirling's series serves where Re z >= 7 or |Im z| >= 7; other arguments are
# shifted up by an integer count, after a reflection z -> 1 - z where Re z < 1/2.
_STIRLING_MIN = 7.0
_SHIFT_STEPS = np.arange(_STIRLING_MIN)[:, None]  # at most 7 steps from Re z >= 1/2
_HALF_LOG_2PI = 0.9189385332046728
_LOG_PI = 1.1447298858494002
# B_2k / (2k (2k - 1)), k = 1..8: log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
# + sum_k c_k z^(1 - 2k), within 1e-15 relative at |z| >= 7
_STIRLING = (
    0.08333333333333333, -0.002777777777777778, 0.0007936507936507937, -0.0005952380952380953,
    0.0008417508417508417, -0.0019175269175269176, 0.00641025641025641, -0.029550653594771242)
# log Gamma(2 + e) = e sum_k a_k e^k, a_0 = 1 - euler_gamma, a_k = (-1)^(k+1) (zeta(k+1) - 1) / (k+1),
# within 1e-16 at |e| <= 0.2; it serves within that radius of the zeros 1 and 2 of
# log Gamma, where the shift would cancel
_TAYLOR_RADIUS = 0.2
_TAYLOR = (
    0.42278433509846713, 0.3224670334241132, -0.0673523010531981, 0.020580808427784546,
    -0.007385551028673986, 0.0028905103307415234, -0.001192753911703261, 0.0005096695247430425,
    -0.00022315475845357939, 9.945751278180853e-05, -4.492623673813314e-05, 2.050721277567069e-05,
    -9.439488275268397e-06, 4.374866789907488e-06, -2.039215753801366e-06, 9.55141213040742e-07)


def _power_series(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k at each x, by Horner's rule."""
    out = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _log_gamma_right(w: np.ndarray) -> np.ndarray:
    """log Gamma at each w (1-D) with Re w >= 1/2 or |Im w| >= 7.

    Below Re w = 7 and |Im w| = 7 each argument is shifted up by its own
    count N: log Gamma(w) = log Gamma(w + N) - sum_{k<N} log(w + k), the sum
    taken in order over k < 7 with zeros for k >= N, so that an element does
    not depend on the others.  Within `_TAYLOR_RADIUS` of 1 and 2 the Taylor
    series replaces both.
    """
    shift = np.maximum(np.ceil(_STIRLING_MIN - w.real), 0.0) * (np.abs(w.imag) < _STIRLING_MIN)
    v = w + shift
    r = 1.0 / v
    out = (v - 0.5) * np.log(v) - v + (_HALF_LOG_2PI + r * _power_series(_STIRLING, r * r))
    rows = np.flatnonzero(shift)
    if rows.size:
        steps = w[rows] + _SHIFT_STEPS
        logs = np.log(steps, out=np.zeros_like(steps), where=_SHIFT_STEPS < shift[rows])
        out[rows] -= np.cumsum(logs, axis=0)[-1]
    if not (np.abs(w - 1.5) <= 0.5 + _TAYLOR_RADIUS).any():
        return out
    centre = np.rint(w.real)
    near = np.flatnonzero((np.abs(w - centre) <= _TAYLOR_RADIUS) & (np.abs(centre - 1.5) == 0.5))
    if near.size:
        e = w[near] - centre[near]
        out[near] = e * _power_series(_TAYLOR, e)
        # log Gamma(1 + e) = log Gamma(2 + e) - log(1 + e), the log from
        # log|1 + e|^2 = log1p(2 Re e + |e|^2) without cancellation
        one = centre[near] == 1.0
        if one.any():
            e1 = e[one]
            log1p = (0.5 * np.log1p(e1.real * (2.0 + e1.real) + e1.imag ** 2)).astype(np.complex128)
            log1p.imag = np.arctan2(e1.imag, 1.0 + e1.real)
            out[near[one]] -= log1p
    return out


def _reflected(z: np.ndarray, log_gamma_1mz: np.ndarray) -> np.ndarray:
    """log Gamma(z) from log Gamma(1 - z) at each z (1-D) with Re z < 1/2 and |Im z| < 7:
    log pi - log sin(pi z) - log Gamma(1 - z) + 2 pi i sign(Im z) floor(Re z / 2 + 1/4),
    the last term restoring the principal branch.  `PoleError` at a nonpositive integer."""
    n = np.rint(z.real)
    x, y = z.real - n, z.imag
    if np.any(np.maximum(np.abs(x), np.abs(y)) < tol.GAMMA_POLE_TOL):
        raise PoleError("log Gamma pole at a nonpositive integer")
    # sin(pi z) from its real and imaginary parts, with the nearest integer n
    # taken out first: it keeps its relative precision near the poles, and
    # the sign of a zero Im z
    sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
    sin_pi = (sign * np.sin(np.pi * x) * np.cosh(np.pi * y)).astype(np.complex128)
    sin_pi.imag = sign * np.cos(np.pi * x) * np.sinh(np.pi * y)
    turns = np.floor(0.5 * z.real + 0.25)
    branch = 2j * np.pi * np.where(np.signbit(y), -turns, turns)
    return _LOG_PI - np.log(sin_pi) - log_gamma_1mz + branch


def complex_log_gamma(z):
    """Principal-branch log Gamma for complex arguments: analytic off the cut
    (-inf, 0], and on the cut the limit from the side of the sign of Im z.

    Accurate to ~1e-15 relative away from poles (absolute where |log Gamma| < 1);
    raises `PoleError` at the nonpositive integers and `ParameterError` at a
    non-finite argument.  Each element is computed on its own, so an array
    gives the values its elements give alone.
    """
    arr = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ParameterError("log Gamma needs a finite argument")
    flat = arr.ravel()
    left = (flat.real < 0.5) & (np.abs(flat.imag) < _STIRLING_MIN)
    out = _log_gamma_right(np.where(left, 1.0 - flat, flat))
    if left.any():
        out[left] = _reflected(flat[left], out[left])
    out = out.reshape(arr.shape)
    return complex(out) if out.ndim == 0 else out


def tilt_mass_domain(ell, s, t) -> tuple[np.ndarray, complex, complex]:
    """(ell as a float array, s, t as complex), raising `ParameterError` unless ell is finite
    and >= 0, s and t are finite and Re(ell+1+s+t) > 0, where the integrals converge."""
    x, s, t = np.asarray(ell, dtype=float), complex(s), complex(t)
    if not (np.all(np.isfinite(x) & (x >= 0)) and np.isfinite(s) and np.isfinite(t)
            and np.all(x + 1.0 + s.real + t.real > 0)):
        raise ParameterError("need finite ell >= 0 and finite s, t with Re(ell+1+s+t) > 0, "
                             f"got ell={ell!r}, s={s}, t={t}")
    return x, s, t


def log_tilt_mass(ell, s, t):
    """log Gamma(ell+1+s+t) - log Gamma(ell+1+s) - log Gamma(ell+1+t), the one
    closed form behind the coefficient laws' normalizers and moments.

    For ell > 0 it is the log of the integral of (1-|z|^2)^(ell-1) (1-z)^s
    (1-conj z)^t over the disk, divided by pi Gamma(ell); at ell = 0 the log
    of the mean of (1-z)^s (1-conj z)^t on the circle against d(theta)/2pi.
    `ell` is a scalar or an array.  Raises `ParameterError` outside
    `tilt_mass_domain`; `PoleError` where ell+1+s or ell+1+t is a nonpositive
    integer (the integral vanishes there).
    """
    x, s, t = tilt_mass_domain(ell, s, t)
    x = x + 1.0
    g_st, g_s, g_t = complex_log_gamma(np.stack([x + s + t, x + s, x + t]))
    out = g_st - g_s - g_t
    return complex(out) if out.ndim == 0 else out


def sample_nu_s(rng: SeededRng, s: float, size=None):
    """Rotation-invariant disk law with radial density ~ (1 - |z|^2)^((s-3)/2).

    For s == 1 this degenerates to the uniform law on the circle; for s > 1
    the squared radius is Beta(1, (s-1)/2) with an independent uniform angle.
    """
    if not 1 <= s < np.inf:
        raise ParameterError(f"s must be finite and >= 1, got {s!r}")
    shape = () if size is None else size
    psi = rng.generator.uniform(0.0, TWO_PI, size=shape)
    if s == 1:
        out = np.exp(1j * psi)
    else:
        r = np.sqrt(rng.generator.beta(1.0, 0.5 * (s - 1.0), size=shape))
        out = r * np.exp(1j * psi)
    return complex(out) if size is None else out


HALF_PI = 0.5 * np.pi
# Newton steps to each envelope edge.  The envelope is exact at any edge in
# (mode, pi/2); started right of the root of the concave h - top + 1, every
# step stays right of it, and six put the edge within 2e-8 of the root,
# relative to its distance from the mode, for K in [1e-300, 1e8], |m| in [1e-10, 1e6].
_EDGE_NEWTON_STEPS = 6


def _log_cos_tilt(psi, big_k, m):
    """h(psi) = 2K log cos(psi) + 2 m psi, the log of the unnormalized psi density."""
    return 2.0 * big_k * np.log(np.cos(psi)) + 2.0 * m * psi


def _trunc_exp(u, rate, width):
    """Inverse cdf at u of the exponential law with `rate` > 0 truncated to [0, width]."""
    return -np.log1p(u * np.expm1(-rate * width)) / rate


def _half_angle_envelopes(big_k: np.ndarray, m: float):
    """Log-concave rejection envelopes of the psi law (Devroye 1986, ch. VII), one per K > 0.

    h is concave with its maximum `top` at atan2(m, K).  The envelope is
    exp(top) on [-edge[:, 1], edge[:, 0]], where edge[:, s] is where h falls
    1 below `top` on side s (0 right, 1 left mirrored to psi > 0; pi/2 when
    it never does).  Beyond it lies the tangent exponential with log-offset
    `drop` at the edge and decay `rate`, cut at +-pi/2, of mass `area` in
    units of exp(top).  Side 1 is side 0 of the mirror law (K, -m).
    """
    k = big_k[:, None]
    tilt = np.array([m, -m])
    mode = np.arctan2(tilt, k)
    top = _log_cos_tilt(mode, k, tilt)
    level = top - 1.0
    has_root = _log_cos_tilt(HALF_PI, k, tilt) < level
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # start at the nearest of four points right of the root: pi/2; two bounds
        # of h - top by its curvature -2K/cos^2, taken at max(mode, 0) and (left
        # of 0) at the point itself; and the root of -K psi^2 + 2 m psi >= h
        rk, spread = np.sqrt(k), np.sqrt(tilt ** 2 - k * level)
        left = mode + np.cos(mode) / (rk - np.abs(np.sin(mode)))
        edge = np.minimum.reduce([
            np.full_like(mode, HALF_PI),
            mode + np.cos(np.maximum(mode, 0.0)) / rk,
            np.where(tilt > 0, (tilt + spread) / k, level / (tilt - spread)),
            np.where((rk > np.abs(np.sin(mode))) & (left <= 0.0), left, np.inf),
        ])
        # Newton on two concave forms of h = level, taking the nearer step:
        # h itself, fast away from +pi/2, and cos(psi) = exp((level - 2 m psi) / 2K),
        # fast near it, used where that exponent is well conditioned
        exp_form = np.abs(tilt) <= 1e9 * k
        for _ in range(_EDGE_NEWTON_STEPS):
            target = np.exp((level - 2.0 * tilt * edge) / (2.0 * k))
            step = (_log_cos_tilt(edge, k, tilt) - level) / (2.0 * tilt - 2.0 * k * np.tan(edge))
            step = np.where(exp_form, np.fmax(step, (np.cos(edge) - target)
                                              / (tilt / k * target - np.sin(edge))), step)
            # every step stays in (mode, edge]: a NaN or wild step is dropped
            new = edge - step
            edge = np.where((new > mode) & (new <= edge), new, edge)
        edge = np.where(has_root, edge, HALF_PI)
        drop = _log_cos_tilt(edge, k, tilt) - top
        rate = 2.0 * k * np.tan(edge) - 2.0 * tilt
        area = np.where(has_root, np.exp(drop) * -np.expm1(-rate * (HALF_PI - edge)) / rate, 0.0)
    return top[:, 0], edge, drop, rate, area


def _half_angles(gen: np.random.Generator, big_k: np.ndarray, m: float,
                 cols: np.ndarray) -> np.ndarray:
    """psi on (-pi/2, pi/2) for each entry of `cols`, with density ~ cos(psi)^(2K) exp(2 m psi)
    at K = big_k[col].

    m == 0: sin(psi) is an affine symmetric Beta, one draw for all entries.
    Otherwise entries with K == 0 are truncated exponentials, drawn by
    inversion, and the rest are drawn by rejection from their column's
    envelope (`_half_angle_envelopes`), each pass redrawing only the
    entries still pending, at acceptance about 0.75 for every (K, m).  One
    debug record gives the acceptance of the call and its smallest K.
    """
    k = big_k[cols]
    if m == 0.0:
        return np.arcsin(2.0 * gen.beta(k + 0.5, k + 0.5) - 1.0)
    ks, cs = k.ravel(), cols.ravel()
    psi = np.empty(ks.size)
    inverted = np.flatnonzero(ks == 0.0)
    psi[inverted] = np.sign(m) * (HALF_PI - _trunc_exp(gen.random(inverted.size), 2.0 * abs(m), np.pi))
    rejected = pending = np.flatnonzero(ks > 0.0)
    proposed = rejected.size
    top, edge, drop, rate, area = _half_angle_envelopes(big_k, m)
    flat, right = edge[:, 0] + edge[:, 1], area[:, 0]
    while pending.size:
        j = cs[pending]
        u, v = gen.random((2, pending.size))
        u *= flat[j] + area[j, 0] + area[j, 1]
        # u picks the piece and the point: [0, flat) the flat top, then the
        # right tail, then the left tail, each by inversion of its cdf
        tail = u >= flat[j]
        side = (u >= flat[j] + right[j]).astype(np.intp)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _trunc_exp((u - flat[j] - right[j] * side) / area[j, side], rate[j, side],
                           HALF_PI - edge[j, side])
            step = np.where(tail, (1 - 2 * side) * (edge[j, side] + x), u - edge[j, 1])
            log_envelope = top[j] + np.where(tail, drop[j, side] - rate[j, side] * x, 0.0)
            # log(1 - v) is the log of a uniform on (0, 1]; NaN psi never passes
            keep = np.log1p(-v) < _log_cos_tilt(step, big_k[j], m) - log_envelope
        psi[pending[keep]] = step[keep]
        pending = pending[~keep]
        proposed += pending.size
    log.debug("tilted half-angle acceptance %.4f (K=%.3g, m=%.3g)", rejected.size / proposed
              if proposed else 1.0, ks[rejected].min() if proposed else 0.0, m)
    return psi.reshape(cols.shape)


def _disk_point(one_minus_t, psi):
    """z = 1 - 2 t cos(psi) exp(i psi), the disk coefficient of the polar pair (t, psi)."""
    return 1.0 - 2.0 * (1.0 - one_minus_t) * np.cos(psi) * np.exp(1j * psi)


def _circle_point(psi):
    """exp(i theta) at theta = pi + 2 psi in [0, 2pi), the circle coefficient of the half angle psi."""
    return np.exp(1j * circle_angles(np.pi + 2.0 * psi))


def lambda_delta_density(delta: complex, theta):
    """Density of the tilted circle law against d(theta)/2pi, periodic; at theta = 0
    its limit from above (inf when Re(delta) < 0)."""
    d = law_tilt(delta)
    th = circle_angles(np.asarray(theta, dtype=float))
    c, m = d.real, d.imag
    log_norm = -np.real(log_tilt_mass(0.0, np.conj(d), d))
    with np.errstate(divide="ignore"):  # |1 - e^{i theta}|^0 = 1, also at theta = 0
        log_abs = np.log(2.0 * np.sin(0.5 * th)) if c else 0.0
        log_tilt = 2.0 * c * log_abs + m * (th - np.pi)
    out = np.exp(log_norm + log_tilt)
    return float(out) if np.isscalar(theta) else out


def disk_tilt_norm(a: float, delta: complex) -> float:
    """Normalizing constant c(a, delta) of the disk coefficient density, for the
    (a, delta) that `DiskDensitySpec` accepts."""
    spec = DiskDensitySpec(a, delta)
    a, d = spec.a, spec.delta
    log_mass = np.real(complex_log_gamma(a) + log_tilt_mass(a, np.conj(d), d))
    return float(np.exp(-log_mass) / np.pi)


def gamma_k_density(spec: DiskDensitySpec, z):
    """Coefficient density on the open unit disk (w.r.t. planar Lebesgue measure).

    The tilt (1-z)^conj(delta) (1-conj(z))^delta is evaluated as
    exp(2 Re(conj(delta) log(1-z))), which is real and positive.
    """
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zz) >= 1.0):
        raise ParameterError("density is defined on |z| < 1 only")
    d = spec.delta
    if d.real < 0 and np.any(np.abs(1.0 - zz) < tol.DENSITY_POLE_RADIUS):
        warnings.warn("density has a pole at z = 1 for Re(delta) < 0", RuntimeWarning)
    base = disk_tilt_norm(spec.a, d) * (1.0 - np.abs(zz) ** 2) ** (spec.a - 1.0)
    tilt = np.exp(2.0 * np.real(np.conj(d) * np.log(1.0 - zz)))
    out = base * tilt
    return float(out) if np.isscalar(z) else out


def sample_gamma_k(rng: SeededRng, spec: DiskDensitySpec, size=None, *, polar=None):
    """Exact draw from `gamma_k_density` via the (t, psi) polar factorization.

    Draws psi, then 1 - t ~ Beta(a, a + 2 Re(delta) + 1), unless `polar` gives
    that pair of every draw.  Cost is two Beta variates per draw for real
    delta, independent of the parameter size; Im(delta) != 0 draws psi by
    rejection at acceptance about 0.75.  Requires Re(delta) >= 0.
    """
    d, gen = nonnegative_tilt(spec.delta), rng.generator
    if polar is None:
        count = 1 if size is None else int(np.prod(size))
        psi = _half_angles(gen, np.array([spec.a + d.real]), d.imag, np.zeros(count, np.intp))
        polar = gen.beta(spec.a, spec.a + 2.0 * d.real + 1.0, size=count), psi
    z = _disk_point(*polar)
    # 1 - t can fall below the rounding of 1 (often at small a), so |z| rounds onto
    # the boundary; pull such an entry onto the largest radius that rounds below 1,
    # a move of a few ulp, where a redraw would cut that mass off the law
    bad = np.abs(z) >= 1.0
    while np.any(bad):
        z[bad] *= np.nextafter(1.0, 0.0) / np.abs(z[bad])
        bad = np.abs(z) >= 1.0
    return complex(z[0]) if size is None else z.reshape(size)


def sample_lambda_delta(rng: SeededRng, delta: complex, size=None):
    """Exact draw from the tilted circle law (density `lambda_delta_density`).

    Writing the angle as theta = pi + 2 psi, the half-angle psi follows the
    cos-power law with K = Re(delta): a Beta transform for real delta, an
    inverted truncated exponential for Re(delta) = 0, and otherwise a
    rejection step at acceptance about 0.75.  Requires Re(delta) >= 0.
    """
    d = nonnegative_tilt(delta)
    count = 1 if size is None else int(np.prod(size))
    z = _circle_point(_half_angles(rng.generator, np.array([d.real]), d.imag, np.zeros(count, np.intp)))
    return complex(z[0]) if size is None else z.reshape(size)


def sample_eta(rng: SeededRng, params: EnsembleParams) -> DeformedCoeffs:
    """One vector of independent deformed coefficients for the ensemble.

    Coefficient k < n-1 follows the disk law with radial exponent
    `params.radial_exponents[k]`; the last one follows the tilted circle law.
    """
    return DeformedCoeffs(sample_eta_batch(rng, params, 1)[0])


def sample_eta_batch(rng: SeededRng, params: EnsembleParams, count: int) -> np.ndarray:
    """`count` independent coefficient vectors, shape (count, n), drawn as one block.

    The disk sampler forms each disk column, so a trace of `sample_gamma_k`
    counts one call per disk coefficient.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    n, d, gen = params.n, nonnegative_tilt(params.delta), rng.generator
    a = params.radial_exponents
    psi = _half_angles(gen, a + d.real, d.imag, np.broadcast_to(np.arange(n), (count, n)))
    one_minus_t = gen.beta(a[:-1], a[:-1] + 2.0 * d.real + 1.0, size=(count, n - 1))
    out = np.empty((count, n), dtype=np.complex128)
    for k in range(n - 1):
        out[:, k] = sample_gamma_k(rng, DiskDensitySpec(a[k], d), count,
                                   polar=(one_minus_t[:, k], psi[:, k]))
    out[:, -1] = _circle_point(psi[:, -1])
    return out
