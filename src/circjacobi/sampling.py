"""Exact samplers for the deformed-coefficient laws and their densities.

The coefficient law on the disk is

    c(a, delta) * (1 - |z|^2)^(a - 1) * (1 - z)^conj(delta) * (1 - conj(z))^delta,

and the last coefficient lives on the circle with the analogous tilt against
the uniform measure.  Both are sampled exactly through a polar factorization
about the point 1: writing 1 - z = rho * exp(i psi) with rho = 2 t cos(psi),
the pair (t, psi) decouples into

    t   ~ Beta(a + 2 Re(delta) + 1, a)
    psi ~ density proportional to cos(psi)^(2 (a + Re(delta))) * exp(2 Im(delta) psi)

on (0,1) x (-pi/2, pi/2).  For Im(delta) = 0 the psi law is an arcsine-type
transform of a symmetric Beta, so the draw costs two Beta variates and no
rejection at any parameter size.  For Im(delta) != 0 the log-density of psi
is concave, and psi is drawn by Devroye's log-concave rejection (Devroye
1986, ch. VII): a flat envelope between the points where the log-density is
1 below its maximum and tangent exponentials beyond, at acceptance about
0.75 for every tilt.  At K = 0 the psi law is a truncated exponential,
drawn by inversion.

Reproducibility contract: a fixed (seed, stream_id) and call sequence yields
bit-identical output on the same build.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy

from .errors import ParameterError, PoleError
from .opuc import TWO_PI, DeformedCoeffs, EnsembleParams

__all__ = [
    "SeededRng",
    "DiskDensitySpec",
    "complex_log_gamma",
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

    Density evaluation needs Re(delta) > -1/2; exact sampling needs
    Re(delta) >= 0 (the tilt is unbounded near z = 1 otherwise).
    """

    a: float
    delta: complex = 0j

    def __post_init__(self):
        if not 0 < self.a < np.inf:
            raise ParameterError(f"radial exponent a must be finite and > 0, got {self.a!r}")
        d = complex(self.delta)
        if not (np.isfinite(d) and d.real > -0.5):
            raise ParameterError(f"delta must be finite with Re(delta) > -1/2, got {d}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "delta", d)


def _near_nonpositive_integer(z: np.ndarray) -> np.ndarray:
    re, im = np.real(z), np.imag(z)
    return (np.abs(im) < 1e-12) & (re < 0.5) & (np.abs(re - np.round(re)) < 1e-12)


def complex_log_gamma(z):
    """Principal-branch log Gamma for complex arguments.

    Accurate to ~1e-15 relative away from poles; raises `PoleError` at the
    nonpositive integers.
    """
    arr = np.asarray(z, dtype=np.complex128)
    if np.any(_near_nonpositive_integer(arr)):
        raise PoleError("log Gamma pole at a nonpositive integer")
    out = scipy.special.loggamma(arr)
    return complex(out) if np.isscalar(z) or arr.ndim == 0 else out


def sample_nu_s(rng: SeededRng, s: float, size=None):
    """Rotation-invariant disk law with radial density ~ (1 - |z|^2)^((s-3)/2).

    For s == 1 this degenerates to the uniform law on the circle; for s > 1
    the squared radius is Beta(1, (s-1)/2) with an independent uniform angle.
    """
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s!r}")
    shape = () if size is None else size
    psi = rng.generator.uniform(0.0, TWO_PI, size=shape)
    if s == 1:
        out = np.exp(1j * psi)
    else:
        r = np.sqrt(rng.generator.beta(1.0, 0.5 * (s - 1.0), size=shape))
        out = r * np.exp(1j * psi)
    return complex(out) if size is None else out


HALF_PI = 0.5 * np.pi
# Halvings of each envelope-root bracket.  The envelope is exact for any
# bracket point; this many put it within pi * 2**-40 of the root, far below
# the width ~ 1/sqrt(2K) of the psi law at any K in use.
_ROOT_HALVINGS = 40


def _log_cos_tilt(psi, big_k, m):
    """h(psi) = 2K log cos(psi) + 2 m psi, the log of the unnormalized psi density."""
    return 2.0 * big_k * np.log(np.cos(psi)) + 2.0 * m * psi


def _trunc_exp(u, rate, width):
    """Inverse cdf at u of the exponential law with `rate` > 0 truncated to [0, width]."""
    return -np.log1p(u * np.expm1(-rate * width)) / rate


class _Envelope(NamedTuple):
    """Log-concave rejection envelope of the psi law (Devroye 1986, ch. VII).

    h is concave with its maximum `top` at atan2(m, K).  The envelope is
    exp(top) on [-edge[1], edge[0]], where edge[s] is the point past which h
    is more than 1 below `top` on side s (0 right, 1 left mirrored to psi > 0;
    pi/2 when there is none).  Beyond it lies the tangent exponential with
    log-offset `drop[s]` at the edge and decay `rate[s]`, cut at +-pi/2, of
    mass `area[s]` in units of exp(top).  Fields carry leading axes when
    built for several K at once; `row` picks one.
    """

    top: np.ndarray
    edge: np.ndarray
    drop: np.ndarray
    rate: np.ndarray
    area: np.ndarray

    def row(self, index: int) -> "_Envelope":
        return _Envelope(*(field[index] for field in self))


def _half_angle_envelopes(big_k, m: float) -> _Envelope:
    """Envelopes of the psi law for every K > 0 in `big_k` at one tilt m.

    Both sides of every K are bracketed in one vectorized bisection; side 1
    is side 0 of the mirror law (K, -m) under psi -> -psi.
    """
    k = np.asarray(big_k, dtype=float)[..., None]
    tilt = np.array([m, -m])
    mode = np.arctan2(tilt, k)
    top = _log_cos_tilt(mode, k, tilt)
    level = top - 1.0
    lo, hi = mode, np.full_like(mode, HALF_PI)
    has_root = _log_cos_tilt(hi, k, tilt) < level
    for _ in range(_ROOT_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = _log_cos_tilt(mid, k, tilt) < level
        lo = np.where(below, lo, mid)
        hi = np.where(below, mid, hi)
    edge = np.where(has_root, hi, HALF_PI)
    drop = _log_cos_tilt(edge, k, tilt) - top
    rate = 2.0 * k * np.tan(edge) - 2.0 * tilt
    with np.errstate(divide="ignore", invalid="ignore"):
        area = np.where(has_root, np.exp(drop) * -np.expm1(-rate * (HALF_PI - edge)) / rate, 0.0)
    return _Envelope(top[..., 0], edge, drop, rate, area)


def _half_angle(gen: np.random.Generator, big_k: float, m: float, size: int,
                envelope: _Envelope | None = None) -> np.ndarray:
    """psi on (-pi/2, pi/2) with density ~ cos(psi)^(2K) * exp(2 m psi).

    m == 0: sin(psi) is an affine symmetric Beta.  K == 0: psi is a
    truncated exponential, drawn by inversion.  Otherwise the log-density is
    concave and psi is drawn by rejection from `_Envelope` (built here
    unless given), at acceptance about 0.75 for every (K, m).
    """
    if m == 0.0:
        u = 2.0 * gen.beta(big_k + 0.5, big_k + 0.5, size=size) - 1.0
        return np.arcsin(u)
    if big_k == 0.0:
        log.debug("tilted half-angle acceptance %.4f (K=%.3g, m=%.3g)", 1.0, big_k, m)
        return np.copysign(HALF_PI - _trunc_exp(gen.random(size), 2.0 * abs(m), np.pi), m)
    top, edge, drop, rate, area = _half_angle_envelopes(big_k, m) if envelope is None else envelope
    flat = edge[0] + edge[1]
    total = flat + area[0] + area[1]
    out = np.empty(size, dtype=float)
    filled = 0
    proposed = accepted = 0
    rate_guess = 0.75
    while filled < size:
        need = size - filled
        batch = max(int(need / rate_guess) + 1, 64)
        u, v = gen.random((2, batch))
        u *= total
        # u picks the piece and the point: [0, flat) the flat top, then the
        # right tail, then the left tail, each by inversion of its cdf
        tail = u >= flat
        side = (u >= flat + area[0]).astype(np.intp)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _trunc_exp((u - flat - area[0] * side) / area[side], rate[side],
                           HALF_PI - edge[side])
            psi = np.where(tail, (1 - 2 * side) * (edge[side] + x), u - edge[1])
            log_envelope = top + np.where(tail, drop[side] - rate[side] * x, 0.0)
            # log(1 - v) is the log of a uniform on (0, 1]; NaN psi never passes
            keep = np.log1p(-v) < _log_cos_tilt(psi, big_k, m) - log_envelope
        got = psi[keep]
        take = min(got.size, need)
        out[filled : filled + take] = got[:take]
        filled += take
        proposed += batch
        accepted += got.size
        if accepted:
            rate_guess = accepted / proposed
    log.debug("tilted half-angle acceptance %.4f (K=%.3g, m=%.3g)", accepted / proposed, big_k, m)
    return out


def sample_lambda_delta(rng: SeededRng, delta: complex, size=None):
    """Exact draw from the tilted circle law (density `lambda_delta_density`).

    Writing the angle as theta = pi + 2 psi, the half-angle psi follows the
    cos-power law with K = Re(delta): a Beta transform for real delta, an
    inverted truncated exponential for Re(delta) = 0, and otherwise a
    rejection step at acceptance about 0.75.  Requires Re(delta) >= 0.
    """
    d = complex(delta)
    if d.real < 0:
        raise ParameterError(f"sampling requires Re(delta) >= 0, got {d}")
    count = 1 if size is None else int(np.prod(size))
    psi = _half_angle(rng.generator, d.real, d.imag, count)
    theta = np.mod(np.pi + 2.0 * psi, TWO_PI)
    out = np.exp(1j * theta)
    if size is None:
        return complex(out[0])
    return out.reshape(size)


def lambda_delta_density(delta: complex, theta):
    """Density of the tilted circle law against the uniform measure d(theta)/2pi."""
    d = complex(delta)
    if not d.real > -0.5:
        raise ParameterError(f"Re(delta) must exceed -1/2, got {d}")
    th = np.asarray(theta, dtype=float)
    c, m = d.real, d.imag
    log_norm = 2.0 * np.real(complex_log_gamma(1.0 + d)) - np.real(
        complex_log_gamma(1.0 + 2.0 * c)
    )
    with np.errstate(divide="ignore"):
        log_tilt = 2.0 * c * np.log(2.0 * np.abs(np.sin(0.5 * th))) + m * (th - np.pi)
    out = np.exp(log_norm + log_tilt)
    return float(out) if np.isscalar(theta) else out


def disk_tilt_norm(a: float, delta: complex) -> float:
    """Normalizing constant c(a, delta) of the disk coefficient density."""
    d = complex(delta)
    log_c = (
        2.0 * np.real(complex_log_gamma(a + 1.0 + d))
        - np.real(complex_log_gamma(a))
        - np.real(complex_log_gamma(a + 1.0 + 2.0 * d.real))
        - np.log(np.pi)
    )
    return float(np.exp(log_c))


def gamma_k_density(spec: DiskDensitySpec, z):
    """Coefficient density on the open unit disk (w.r.t. planar Lebesgue measure).

    The tilt (1-z)^conj(delta) (1-conj(z))^delta is evaluated as
    exp(2 Re(conj(delta) log(1-z))), which is real and positive.
    """
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zz) >= 1.0):
        raise ParameterError("density is defined on |z| < 1 only")
    d = spec.delta
    if d.real < 0 and np.any(np.abs(1.0 - zz) < 1e-6):
        import warnings

        warnings.warn("density has a pole at z = 1 for Re(delta) < 0", RuntimeWarning)
    base = disk_tilt_norm(spec.a, d) * (1.0 - np.abs(zz) ** 2) ** (spec.a - 1.0)
    tilt = np.exp(2.0 * np.real(np.conj(d) * np.log(1.0 - zz)))
    out = base * tilt
    return float(out) if np.isscalar(z) else out


def sample_gamma_k(rng: SeededRng, spec: DiskDensitySpec, size=None, *,
                   envelope: _Envelope | None = None):
    """Exact draw from `gamma_k_density` via the (t, psi) polar factorization.

    Cost is two Beta variates per draw for real delta, independent of the
    parameter size; Im(delta) != 0 draws psi by rejection at acceptance
    about 0.75, against `envelope` when given (the half-angle envelope at
    K = a + Re(delta), m = Im(delta)).  Requires Re(delta) >= 0.
    """
    d = spec.delta
    if d.real < 0:
        raise ParameterError(f"sampling requires Re(delta) >= 0, got {d}")
    a, c, m = spec.a, d.real, d.imag
    count = 1 if size is None else int(np.prod(size))
    gen = rng.generator
    t = gen.beta(a + 2.0 * c + 1.0, a, size=count)
    psi = _half_angle(gen, a + c, m, count, envelope)
    z = 1.0 - 2.0 * t * np.cos(psi) * np.exp(1j * psi)
    # Beta draws can land on the boundary in extreme parameter regimes; redraw.
    bad = np.abs(z) >= 1.0
    while np.any(bad):
        nbad = int(bad.sum())
        t_new = gen.beta(a + 2.0 * c + 1.0, a, size=nbad)
        psi_new = _half_angle(gen, a + c, m, nbad, envelope)
        z[bad] = 1.0 - 2.0 * t_new * np.cos(psi_new) * np.exp(1j * psi_new)
        bad = np.abs(z) >= 1.0
    if size is None:
        return complex(z[0])
    return z.reshape(size)


def sample_eta(rng: SeededRng, params: EnsembleParams) -> DeformedCoeffs:
    """One vector of independent deformed coefficients for the ensemble.

    Coefficient k < n-1 follows the disk law with radial exponent
    a = (beta/2) (n - k - 1); the last one follows the tilted circle law.
    """
    return DeformedCoeffs(sample_eta_batch(rng, params, 1)[0])


def sample_eta_batch(rng: SeededRng, params: EnsembleParams, count: int) -> np.ndarray:
    """`count` independent coefficient vectors, shape (count, n)."""
    if params.delta.real < 0:
        raise ParameterError(f"sampling requires Re(delta) >= 0, got {params.delta}")
    if count < 1:
        raise ParameterError("count must be >= 1")
    n, bh, d = params.n, params.beta_half, params.delta
    out = np.empty((count, n), dtype=np.complex128)
    envelopes = None
    if d.imag != 0.0:
        # every half-angle envelope of the block in one pass, K = a_k + Re(delta)
        envelopes = _half_angle_envelopes(bh * np.arange(n - 1, 0, -1) + d.real, d.imag)
    for k in range(n - 1):
        spec = DiskDensitySpec(a=bh * (n - k - 1), delta=d)
        envelope = None if envelopes is None else envelopes.row(k)
        out[:, k] = sample_gamma_k(rng, spec, size=count, envelope=envelope)
    out[:, n - 1] = sample_lambda_delta(rng, d, size=count)
    return out
