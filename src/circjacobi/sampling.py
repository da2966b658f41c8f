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
rejection at any parameter size; Im(delta) != 0 adds a rejection step with
acceptance near exp(-pi |Im delta|).

Reproducibility contract: a fixed (seed, stream_id) and call sequence yields
bit-identical output on the same build.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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


def _half_angle(gen: np.random.Generator, big_k: float, m: float, size: int) -> np.ndarray:
    """psi on (-pi/2, pi/2) with density ~ cos(psi)^(2K) * exp(2 m psi).

    sin(psi) of the untilted law is an affine symmetric Beta; the exponential
    tilt is handled by rejection with the global bound exp(pi |m|).
    """
    if m == 0.0:
        u = 2.0 * gen.beta(big_k + 0.5, big_k + 0.5, size=size) - 1.0
        return np.arcsin(u)
    out = np.empty(size, dtype=float)
    filled = 0
    proposed = accepted = 0
    rate_guess = float(np.exp(-np.pi * abs(m)))
    while filled < size:
        need = size - filled
        batch = min(max(int(need / max(rate_guess, 1e-3)), need, 64), 8_000_000)
        u = 2.0 * gen.beta(big_k + 0.5, big_k + 0.5, size=batch) - 1.0
        psi = np.arcsin(u)
        keep = np.log(gen.random(batch)) < 2.0 * m * psi - np.pi * abs(m)
        got = psi[keep]
        take = min(got.size, need)
        out[filled : filled + take] = got[:take]
        filled += take
        proposed += batch
        accepted += int(keep.sum())
        if accepted:
            rate_guess = accepted / proposed
    log.debug("tilted half-angle acceptance %.4f (K=%.3g, m=%.3g)", accepted / proposed, big_k, m)
    return out


def sample_lambda_delta(rng: SeededRng, delta: complex, size=None):
    """Exact draw from the tilted circle law (density `lambda_delta_density`).

    Writing the angle as theta = pi + 2 psi, the half-angle psi follows the
    cos-power law with K = Re(delta), so the draw is a Beta transform plus a
    rejection step only when Im(delta) != 0.  Requires Re(delta) >= 0.
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


def sample_gamma_k(rng: SeededRng, spec: DiskDensitySpec, size=None):
    """Exact draw from `gamma_k_density` via the (t, psi) polar factorization.

    Cost is two Beta variates per draw for real delta, independent of the
    parameter size; Im(delta) != 0 adds the half-angle rejection step.
    Requires Re(delta) >= 0.
    """
    d = spec.delta
    if d.real < 0:
        raise ParameterError(f"sampling requires Re(delta) >= 0, got {d}")
    a, c, m = spec.a, d.real, d.imag
    count = 1 if size is None else int(np.prod(size))
    gen = rng.generator
    t = gen.beta(a + 2.0 * c + 1.0, a, size=count)
    psi = _half_angle(gen, a + c, m, count)
    z = 1.0 - 2.0 * t * np.cos(psi) * np.exp(1j * psi)
    # Beta draws can land on the boundary in extreme parameter regimes; redraw.
    bad = np.abs(z) >= 1.0
    while np.any(bad):
        nbad = int(bad.sum())
        t_new = gen.beta(a + 2.0 * c + 1.0, a, size=nbad)
        psi_new = _half_angle(gen, a + c, m, nbad)
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
    n, bh = params.n, params.beta_half
    out = np.empty((count, n), dtype=np.complex128)
    for k in range(n - 1):
        spec = DiskDensitySpec(a=bh * (n - k - 1), delta=params.delta)
        out[:, k] = sample_gamma_k(rng, spec, size=count)
    out[:, n - 1] = sample_lambda_delta(rng, params.delta, size=count)
    return out
