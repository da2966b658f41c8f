"""Deterministic machinery for orthogonal polynomials on the unit circle.

A probability measure supported at n points of the circle is encoded by its
monic orthogonal polynomials Phi_0, ..., Phi_n, whose recursion is driven by
n coefficients: alpha_0, ..., alpha_{n-2} in the open unit disk and
alpha_{n-1} on the circle.  This module provides

* the Szego recursion Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi_k*(z) in
  one layout: row k of an (n + 1)-row array holds degree k, as coefficients
  (`szego_polynomials`) or as values at an array of points (`szego_values`),
* the reflection phases (1 - gamma) / (1 - conj(gamma)) and, built on them,
  the bijection between the plain coefficients (alpha_k) and the deformed
  coefficients (gamma_k), which share the same moduli but multiply out the
  characteristic polynomial at 1,
* the coefficient functions z -> gamma_k(z) that factor Phi_k pointwise,
* extraction of coefficients from a discrete measure (isometric Arnoldi),
  and the Caratheodory/Schur transforms of a measure.

Everything here is pure and deterministic; randomness lives in `sampling`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DegenerateCoefficientError,
    InvariantError,
    NumericDegeneracyError,
    ParameterError,
    PoleError,
)

__all__ = [
    "EnsembleParams",
    "law_tilt",
    "nonnegative_tilt",
    "circle_angles",
    "VerblunskyCoeffs",
    "DeformedCoeffs",
    "SpectralMeasure",
    "szego_polynomials",
    "szego_values",
    "reflection_phases",
    "gamma_from_alpha",
    "alpha_from_gamma",
    "gamma_rows",
    "alpha_rows",
    "check_coefficient_rows",
    "check_atom_rows",
    "gamma_functions_at",
    "char_poly_at_one",
    "min_atom_gap",
    "verblunsky_from_measure",
    "caratheodory_schur",
    "coeffs_to_pairs",
    "coeffs_from_pairs",
]

TWO_PI = 2.0 * np.pi


def circle_angles(x) -> np.ndarray:
    """Angles reduced to [0, 2pi): `x` mod 2pi, with a value that rounds up to 2pi mapped to 0."""
    th = np.mod(x, TWO_PI)
    return np.where(th == TWO_PI, 0.0, th)


def law_tilt(delta) -> complex:
    """`delta` as a complex, checked to lie in the law's domain: finite, Re(delta) > -1/2."""
    d = complex(delta)
    if not (np.isfinite(d) and d.real > -0.5):
        raise ParameterError(f"delta must be finite with Re(delta) > -1/2, got {d}")
    return d


def nonnegative_tilt(delta) -> complex:
    """A tilt as a complex, checked finite with Re >= 0: the domain of exact sampling of
    delta and of the limit regime of d, delta = (beta/2) n d."""
    d = complex(delta)
    if not (np.isfinite(d) and d.real >= 0):
        raise ParameterError(f"sampling and the limit regime need a finite tilt with Re >= 0, "
                             f"got {d}")
    return d


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble size n, inverse temperature beta > 0 and tilt exponent delta.

    The tilt reweights the eigenvalue law by |det(Id - U)|-type factors.
    `delta` lies in the law's domain (`law_tilt`); exact sampling also
    needs Re(delta) >= 0 (`nonnegative_tilt`).
    """

    n: int
    beta: float
    delta: complex = 0j

    def __post_init__(self):
        if not (1 <= self.n < np.inf and int(self.n) == self.n):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not 0 < self.beta < np.inf:
            raise ParameterError(f"beta must be finite and > 0, got {self.beta!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "delta", law_tilt(self.delta))

    @property
    def beta_half(self) -> float:
        return 0.5 * self.beta

    @property
    def radial_exponents(self) -> np.ndarray:
        """a_k = (beta/2) (n - k - 1) of coefficient k's law; a_{n-1} = 0, the circle law."""
        return self.beta_half * np.arange(self.n - 1, -1, -1.0)


def check_coefficient_rows(arr: np.ndarray) -> None:
    """Raise `InvariantError` unless every row (last axis) of `arr` is a coefficient sequence.

    Entries are finite; interior entries lie strictly inside the unit disk;
    the last entry is unimodular within `UNIT_MODULUS_TOL`.
    """
    if arr.shape[-1] < 1:
        raise InvariantError("coefficient sequence must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise InvariantError("coefficients must be finite")
    mods = np.abs(arr)
    if np.any(mods[..., :-1] >= 1.0):
        raise InvariantError("interior coefficients must lie strictly inside the unit disk")
    off = np.abs(mods[..., -1] - 1.0)
    if np.any(off > tol.UNIT_MODULUS_TOL):
        raise InvariantError(
            f"last coefficient must be unimodular within {tol.UNIT_MODULUS_TOL:g}, "
            f"got modulus {mods[..., -1].flat[np.argmax(off)]!r}"
        )


def _coefficient_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    check_coefficient_rows(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class VerblunskyCoeffs:
    """Plain recursion coefficients: (alpha_0,...,alpha_{n-2}) in D, alpha_{n-1} on T."""

    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", _coefficient_vector(self.alphas))

    @property
    def n(self) -> int:
        return self.alphas.size


@dataclass(frozen=True, eq=False)
class DeformedCoeffs:
    """Deformed coefficients: same modulus pattern as the plain ones.

    Under the coefficient bijection |gamma_k| == |alpha_k| for every k, and
    prod(1 - gamma_k) is the characteristic polynomial of the associated
    unitary matrix evaluated at 1.
    """

    gammas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", _coefficient_vector(self.gammas))

    @property
    def n(self) -> int:
        return self.gammas.size


def min_atom_gap(thetas: np.ndarray) -> np.ndarray:
    """Smallest circular gap between the atoms of each row (last axis), angles in [0, 2pi)."""
    th = np.sort(thetas, axis=-1)
    circular = TWO_PI - (th[..., -1] - th[..., 0])
    return np.minimum(np.diff(th, axis=-1).min(axis=-1), circular)


def check_atom_rows(thetas: np.ndarray, weights: np.ndarray) -> None:
    """Raise `InvariantError` unless every row (last axis) is an atomic probability measure:
    finite angles and weights, weights > 0 that sum to 1 within `STRUCTURAL_TOL`, and atoms
    more than `ATOM_GAP_TOL` apart on the circle."""
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(weights))):
        raise InvariantError("thetas and weights must be finite")
    if np.any(weights <= 0.0):
        raise InvariantError("all weights must be positive")
    worst = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))
    if not worst <= tol.STRUCTURAL_TOL:
        raise InvariantError(f"weights sum to 1 only within {worst:.3e}")
    gaps = min_atom_gap(circle_angles(thetas)) if thetas.shape[-1] > 1 else np.inf
    if not np.all(gaps > tol.ATOM_GAP_TOL):
        raise InvariantError("atoms must be pairwise distinct on the circle")


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Atomic probability measure sum_j weights[j] * delta(theta_j) on the circle."""

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float).reshape(-1)
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if th.size != w.size or th.size < 1:
            raise InvariantError("thetas and weights must have equal positive length")
        check_atom_rows(th, w)
        th = circle_angles(th)
        th.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.thetas.size

    def atoms(self) -> np.ndarray:
        """Atom positions as points on the unit circle."""
        return np.exp(1j * self.thetas)

    def moment(self, k: int) -> complex:
        """k-th trigonometric moment, integral of z^k against the measure."""
        return complex(np.sum(self.weights * np.exp(1j * k * self.thetas)))


def _alpha_array(coeffs) -> np.ndarray:
    if isinstance(coeffs, VerblunskyCoeffs):
        return coeffs.alphas
    return np.asarray(coeffs, dtype=np.complex128).reshape(-1)


def szego_polynomials(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of Phi_k and Phi_k*, k = 0..n: two (n + 1, n + 1) arrays.

    Row k holds the ascending coefficients of degree k, zero above degree k,
    so `polyval(z, phi.T)` has the (n + 1, *z.shape) layout of `szego_values`.
    Row k + 1 is row k shifted up one degree minus conj(alpha_k) times star
    row k, with its leading coefficient pinned to exactly 1; each star row is
    the conjugate of its row reversed, the coefficient form of
    Phi_k*(z) = z^k conj(Phi_k(1/conj(z))).
    """
    alphas = _alpha_array(coeffs)
    mods = np.abs(alphas)
    if np.any(mods > 1.0 + tol.UNIT_MODULUS_TOL):
        raise ParameterError(f"|alpha| must be <= 1, got {float(mods.max())!r}")
    phi = np.zeros((alphas.size + 1, alphas.size + 1), dtype=np.complex128)
    phi_star = np.zeros_like(phi)
    phi[0, 0] = phi_star[0, 0] = 1.0
    for k, a in enumerate(alphas):
        row = phi[k + 1, : k + 2]
        row[1:] = phi[k, : k + 1]
        row -= np.conj(a) * phi_star[k, : k + 2]
        row[-1] = 1.0
        phi_star[k + 1, : k + 2] = np.conj(row[::-1])
    return phi, phi_star


def _reflection_phase(gammas):
    """(1 - gamma) / (1 - conj(gamma)), unchecked."""
    return (1.0 - gammas) / (1.0 - gammas.conjugate())


def reflection_phases(gammas) -> np.ndarray:
    """Phases (1 - gamma) / (1 - conj(gamma)) of interior coefficients, any shape.

    The last axis indexes the coefficients.  Raises
    `DegenerateCoefficientError` naming the first index along it where a
    coefficient equals 1 within `DEGENERATE_PHASE_TOL`.
    """
    g = np.asarray(gammas, dtype=np.complex128)
    bad = np.abs(1.0 - g) < tol.DEGENERATE_PHASE_TOL
    if np.count_nonzero(bad):
        index = np.nonzero(np.atleast_1d(bad))[-1].min()
        raise DegenerateCoefficientError(
            f"coefficient {index} equals 1; reflection phase undefined"
        )
    return _reflection_phase(g)


def gamma_rows(alphas) -> np.ndarray:
    """Deformed coefficients of plain coefficient rows (last axis), any leading shape:
    gamma_k = conj(alpha_k) prod_{j<k} conj(phase_j), phase_j the reflection phase of
    gamma_j, one step per index over every row.  Raises as `reflection_phases` does;
    the rows are not otherwise validated."""
    g = np.conj(np.asarray(alphas, dtype=np.complex128))
    phase = np.ones(g.shape[:-1], dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        # out-of-place products: an in-place one of length 1 rounds differently
        for k in range(g.shape[-1]):
            g[..., k] = g[..., k] * phase
            phase = phase * _reflection_phase(g[..., k]).conjugate()
    # each row is exact up to its first degenerate gamma, so this names that index
    reflection_phases(g[..., :-1])
    return g


def gamma_from_alpha(coeffs: VerblunskyCoeffs) -> DeformedCoeffs:
    """Map plain coefficients to deformed ones: the one-row case of `gamma_rows`.
    Moduli are preserved, so validity of the input gives validity of the output."""
    return DeformedCoeffs(gamma_rows(coeffs.alphas[None])[0])


def alpha_rows(gammas) -> np.ndarray:
    """Plain coefficients of deformed coefficient rows (last axis), any leading shape:
    alpha_k = conj(gamma_k) prod_{j<k} conj(phase_j), phase_j the reflection phase of
    gamma_j, one `cumprod` along the rows.  Raises as `reflection_phases` does; the
    rows are not otherwise validated."""
    g = np.asarray(gammas, dtype=np.complex128)
    phases = np.cumprod(np.conj(reflection_phases(g[..., :-1])), axis=-1)
    ones = np.ones((*g.shape[:-1], 1), dtype=np.complex128)
    return np.conj(g) * np.concatenate((ones, phases), axis=-1)


def alpha_from_gamma(coeffs: DeformedCoeffs) -> VerblunskyCoeffs:
    """Exact inverse of `gamma_from_alpha`: the one-row case of `alpha_rows`."""
    return VerblunskyCoeffs(alpha_rows(coeffs.gammas))


def szego_values(coeffs, z) -> tuple[np.ndarray, np.ndarray]:
    """Values Phi_k(z) and Phi_k*(z), k = 0..n, at every point of z.

    Runs the value recursion Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi_k*(z),
    Phi_{k+1}*(z) = Phi_k*(z) - alpha_k z Phi_k(z) on the whole array of points
    at once.  Returns two arrays of shape (n + 1, *z.shape); row k holds the
    degree-k values.
    """
    alphas = _alpha_array(coeffs)
    z = np.asarray(z, dtype=np.complex128)
    phi = np.empty((alphas.size + 1, *z.shape), dtype=np.complex128)
    phi_star = np.empty_like(phi)
    phi[0] = phi_star[0] = 1.0
    for k, a in enumerate(alphas):
        phi[k + 1] = z * phi[k] - np.conj(a) * phi_star[k]
        phi_star[k + 1] = phi_star[k] - a * z * phi[k]
    return phi, phi_star


def gamma_functions_at(coeffs: VerblunskyCoeffs, z) -> np.ndarray:
    """Coefficient functions gamma_k(z) = z - Phi_{k+1}(z)/Phi_k(z), k = 0..n-1.

    `z` is a point or an array of points; the result has shape
    (*z.shape, n), and its entry at a point equals the call at that point
    alone.  The values come from `szego_values` in the form
    gamma_k(z) = conj(alpha_k) Phi_k*(z)/Phi_k(z).  Requires Phi_k(z) != 0
    for k < n at every point (else `PoleError`, naming the first such point
    and its smallest k); at unit modulus |gamma_k(z)| = |alpha_k|, and at
    z = 1 this reduces to `gamma_from_alpha`.
    """
    alphas = _alpha_array(coeffs)
    z = np.asarray(z, dtype=np.complex128)
    phi, phi_star = szego_values(alphas[:-1], z.reshape(-1))
    poles = np.abs(phi) < tol.POLE_TOL
    if poles.any():
        j = int(np.argmax(poles.any(axis=0)))
        k = int(np.argmax(poles[:, j]))
        raise PoleError(f"Phi_{k}(z) vanishes at z={complex(z.flat[j])}; gamma_{k}(z) has a pole")
    gammas = np.conj(alphas)[:, None] * phi_star / phi
    return gammas.T.reshape(*z.shape, alphas.size)


def char_poly_at_one(coeffs: DeformedCoeffs) -> complex:
    """det(Id - U) for the unitary matrix built from these coefficients."""
    return complex(np.prod(1.0 - coeffs.gammas))


def _arnoldi_alphas(thetas, weights, count) -> np.ndarray:
    """First `count` coefficients of the measure by the isometric Arnoldi process.

    Runs `count` Arnoldi steps on diag(e^{i theta}) from the unit vector
    sqrt(w), with classical Gram-Schmidt applied twice per step (Gragg 1993).
    The subdiagonal entries are residual norms, real and positive, so the
    Hessenberg matrix is a leading block of the one `ggt_from_alpha` builds.
    Its factors Theta(alpha_k) are then peeled off one at a time: alpha_k =
    conj(h[k, k]) once Theta(alpha_0), ..., Theta(alpha_{k-1}) are divided out
    from the left (Ammar-Gragg-Reichel 1991).
    """
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    q = np.empty((count + 1, z.size), dtype=np.complex128)
    q[0] = np.sqrt(weights)
    q[0] /= np.linalg.norm(q[0])
    h = np.zeros((count + 1, count), dtype=np.complex128)
    for k in range(count):
        v = z * q[k]
        for _ in range(2):
            c = np.conj(q[: k + 1] @ np.conj(v))
            v -= c @ q[: k + 1]
            h[: k + 1, k] += c
        h[k + 1, k] = r = np.linalg.norm(v)
        if not r > 0.0:
            raise NumericDegeneracyError(f"Arnoldi residual {k + 1} vanished; atoms too close")
        q[k + 1] = v / r
    alphas = np.empty(count, dtype=np.complex128)
    for k in range(count):
        a = alphas[k] = np.conj(h[k, k])
        if not abs(a) < 1.0:
            raise NumericDegeneracyError(f"|alpha_{k}| = {abs(a):.17g} rounds onto the circle")
        # rows k, k+1 <- Theta(alpha_k)^H times them
        r = h[k + 1, k].real
        h[k : k + 2, k + 1 :] = np.array([[a, r], [r, -np.conj(a)]]) @ h[k : k + 2, k + 1 :]
    return alphas


def verblunsky_from_measure(measure: SpectralMeasure) -> VerblunskyCoeffs:
    """Recover the n recursion coefficients of an n-atom measure.

    Inverse of spectral-measure extraction: building the matrix model from the
    result and re-extracting the measure reproduces atoms and weights.  The
    interior coefficients come from the isometric Arnoldi process.

    Raises
    ------
    NumericDegeneracyError
        If an Arnoldi residual vanishes or an interior coefficient rounds onto
        the unit circle, which happens for nearly coincident atoms.
    """
    n = measure.n
    alphas = np.empty(n, dtype=np.complex128)
    alphas[: n - 1] = _arnoldi_alphas(measure.thetas, measure.weights, n - 1)
    # Phi_n is the node polynomial prod_j (z - z_j), so its constant term is
    # exact: conj(alpha_{n-1}) = -Phi_n(0) = -prod_j(-z_j).
    last = -np.conj(np.prod(-measure.atoms()))
    alphas[n - 1] = last / abs(last)
    return VerblunskyCoeffs(alphas)


def caratheodory_schur(measure: SpectralMeasure, z: complex) -> tuple[complex, complex]:
    """Caratheodory transform F and Schur function f of the measure at |z| < 1.

    F(z) = sum_j w_j (z_j + z)/(z_j - z) and f(z) = (F(z) - 1)/(z (F(z) + 1));
    f maps the disk to its closure and f(0) equals the first recursion
    coefficient alpha_0 (continuity value at the removable point z = 0).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ParameterError(f"caratheodory_schur requires |z| < 1, got {abs(z)!r}")
    atoms = measure.atoms()
    if np.min(np.abs(atoms - z)) < tol.POLE_TOL:
        raise PoleError("evaluation point collides with an atom")
    if z == 0:
        # F(0) = 1 exactly; the Schur ratio tends to conj(m_1) = alpha_0.
        return 1.0 + 0.0j, np.conj(measure.moment(1))
    big_f = complex(np.sum(measure.weights * (atoms + z) / (atoms - z)))
    schur = (big_f - 1.0) / (z * (big_f + 1.0))
    return big_f, schur


def coeffs_to_pairs(values) -> list[list[float]]:
    """JSON-friendly [re, im] pairs for a complex coefficient sequence."""
    arr = np.asarray(values, dtype=np.complex128).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in arr]


def coeffs_from_pairs(pairs) -> np.ndarray:
    """Inverse of `coeffs_to_pairs`."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("expected a sequence of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]
