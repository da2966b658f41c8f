"""Deterministic machinery for orthogonal polynomials on the unit circle.

A probability measure supported at n points of the circle is encoded by its
monic orthogonal polynomials Phi_0, ..., Phi_n, whose recursion is driven by
n coefficients: alpha_0, ..., alpha_{n-2} in the open unit disk and
alpha_{n-1} on the circle.  This module provides

* the one-step polynomial recursion and its reversed-conjugate companion,
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
from numpy.polynomial import polynomial as npoly

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
    "VerblunskyCoeffs",
    "DeformedCoeffs",
    "SpectralMeasure",
    "MonicPolyPair",
    "szego_step",
    "szego_polynomials",
    "szego_values",
    "reflection_phases",
    "gamma_from_alpha",
    "alpha_from_gamma",
    "alpha_rows",
    "check_coefficient_rows",
    "gamma_functions_at",
    "char_poly_at_one",
    "min_atom_gap",
    "verblunsky_from_measure",
    "caratheodory_schur",
    "coeffs_to_pairs",
    "coeffs_from_pairs",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble size n, inverse temperature beta > 0 and tilt exponent delta.

    The tilt rewheights the eigenvalue law by |det(Id - U)|-type factors;
    densities exist for Re(delta) > -1/2, while exact sampling additionally
    requires Re(delta) >= 0 (see `sampling`).
    """

    n: int
    beta: float
    delta: complex = 0j

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not 0 < self.beta < np.inf:
            raise ParameterError(f"beta must be finite and > 0, got {self.beta!r}")
        d = complex(self.delta)
        if not (np.isfinite(d) and d.real > -0.5):
            raise ParameterError(f"delta must be finite with Re(delta) > -1/2, got {d}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "delta", d)

    @property
    def beta_half(self) -> float:
        return 0.5 * self.beta


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
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(w))):
            raise InvariantError("thetas and weights must be finite")
        th = np.mod(th, TWO_PI)
        if np.any(w <= 0.0):
            raise InvariantError("all weights must be positive")
        s = w.sum()
        if abs(s - 1.0) > tol.STRUCTURAL_TOL:
            raise InvariantError(f"weights must sum to 1 within {tol.STRUCTURAL_TOL:g}, got {s!r}")
        if th.size > 1 and min_atom_gap(th) <= tol.ATOM_GAP_TOL:
            raise InvariantError("atoms must be pairwise distinct on the circle")
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


@dataclass(frozen=True, eq=False)
class MonicPolyPair:
    """A monic polynomial Phi and its reversed conjugate Phi*.

    Coefficients are stored ascending; Phi*[j] = conj(Phi[deg - j]), which is
    the coefficient form of Phi*(z) = z^deg * conj(Phi(1/conj(z))).
    """

    phi: np.ndarray
    phi_star: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=np.complex128).reshape(-1).copy()
        q = np.asarray(self.phi_star, dtype=np.complex128).reshape(-1).copy()
        if p.size != q.size or p.size < 1:
            raise InvariantError("phi and phi_star must have equal positive length")
        if p[-1] != 1.0:
            raise InvariantError("phi must be monic with leading coefficient exactly 1")
        if not np.allclose(q, np.conj(p[::-1]), rtol=0.0, atol=1e-13):
            raise InvariantError("phi_star must be the reversed conjugate of phi")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "phi", p)
        object.__setattr__(self, "phi_star", q)

    @property
    def degree(self) -> int:
        return self.phi.size - 1

    @classmethod
    def one(cls) -> "MonicPolyPair":
        """The degree-zero pair Phi_0 = Phi_0* = 1."""
        return cls(np.ones(1, dtype=np.complex128), np.ones(1, dtype=np.complex128))

    def eval_phi(self, z) -> complex | np.ndarray:
        return npoly.polyval(z, self.phi)

    def eval_phi_star(self, z) -> complex | np.ndarray:
        return npoly.polyval(z, self.phi_star)


def szego_step(pair: MonicPolyPair, alpha: complex) -> MonicPolyPair:
    """Advance the recursion: Phi_{j+1}(z) = z Phi_j(z) - conj(alpha) Phi_j*(z)."""
    alpha = complex(alpha)
    if abs(alpha) > 1.0 + tol.UNIT_MODULUS_TOL:
        raise ParameterError(f"|alpha| must be <= 1, got {abs(alpha)!r}")
    shifted = np.concatenate(([0.0 + 0.0j], pair.phi))
    padded_star = np.concatenate((pair.phi_star, [0.0 + 0.0j]))
    phi_next = shifted - np.conj(alpha) * padded_star
    phi_next[-1] = 1.0  # monic by construction; pin exactly
    return MonicPolyPair(phi_next, np.conj(phi_next[::-1]))


def _alpha_array(coeffs) -> np.ndarray:
    if isinstance(coeffs, VerblunskyCoeffs):
        return coeffs.alphas
    return np.asarray(coeffs, dtype=np.complex128).reshape(-1)


def szego_polynomials(coeffs) -> list[MonicPolyPair]:
    """All pairs (Phi_0, Phi_0*), ..., (Phi_n, Phi_n*) for the given coefficients."""
    alphas = _alpha_array(coeffs)
    chain = [MonicPolyPair.one()]
    for a in alphas:
        chain.append(szego_step(chain[-1], a))
    return chain


def _reflection_phase(gammas):
    """(1 - gamma) / (1 - conj(gamma)), the same arithmetic for arrays and NumPy scalars."""
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


def gamma_from_alpha(coeffs: VerblunskyCoeffs) -> DeformedCoeffs:
    """Map plain coefficients to deformed ones.

    gamma_0 = conj(alpha_0) and for k >= 1
    gamma_k = conj(alpha_k) * prod_{j<k} conj(phase_j), phase_j the reflection
    phase of gamma_j.  Moduli are preserved, so validity of the input gives
    validity of the output.
    """
    conj_alphas = np.conj(coeffs.alphas)
    gammas = []
    phase = 1.0 + 0.0j
    # NumPy scalar steps: the same arithmetic as the arrays of `reflection_phases`
    with np.errstate(divide="ignore", invalid="ignore"):
        for conj_alpha in conj_alphas[:-1]:
            gamma = conj_alpha * phase
            gammas.append(gamma)
            phase *= _reflection_phase(gamma).conjugate()
    gammas.append(conj_alphas[-1] * phase)
    # every gamma up to the first degenerate one is exact, so this names the
    # same index as a check at each step would
    reflection_phases(gammas[:-1])
    return DeformedCoeffs(np.array(gammas))


def alpha_rows(gammas) -> np.ndarray:
    """Plain coefficients of deformed coefficient rows (last axis), any leading shape.

    alpha_0 = conj(gamma_0) and alpha_k = conj(gamma_k) prod_{j<k} conj(phase_j),
    phase_j the reflection phase of gamma_j: one `cumprod` along the rows.
    Raises as `reflection_phases` does; the rows are not otherwise validated.
    """
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
