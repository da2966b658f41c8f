"""Unitary matrix models and spectral-measure extraction.

Three equivalent dense constructions of the same unitary matrix are provided:
the Hessenberg form written directly from the plain coefficients, the product
of embedded 2x2 rotation-like blocks, and the product of n elementary
reflections parameterized by the deformed coefficients.  A pentadiagonal
form (alternating block product) is available as well.  Spectra and spectral
measures come from a dense complex Schur decomposition, which keeps the
eigenvector frame orthonormal so the weights of a cyclic vector always sum
to one.  `sample_cj_spectra` draws, builds and eigensolves a whole block of
spectra per call with stacked NumPy operations (stacked `eig` for small n).
The one-spectrum path (`sample_cj_spectrum`) shares its build and every check
and differs only in its Schur eigensolve, the reference for the batched one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy

from . import tolerances as tol
from .errors import (
    ConvergenceError,
    DegenerateCoefficientError,
    InvariantError,
    NonCyclicVectorError,
    ParameterError,
)
from .opuc import (
    TWO_PI,
    DeformedCoeffs,
    EnsembleParams,
    SpectralMeasure,
    VerblunskyCoeffs,
    check_coefficient_rows,
    min_atom_gap,
)
from .sampling import SeededRng, sample_eta, sample_eta_batch

__all__ = [
    "DenseUnitary",
    "EigenDecomposition",
    "ggt_from_alpha",
    "agr_product",
    "reflection_product",
    "cmv_from_alpha",
    "eigen_unitary",
    "spectral_measure",
    "sample_cj_matrix",
    "sample_cj_spectrum",
    "spectra_from_gammas",
    "sample_cj_spectra",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
]

log = logging.getLogger(__name__)

# matrix entries held by one stacked linear-algebra call of
# `spectra_from_gammas`; blocks are split into chunks of at most this many
# (one matrix at least), which bounds the working set, not the output
BATCH_ENTRY_BUDGET = 2**15

# from this dimension on, `spectra_from_gammas` runs one Schur decomposition
# per matrix instead of stacked `eig`: eig's eigenvector back-substitution
# then costs more (about 12% at n = 400), and a Python call per matrix no
# longer shows
SCHUR_MIN_N = 64


@dataclass(frozen=True, eq=False)
class DenseUnitary:
    """Dense complex matrix together with its recorded unitarity residual."""

    entries: np.ndarray
    unitarity_residual: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, m) -> "DenseUnitary":
        arr = np.asarray(m, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvariantError(f"expected a square matrix, got shape {arr.shape}")
        arr = arr.copy()
        residual = _unitarity_residual(arr)
        arr.setflags(write=False)
        return cls(arr, residual)


def _unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |U^H U - Id| over a matrix or a stack (last two axes).

    Raises `InvariantError` when it exceeds `STRUCTURAL_TOL` or is not finite.
    """
    gram = np.matmul(u.conj().swapaxes(-1, -2), u)
    diag = np.arange(u.shape[-1])
    gram[..., diag, diag] -= 1.0
    residual = float(np.abs(gram).max())
    if not residual <= tol.STRUCTURAL_TOL:
        raise InvariantError(
            f"unitarity residual {residual:.3e} exceeds {tol.STRUCTURAL_TOL:.1e}"
        )
    return residual


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Unimodular eigenvalues sorted by angle and an orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def angles(self) -> np.ndarray:
        return np.mod(np.angle(self.eigenvalues), TWO_PI)


def _rho(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(1.0 - np.abs(values) ** 2, 0.0, None))


def ggt_from_alpha(coeffs: VerblunskyCoeffs, *, _alpha_init: complex = -1.0) -> DenseUnitary:
    """Hessenberg matrix of multiplication by z in the orthonormal basis.

    Row i carries entries -alpha_{i-1} conj(alpha_j) prod_{p=i}^{j-1} rho_p
    above and on the diagonal (alpha_{-1} = -1), rho_j on the subdiagonal,
    zeros below.  `_alpha_init` exists only as a fault-injection hook for the
    verification harness; leave it at -1.
    """
    a = coeffs.alphas
    n = a.size
    rho = _rho(a)
    h = np.zeros((n, n), dtype=np.complex128)
    a_ext = np.concatenate(([complex(_alpha_init)], a))
    for i in range(n):
        # prod_{p=i}^{j-1} rho_p accumulated left to right along the row
        tail = np.concatenate(([1.0], np.cumprod(rho[i : n - 1])))
        h[i, i:] = -a_ext[i] * np.conj(a[i:]) * tail[: n - i]
        if i >= 1:
            h[i, i - 1] = rho[i - 1]
    return DenseUnitary.from_entries(h)


def _apply_block_columns(u: np.ndarray, k: int, block) -> None:
    """u <- u @ (Id_k + block at rows/cols (k, k+1) + Id); touches two columns.

    `u` may be a stack of shape (count, n, n); `block[i][j]` then holds the
    entries of the count blocks.
    """
    b = np.asarray(block)[..., None]
    c0 = u[..., :, k].copy()
    c1 = u[..., :, k + 1]
    u[..., :, k] = c0 * b[0, 0] + c1 * b[1, 0]
    u[..., :, k + 1] = c0 * b[0, 1] + c1 * b[1, 1]


def _theta_block(alpha: complex) -> np.ndarray:
    r = np.sqrt(max(1.0 - abs(alpha) ** 2, 0.0))
    return np.array([[np.conj(alpha), r], [r, -alpha]], dtype=np.complex128)


def agr_product(coeffs: VerblunskyCoeffs) -> DenseUnitary:
    """Product of embedded 2x2 blocks; equals `ggt_from_alpha` entrywise."""
    a = coeffs.alphas
    n = a.size
    u = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        _apply_block_columns(u, k, _theta_block(a[k]))
    u[:, n - 1] *= np.conj(a[n - 1])
    return DenseUnitary.from_entries(u)


def _check_reflection_phases(gammas: np.ndarray) -> None:
    """Raise if an interior coefficient equals 1; the last axis indexes the coefficients."""
    bad = np.nonzero(np.abs(1.0 - gammas) < tol.DEGENERATE_PHASE_TOL)[-1]
    if bad.size:
        raise DegenerateCoefficientError(
            f"coefficient {bad.min()} equals 1; reflection phase undefined"
        )


def _xi_block(gamma) -> np.ndarray:
    """Reflection blocks of interior coefficients, shape (2, 2) + np.shape(gamma)."""
    phase = (1.0 - gamma) / (1.0 - np.conj(gamma))
    r = np.sqrt(np.clip(1.0 - np.abs(gamma) ** 2, 0.0, None))
    return np.array(
        [[gamma, r * phase], [r, -np.conj(gamma) * phase]], dtype=np.complex128
    )


def reflection_product(coeffs: DeformedCoeffs) -> DenseUnitary:
    """Product of n elementary reflections built from the deformed coefficients.

    Each embedded factor differs from the identity by a rank-one map (its
    spectrum is {1, -phase}); the final factor scales the last coordinate by
    the unimodular last coefficient, renormalized onto the circle.
    """
    return DenseUnitary.from_entries(_reflection_stack(coeffs.gammas[None, :])[0])


def cmv_from_alpha(coeffs: VerblunskyCoeffs) -> DenseUnitary:
    """Pentadiagonal model: product of the even-index and odd-index block stacks.

    Same spectrum and spectral measure as the Hessenberg form; entries at
    distance > 2 from the diagonal vanish.
    """
    a = coeffs.alphas
    n = a.size
    lmat = np.eye(n, dtype=np.complex128)
    mmat = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        target = lmat if k % 2 == 0 else mmat
        target[k : k + 2, k : k + 2] = _theta_block(a[k])
    target = lmat if (n - 1) % 2 == 0 else mmat
    target[n - 1, n - 1] = np.conj(a[n - 1])
    return DenseUnitary.from_entries(lmat @ mmat)


def eigen_unitary(u: DenseUnitary) -> EigenDecomposition:
    """Full eigendecomposition of a unitary matrix.

    Uses a dense complex Schur decomposition; for a (numerically) unitary
    input the Schur factor is diagonal, so the Schur basis is an orthonormal
    eigenbasis.  Eigenvalues are sorted by angle in [0, 2pi), ties broken by
    first-coordinate weight, descending.
    """
    try:
        t, q = scipy.linalg.schur(u.entries, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - budget exhaustion
        raise ConvergenceError(f"Schur iteration failed: {exc}") from exc
    lam = np.diag(t).copy()
    n = u.n
    off = float(np.max(np.abs(t - np.diag(lam)))) if n > 1 else 0.0
    if not off <= tol.EIGEN_RESIDUAL_TOL * max(n, 10):
        raise ConvergenceError(f"Schur factor not diagonal (off-diagonal {off:.2e})")
    _check_eigenpairs(u.entries, lam, q)
    _, _, order = _angle_order(lam, q)
    lam = lam[order]
    q = q[:, order]
    lam.setflags(write=False)
    q.setflags(write=False)
    return EigenDecomposition(lam, q)


def spectral_measure(u: DenseUnitary) -> SpectralMeasure:
    """Spectral measure of (U, e_1): eigenangles weighted by |<e_1, v_j>|^2."""
    dec = eigen_unitary(u)
    thetas, weights = _measure_rows(dec.eigenvalues[None], dec.eigenvectors[None])
    return SpectralMeasure(thetas[0], weights[0])


def sample_cj_matrix(rng: SeededRng, params: EnsembleParams) -> DenseUnitary:
    """Random unitary with circular-Jacobi distributed eigenvalues."""
    return reflection_product(sample_eta(rng, params))


def sample_cj_spectrum(rng: SeededRng, params: EnsembleParams) -> SpectralMeasure:
    """Spectral measure of a sampled matrix: tilted angles, Dirichlet weights."""
    return spectral_measure(sample_cj_matrix(rng, params))


def _reflection_stack(gammas: np.ndarray) -> np.ndarray:
    """`reflection_product` of every coefficient row, shape (count, n, n).

    Checks the reflection phases; the rows must otherwise be valid
    coefficient sequences.
    """
    _check_reflection_phases(gammas[:, :-1])
    count, n = gammas.shape
    u = np.zeros((count, n, n), dtype=np.complex128)
    u[:, np.arange(n), np.arange(n)] = 1.0
    blocks = _xi_block(gammas[:, :-1])
    for k in range(n - 1):
        _apply_block_columns(u, k, blocks[..., k])
    last = gammas[:, -1]
    correction = np.abs(np.abs(last) - 1.0)
    if correction.any():
        log.debug(
            "renormalizing last coefficient onto the circle in %d of %d rows (worst off by %.2e)",
            np.count_nonzero(correction), count, correction.max(),
        )
    u[:, :, n - 1] *= (last / np.abs(last))[:, None]
    return u


def _eigenpairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of each matrix of a unitary stack (count, n, n).

    Below `SCHUR_MIN_N`, one stacked `np.linalg.eig` call; from it on, the
    Schur vectors of each matrix, which are its eigenvectors when the Schur
    factor is diagonal (the caller's eigenpair residual check).
    """
    try:
        if u.shape[-1] < SCHUR_MIN_N:
            return np.linalg.eig(u)
        pairs = [scipy.linalg.schur(m, output="complex") for m in u]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - budget exhaustion
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return np.array([np.diag(t) for t, _ in pairs]), np.array([q for _, q in pairs])


def _check_eigenpairs(u: np.ndarray, lam: np.ndarray, vec: np.ndarray) -> None:
    """Raise `ConvergenceError` unless the eigenpairs of a matrix or a stack hold.

    Each eigenvalue `lam` (..., n) must be unimodular and each unit
    eigenvector, a column of `vec` (..., n, n), must have a small residual.
    """
    drift = float(np.max(np.abs(np.abs(lam) - 1.0)))
    if not drift <= tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError("computed eigenvalues drifted off the unit circle")
    residual = float(np.linalg.norm(u @ vec - vec * lam[..., None, :], axis=-2).max())
    if not residual <= tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {residual:.2e} exceeds {tol.EIGEN_RESIDUAL_TOL:.1e}"
        )


def _angle_order(lam: np.ndarray, vec: np.ndarray):
    """Angles in [0, 2pi), weights |v_j[0]|^2 and the order of the eigenpairs of each row.

    The order is by angle, ties broken by the larger weight.
    """
    angles = np.mod(np.angle(lam), TWO_PI)
    w = np.abs(vec[..., 0, :]) ** 2
    return angles, w, np.lexsort((-w, angles), axis=-1)


def _measure_rows(lam: np.ndarray, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measures at e_1 of the eigenpairs of each row of a stack.

    `lam` (count, n) and unit eigenvectors `vec` (count, n, n).  The weights
    |v_j[0]|^2 must clear the cyclicity floor and sum to 1, and the atoms
    must be distinct.  Returns (thetas, weights), each (count, n), in the
    order of `_angle_order`.
    """
    angles, w, order = _angle_order(lam, vec)
    if not np.all(w >= tol.WEIGHT_FLOOR):
        raise NonCyclicVectorError(
            f"weight {w.min():.2e} below cyclicity floor {tol.WEIGHT_FLOOR:.0e}"
        )
    s = w.sum(axis=1, keepdims=True)
    worst = float(np.max(np.abs(s - 1.0)))
    if not worst <= tol.STRUCTURAL_TOL:
        raise InvariantError(f"weights sum to 1 only within {worst:.3e}")
    # the second reduction maps an angle that rounded up to 2pi back to 0, as
    # `SpectralMeasure` does
    thetas = np.mod(np.take_along_axis(angles, order, axis=-1), TWO_PI)
    weights = np.take_along_axis(w / s, order, axis=-1)
    if thetas.shape[-1] > 1 and not np.all(min_atom_gap(thetas) > tol.ATOM_GAP_TOL):
        raise InvariantError("atoms must be pairwise distinct on the circle")
    return thetas, weights


def spectra_from_gammas(gammas) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measures of the reflection products of coefficient rows.

    `gammas` has shape (count, n); each row is validated as `DeformedCoeffs`.
    Returns (thetas, weights), each (count, n): row i holds the angles in
    [0, 2pi), ascending with ties broken by larger weight, and the weights of
    what `spectral_measure(reflection_product(DeformedCoeffs(gammas[i])))`
    computes, up to rounding.  The linear algebra runs in chunks of at most
    `BATCH_ENTRY_BUDGET` matrix entries; the result does not depend on them.
    """
    g = np.asarray(gammas, dtype=np.complex128)
    if g.ndim != 2:
        raise InvariantError(f"expected coefficient rows of shape (count, n), got {g.shape}")
    check_coefficient_rows(g)
    count, n = g.shape
    thetas = np.empty((count, n))
    weights = np.empty((count, n))
    step = max(1, BATCH_ENTRY_BUDGET // (n * n))
    for lo in range(0, count, step):
        u = _reflection_stack(g[lo : lo + step])
        _unitarity_residual(u)
        lam, vec = _eigenpairs(u)
        _check_eigenpairs(u, lam, vec)
        thetas[lo : lo + step], weights[lo : lo + step] = _measure_rows(lam, vec)
    return thetas, weights


def sample_cj_spectra(
    rng: SeededRng, params: EnsembleParams, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """`count` independent spectra: (thetas, weights), each of shape (count, n).

    Same law as `count` calls of `sample_cj_spectrum`, but one
    `sample_eta_batch` call draws all coefficients, so for a fixed seed the
    draws differ from the one-at-a-time path.
    """
    return spectra_from_gammas(sample_eta_batch(rng, params, count))


def matrix_to_json_dict(u: DenseUnitary, **metadata) -> dict:
    """Row-major [re, im] dump with metadata, for the command-line harness."""
    entries = [
        [[float(v.real), float(v.imag)] for v in row] for row in np.asarray(u.entries)
    ]
    out = {
        "n": u.n,
        "unitarity_residual": u.unitarity_residual,
        "entries": entries,
    }
    out.update(metadata)
    return out


def matrix_from_json_dict(data: dict) -> DenseUnitary:
    """Inverse of `matrix_to_json_dict` (metadata ignored)."""
    arr = np.asarray(data["entries"], dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParameterError("expected entries as a matrix of [re, im] pairs")
    return DenseUnitary.from_entries(arr[..., 0] + 1j * arr[..., 1])
