"""Unitary matrix models and spectral-measure extraction.

Three equivalent dense constructions of the same unitary matrix are provided:
the Hessenberg form written directly from the plain coefficients, the product
of embedded 2x2 rotation-like blocks, and the product of n elementary
reflections parameterized by the deformed coefficients.  A pentadiagonal
form (alternating block product) is available as well.  Spectra and spectral
measures come from a dense complex Schur decomposition, which keeps the
eigenvector frame orthonormal so the weights of a cyclic vector always sum
to one.  `sample_cj_spectra` draws, builds and eigensolves a whole block of
spectra per call with stacked NumPy operations (stacked `eig` for small n);
the single-sample Schur path (`sample_cj_spectrum`) is its reference.
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
    def from_entries(cls, m, *, residual_tol: float = tol.STRUCTURAL_TOL) -> "DenseUnitary":
        arr = np.asarray(m, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvariantError(f"expected a square matrix, got shape {arr.shape}")
        arr = arr.copy()
        gram = arr.conj().T @ arr
        residual = float(np.max(np.abs(gram - np.eye(arr.shape[0]))))
        if residual > residual_tol:
            raise InvariantError(
                f"unitarity residual {residual:.3e} exceeds {residual_tol:.1e}"
            )
        arr.setflags(write=False)
        return cls(arr, residual)


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
    """Reflection block of an interior coefficient, or blocks of shape (2, 2) + gamma.shape."""
    phase = (1.0 - gamma) / (1.0 - np.conj(gamma))
    # builtin abs, not np.abs: on a NumPy scalar they can differ in the last
    # bit, and `reflection_product` keeps its results bit for bit
    r = np.sqrt(np.clip(1.0 - abs(gamma) ** 2, 0.0, None))
    return np.array(
        [[gamma, r * phase], [r, -np.conj(gamma) * phase]], dtype=np.complex128
    )


def reflection_product(coeffs: DeformedCoeffs) -> DenseUnitary:
    """Product of n elementary reflections built from the deformed coefficients.

    Each embedded factor differs from the identity by a rank-one map (its
    spectrum is {1, -phase}); the final factor scales the last coordinate by
    the unimodular last coefficient, renormalized onto the circle.
    """
    g = coeffs.gammas
    n = g.size
    _check_reflection_phases(g[:-1])
    u = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        _apply_block_columns(u, k, _xi_block(g[k]))
    last = g[n - 1]
    correction = abs(abs(last) - 1.0)
    if correction > 0:
        log.debug("renormalizing last coefficient onto the circle (off by %.2e)", correction)
    u[:, n - 1] *= last / abs(last)
    return DenseUnitary.from_entries(u)


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


def eigen_unitary(
    u: DenseUnitary, *, residual_tol: float = tol.EIGEN_RESIDUAL_TOL
) -> EigenDecomposition:
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
    if off > residual_tol * max(n, 10):
        raise ConvergenceError(f"Schur factor not diagonal (off-diagonal {off:.2e})")
    if np.max(np.abs(np.abs(lam) - 1.0)) > residual_tol:
        raise ConvergenceError("computed eigenvalues drifted off the unit circle")
    angles = np.mod(np.angle(lam), TWO_PI)
    first_row_weight = np.abs(q[0, :]) ** 2
    order = np.lexsort((-first_row_weight, angles))
    lam = lam[order]
    q = q[:, order]
    residual = float(np.max(np.linalg.norm(u.entries @ q - q * lam[None, :], axis=0)))
    if residual > residual_tol:
        raise ConvergenceError(f"eigenpair residual {residual:.2e} exceeds {residual_tol:.1e}")
    q = q.copy()
    lam.setflags(write=False)
    q.setflags(write=False)
    return EigenDecomposition(lam, q)


def spectral_measure(u: DenseUnitary) -> SpectralMeasure:
    """Spectral measure of (U, e_1): eigenangles weighted by |<e_1, v_j>|^2."""
    dec = eigen_unitary(u)
    w = np.abs(dec.eigenvectors[0, :]) ** 2
    if np.any(w < tol.WEIGHT_FLOOR):
        raise NonCyclicVectorError(
            f"weight {w.min():.2e} below cyclicity floor {tol.WEIGHT_FLOOR:.0e}"
        )
    s = float(w.sum())
    if abs(s - 1.0) > tol.STRUCTURAL_TOL:
        raise InvariantError(f"weights sum to {s!r}, not 1")
    return SpectralMeasure(dec.angles, w / s)


def sample_cj_matrix(rng: SeededRng, params: EnsembleParams) -> DenseUnitary:
    """Random unitary with circular-Jacobi distributed eigenvalues."""
    return reflection_product(sample_eta(rng, params))


def sample_cj_spectrum(rng: SeededRng, params: EnsembleParams) -> SpectralMeasure:
    """Spectral measure of a sampled matrix: tilted angles, Dirichlet weights."""
    return spectral_measure(sample_cj_matrix(rng, params))


def _reflection_stack(gammas: np.ndarray) -> np.ndarray:
    """`reflection_product` of every coefficient row, shape (count, n, n), unchecked."""
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


def _spectra_of_stack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles and weights of each matrix of a stack, with the checks of the Schur path.

    Each matrix must pass the Gram check, have unimodular eigenvalues and
    small eigenpair residuals; the weights |v_j[0]|^2 of its unit
    eigenvectors must clear the cyclicity floor and sum to 1, and its atoms
    must be distinct.
    """
    n = u.shape[-1]
    diag = np.arange(n)
    gram = np.matmul(u.conj().swapaxes(-1, -2), u)
    gram[:, diag, diag] -= 1.0
    residual = float(np.abs(gram).max())
    if residual > tol.STRUCTURAL_TOL:
        raise InvariantError(
            f"unitarity residual {residual:.3e} exceeds {tol.STRUCTURAL_TOL:.1e}"
        )
    lam, vec = _eigenpairs(u)
    if np.max(np.abs(np.abs(lam) - 1.0)) > tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError("computed eigenvalues drifted off the unit circle")
    residual = float(np.linalg.norm(u @ vec - vec * lam[:, None, :], axis=1).max())
    if residual > tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {residual:.2e} exceeds {tol.EIGEN_RESIDUAL_TOL:.1e}"
        )
    w = np.abs(vec[:, 0, :]) ** 2
    if np.any(w < tol.WEIGHT_FLOOR):
        raise NonCyclicVectorError(
            f"weight {w.min():.2e} below cyclicity floor {tol.WEIGHT_FLOOR:.0e}"
        )
    s = w.sum(axis=1, keepdims=True)
    worst = float(np.max(np.abs(s - 1.0)))
    if worst > tol.STRUCTURAL_TOL:
        raise InvariantError(f"weights sum to 1 only within {worst:.3e}")
    angles = np.mod(np.angle(lam), TWO_PI)
    order = np.lexsort((-w, angles), axis=-1)
    # the second reduction maps an angle that rounded up to 2pi back to 0, as
    # `SpectralMeasure` does
    thetas = np.mod(np.take_along_axis(angles, order, axis=-1), TWO_PI)
    weights = np.take_along_axis(w / s, order, axis=-1)
    if n > 1 and np.any(min_atom_gap(thetas) <= tol.ATOM_GAP_TOL):
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
    _check_reflection_phases(g[:, :-1])
    count, n = g.shape
    thetas = np.empty((count, n))
    weights = np.empty((count, n))
    step = max(1, BATCH_ENTRY_BUDGET // (n * n))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        thetas[lo:hi], weights[lo:hi] = _spectra_of_stack(_reflection_stack(g[lo:hi]))
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
