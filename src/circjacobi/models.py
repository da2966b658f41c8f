"""Unitary matrix models and spectral-measure extraction.

The Hessenberg matrix of the plain coefficients is written down entrywise
(`ggt_from_alpha`), the reference for every other construction.  The others
are one product of embedded 2x2 factors and a last phase (`_factor_product`)
taken in two orders.  In index order it gives the same matrix, both as the
Ammar-Gragg-Reichel product of the Theta(alpha_k) and as the product of n
elementary reflections of the deformed coefficients; even indices first, it
gives the pentadiagonal (CMV) form of the same spectral measure.  The
reference spectra and spectral measures come from a dense complex Schur
decomposition, which keeps the eigenvector frame orthonormal so the weights
of a cyclic vector always sum to one.  `sample_cj_spectra` draws, builds and
eigensolves a whole block of spectra per call with stacked NumPy operations:
stacked `eig` for small n, and from `CAYLEY_MIN_N` on one stacked Hermitian
`eigh` of the Cayley transforms, which have the eigenvectors of the unitary
matrices; a matrix is solved a second time, with the Cayley pole moved, only
when the norm of its transform exceeds n.  The one-spectrum path
(`sample_cj_spectrum`) shares its build and every check and differs only in
its Schur eigensolve, the reference for the batched one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy

from . import tolerances as tol
from .errors import (
    ConvergenceError,
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
    reflection_phases,
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

# from this dimension on, `spectra_from_gammas` eigensolves the Cayley
# transform of each matrix (`_cayley_eigenpairs`) instead of running stacked
# `eig`: one Cayley solve took 16 ms against 64 ms for Schur and 82 ms for
# eig at n = 200, and 94 against 367 and 447 ms at n = 400 (one BLAS thread,
# Xeon).  It is faster below 64 too, but there `perfbench`'s `sample-small`
# keeps every command's rows alive, so its peak RSS grows with throughput;
# small n stays on `eig` until that is mended
CAYLEY_MIN_N = 64

# a Hermitian solve is accurate to about eps |H|, and |H| = max |x| grows
# like 2 / (angular distance of the nearest eigenvalue to the pole); a row
# whose first solve has max |x| > n, where that bound exceeds the n eps of
# the Schur reference, is solved again with its pole in the middle of the
# widest gap between its eigenvalues, which brings max |x| below
# cot(pi / 2n) < 2n / pi.  The solves after the first are that one move and
# one turn of the pole by pi / n after a singular solve
CAYLEY_POLE_MOVES = 2


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


def _theta_block(alphas) -> np.ndarray:
    """Theta(alpha) = [[conj(alpha), rho], [rho, -alpha]] of each alpha: (2, 2) + its shape."""
    r = _rho(alphas)
    return np.array([[np.conj(alphas), r], [r, -alphas]], dtype=np.complex128)


def _xi_block(gammas) -> np.ndarray:
    """Theta(conj(gamma)) diag(1, phase) of each gamma, `reflection_phases` giving the phase."""
    block = _theta_block(np.conj(gammas))
    block[:, 1] *= reflection_phases(gammas)
    return block


def _factor_product(blocks: np.ndarray, last: np.ndarray, order) -> np.ndarray:
    """Stack of products of embedded factors, shape (count, n, n).

    `blocks` (2, 2, count, n - 1) holds the 2x2 factors acting on coordinates
    (k, k+1) and `last` (count,) the phase of the last coordinate.  Starting
    from the identity, each index of `order` multiplies by its factor on the
    right: block k for k < n - 1, the last phase for k = n - 1.
    """
    count = last.shape[0]
    n = blocks.shape[-1] + 1
    u = np.zeros((count, n, n), dtype=np.complex128)
    u[:, np.arange(n), np.arange(n)] = 1.0
    for k in order:
        if k == n - 1:
            u[:, :, k] *= last[:, None]
        else:
            _apply_block_columns(u, k, blocks[..., k])
    return u


def agr_product(coeffs: VerblunskyCoeffs) -> DenseUnitary:
    """Theta(alpha_0) ... Theta(alpha_{n-2}) diag(1, ..., 1, conj(alpha_{n-1})).

    The Ammar-Gragg-Reichel factorization; equals `ggt_from_alpha` entrywise.
    """
    a = coeffs.alphas
    return DenseUnitary.from_entries(
        _factor_product(_theta_block(a[None, :-1]), np.conj(a[-1:]), range(a.size))[0]
    )


def reflection_product(coeffs: DeformedCoeffs) -> DenseUnitary:
    """Product of n elementary reflections built from the deformed coefficients.

    Each embedded factor differs from the identity by a rank-one map (its
    spectrum is {1, -phase}); the final factor scales the last coordinate by
    the unimodular last coefficient, renormalized onto the circle.
    """
    return DenseUnitary.from_entries(_reflection_stack(coeffs.gammas[None, :])[0])


def cmv_from_alpha(coeffs: VerblunskyCoeffs) -> DenseUnitary:
    """Pentadiagonal model: the `agr_product` factors, even indices first.

    The even-index factors multiply to one block-diagonal matrix and the
    odd-index ones to another (the last phase joins the group of its index
    parity); their product has the spectrum and spectral measure of the
    Hessenberg form, and entries at distance > 2 from the diagonal vanish.
    """
    a = coeffs.alphas
    n = a.size
    order = [*range(0, n, 2), *range(1, n, 2)]
    return DenseUnitary.from_entries(
        _factor_product(_theta_block(a[None, :-1]), np.conj(a[-1:]), order)[0]
    )


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
    last = gammas[:, -1]
    correction = np.abs(np.abs(last) - 1.0)
    if correction.any():
        log.debug(
            "renormalizing last coefficient onto the circle in %d of %d rows (worst off by %.2e)",
            np.count_nonzero(correction), gammas.shape[0], correction.max(),
        )
    return _factor_product(_xi_block(gammas[:, :-1]), last / np.abs(last), range(gammas.shape[1]))


def _eigenpairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of each matrix of a unitary stack (count, n, n).

    Below `CAYLEY_MIN_N`, one stacked `np.linalg.eig` call; from it on,
    `_cayley_eigenpairs`.  The caller checks the eigenpair residual on `u`.
    """
    try:
        if u.shape[-1] >= CAYLEY_MIN_N:
            return _cayley_eigenpairs(u)
        return np.linalg.eig(u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - budget exhaustion
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def _cayley_eigenpairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a unitary stack from the Hermitian Cayley transform of each matrix.

    For a pole c on the unit circle, H = i (U - c)^{-1} (U + c) is Hermitian
    with the eigenvectors of U, and its eigenvalue x is that of
    lambda = c (x + i) / (x - i).  One stacked `np.linalg.eigh` solves the
    (symmetrized) H of every row.  The first pole is 1, where the
    circular-Jacobi density vanishes for Re delta > 0.  The solve is
    accurate to about eps |H| with |H| = max |x|, so a row with max |x| > n
    is solved once more with the pole in the middle of its widest eigenvalue
    gap; that gap is at least 2 pi / n, so max |x| is then below 2 n / pi.
    A singular solve turns the pole of every pending row by pi / n.  The
    pole moves at most `CAYLEY_POLE_MOVES` times.
    """
    count, n, _ = u.shape
    eye = np.eye(n)
    # rows whose every solve was singular keep NaN, which the eigenpair check rejects
    lam = np.full((count, n), np.nan, dtype=np.complex128)
    vec = np.empty_like(u)
    pole = np.ones(count, dtype=np.complex128)
    rows = np.arange(count)
    moved = np.zeros(count, dtype=bool)
    turned = np.zeros(count, dtype=bool)
    for _ in range(1 + CAYLEY_POLE_MOVES):
        c = pole[rows, None, None]
        try:
            h = 1j * np.linalg.solve(u[rows] - c * eye, u[rows] + c * eye)
        except np.linalg.LinAlgError:  # the pole is an eigenvalue of some row
            pole[rows] *= np.exp(1j * np.pi / n)
            moved[rows] = turned[rows] = True
            continue
        x, vec[rows] = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
        seen = (x + 1j) / (x - 1j)  # the eigenvalues seen from the pole
        lam[rows] = pole[rows, None] * seen
        far = np.abs(x).max(axis=-1) > n
        rows, seen = rows[far], seen[far]
        if rows.size == 0:
            break
        rel = np.sort(np.angle(seen), axis=-1)
        gaps = np.diff(rel, axis=-1, append=rel[:, :1] + TWO_PI)
        widest = gaps.argmax(axis=-1)[:, None]
        middle = np.take_along_axis(rel + 0.5 * gaps, widest, axis=-1)[:, 0]
        pole[rows] *= np.exp(1j * middle)
        moved[rows] = True
    if moved.any():
        log.debug(
            "cayley pole moved in %d of %d rows (%d turned after a singular solve)",
            np.count_nonzero(moved), count, np.count_nonzero(turned),
        )
    return lam, vec


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


def _measure_rows(
    lam: np.ndarray, vec: np.ndarray, first_row: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measures at e_1 of the eigenpairs of each row of a stack.

    `lam` (count, n) and unit eigenvectors `vec` (count, n, n).  The weights
    |v_j[0]|^2 must clear the cyclicity floor and sum to 1, and the atoms
    must be distinct.  Returns (thetas, weights), each (count, n), in the
    order of `_angle_order`.  Errors number the rows from `first_row`.
    """
    angles, w, order = _angle_order(lam, vec)
    cyclic = np.all(w >= tol.WEIGHT_FLOOR, axis=-1)
    if not cyclic.all():
        failing = np.flatnonzero(~cyclic)
        last_row = first_row + cyclic.size - 1
        raise NonCyclicVectorError(
            f"weight {w[failing[0]].min():.2e} of row {first_row + failing[0]} below "
            f"cyclicity floor {tol.WEIGHT_FLOOR:.0e} ({failing.size} of rows "
            f"{first_row}-{last_row} below it)"
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
        thetas[lo : lo + step], weights[lo : lo + step] = _measure_rows(lam, vec, lo)
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
