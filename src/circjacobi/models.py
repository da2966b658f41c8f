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
eigensolves a whole block of spectra per call with stacked NumPy operations.
From `CAYLEY_MIN_N` = 16 on it builds, in band form, the factor
W = R L^{1/2} of each row (L M the CMV matrix, R = M^{1/2}) and from it the
symmetric CMV matrix S = W W^T = R L R, which has the spectral measure of
the reflection product at e_1 and a real orthogonal eigenbasis.  The Cayley
transform of S is X Y^{-1} for the real band pair X + i Y = conj(c)^{1/2} W,
which has the conditioning of S - c: one stacked real `solve` and one
stacked real `eigh`, with no complex dense matrix.  The eigenvalues are the
Rayleigh quotients of the eigenvectors; a matrix is solved a second time,
with the Cayley pole c moved, only when the norm of its transform exceeds n
or an eigenpair residual fails.  Below 16 it runs stacked `eig` on the reflection products.
The one-spectrum path (`sample_cj_spectrum`) solves the reflection product
by Schur decomposition with the same checks; it is the reference for the
batched one.
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
    alpha_rows,
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

# from this dimension on, `spectra_from_gammas` eigensolves the real Cayley
# transform of the symmetric CMV matrix of each row (`_cayley_eigenpairs`)
# instead of running stacked `eig` on the reflection products.  Per matrix
# of a full chunk (one BLAS thread, 2-CPU Xeon), eig took 2.1x the
# symmetric Cayley time at n = 16, 1.5x at 25 and 3.3x at 50; at n = 200
# one spectrum took 15 ms against 104 ms for eig and 99 ms for Schur, and
# at n = 400 68 ms against 504 and 550 ms.  It is faster below 16 too (1.6x
# at n = 8), but there `perfbench`'s `sample-small` (n = 8) keeps every
# command's rows alive, so its peak RSS grows with throughput; when the
# benchmark stops doing that, this constant and the `eig` branch go
CAYLEY_MIN_N = 16

# |H| = max |x| of the Cayley transform grows like 2 / (angular distance of
# the nearest eigenvalue to the pole), and the solve loses accuracy with it; a
# row whose first solve has max |x| > n is solved again with its pole in the
# middle of the widest gap between its eigenvalues, which brings max |x|
# below cot(pi / 2n) < 2n / pi.  A row whose eigenpair residual exceeds
# `EIGEN_RESIDUAL_TOL` has an eigenvalue at the pole, whose x (about 1e15)
# `eigh` rounds by enough to misplace the others, so it turns its pole by
# pi / n instead, as every pending row does after a singular solve.  The
# solves after the first are one move and one turn of the pole
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
    return _identity_residual(gram)


def _identity_residual(gram: np.ndarray) -> float:
    """Largest |entry| of Gram matrices minus the identity, dense or in band form.

    Raises `InvariantError` when it exceeds `STRUCTURAL_TOL` or is not finite.
    """
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


def _theta_block(alphas, rho=None) -> np.ndarray:
    """Theta(alpha) = [[conj(alpha), rho], [rho, -alpha]] of each alpha: (2, 2) + its shape.

    rho defaults to sqrt(1 - |alpha|^2).
    """
    r = _rho(alphas) if rho is None else rho
    return np.array([[np.conj(alphas), r], [r, -alphas]], dtype=np.complex128)


def _theta_root(theta: np.ndarray) -> np.ndarray:
    """Symmetric unitary square root of each Theta block of a (2, 2, ...) stack.

    R = (Theta + s Id) / sqrt(tr Theta + 2 s) squares to Theta for either
    square root s = +-i of det Theta = -1.  With s = i sign(Im tr Theta), that
    is -i sign(Im alpha), |tr Theta + 2 s| >= 2; the other choice cancels
    near alpha = +-i.
    """
    tr = theta[0, 0] + theta[1, 1]
    s = np.where(tr.imag >= 0.0, 1j, -1j)
    root = theta.copy()
    root[0, 0] += s
    root[1, 1] += s
    return root / np.sqrt(tr + 2.0 * s)


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
    _check_eigenpairs(_eigenpair_residual(u.entries @ q, lam, q), lam)
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


def _unit_last(last: np.ndarray) -> np.ndarray:
    """The last coefficients of a block put onto the circle, with a debug record if any was off."""
    correction = np.abs(np.abs(last) - 1.0)
    if correction.any():
        log.debug(
            "renormalizing last coefficient onto the circle in %d of %d rows (worst off by %.2e)",
            np.count_nonzero(correction), last.shape[0], correction.max(),
        )
    return last / np.abs(last)


def _reflection_stack(gammas: np.ndarray) -> np.ndarray:
    """`reflection_product` of every coefficient row, shape (count, n, n).

    Checks the reflection phases; the rows must otherwise be valid
    coefficient sequences.
    """
    last = _unit_last(gammas[:, -1])
    return _factor_product(_xi_block(gammas[:, :-1]), last, range(gammas.shape[1]))


def _block_band(blocks: np.ndarray, start: int, n: int) -> np.ndarray:
    """Band form (count, n, 3) of the direct sums of 2x2 blocks (2, 2, count, m).

    The blocks sit on coordinates (k, k+1), k = start, start + 2, ...
    Column 1 of the band holds the diagonal, columns 0 and 2 the sub- and
    superdiagonal; diagonal entries outside every block are 0.
    """
    band = np.zeros((blocks.shape[2], n, 3), dtype=np.complex128)
    band[:, start : n - 1 : 2, 1] = blocks[0, 0]
    band[:, start : n - 1 : 2, 2] = blocks[0, 1]
    band[:, start + 1 : n : 2, 0] = blocks[1, 0]
    band[:, start + 1 : n : 2, 1] = blocks[1, 1]
    return band


def _shifted_rows(n: int, o: int) -> tuple[slice, slice]:
    """Rows i of an n-row matrix with 0 <= i + o < n, and the rows i + o."""
    lo = min(n, max(0, -o))
    hi = max(lo, min(n, n - o))
    return slice(lo, hi), slice(lo + o, hi + o)


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Band form of the products of two stacks of band matrices.

    A band stack (count, n, 2w + 1) holds entry (i, i + o) of each matrix at
    [:, i, w + o], and 0 where i + o falls outside the matrix.
    """
    count, n, width = a.shape
    wa, wb = width // 2, b.shape[-1] // 2
    c = np.zeros((count, n, 2 * (wa + wb) + 1), dtype=np.result_type(a, b))
    for p in range(-wa, wa + 1):
        i, j = _shifted_rows(n, p)
        c[:, i, wa + p : wa + p + 2 * wb + 1] += a[:, i, wa + p, None] * b[:, j]
    return c


def _band_transpose(band: np.ndarray) -> np.ndarray:
    """Band form of the transposes of a band stack."""
    n, w = band.shape[1], band.shape[-1] // 2
    out = np.zeros_like(band)
    for o in range(-w, w + 1):
        i, j = _shifted_rows(n, o)
        out[:, i, w + o] = band[:, j, w - o]
    return out


def _band_dense(band: np.ndarray) -> np.ndarray:
    """The dense matrices (count, n, n) of a band stack."""
    count, n, width = band.shape
    w = width // 2
    dense = np.zeros((count, n, n), dtype=band.dtype)
    rows = np.arange(n)
    for o in range(-w, w + 1):
        i, j = _shifted_rows(n, o)
        dense[:, rows[i], rows[j]] = band[:, i, w + o]
    return dense


def _band_matmul(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of each band matrix with the matching dense matrix of x (count, n, m)."""
    n, w = band.shape[1], band.shape[-1] // 2
    out = band[:, :, w, None] * x
    term = np.empty_like(out)  # one buffer for the off-diagonal terms
    for o in (*range(-w, 0), *range(1, w + 1)):
        i, j = _shifted_rows(n, o)
        np.multiply(band[:, i, w + o, None], x[:, j], out=term[:, i])
        out[:, i] += term[:, i]
    return out


def _half_band(gammas: np.ndarray) -> np.ndarray:
    """Band form (count, n, 5) of W = R L^{1/2}, the factor of S = W W^T, of each coefficient row.

    L M is the CMV matrix (`cmv_from_alpha`) of the row's alphas, with
    L = Theta(alpha_0) + Theta(alpha_2) + ... and M = 1 + Theta(alpha_1) +
    Theta(alpha_3) + ... block diagonal, the last phase conj(alpha_{n-1})
    closing the one of its index parity.  R = M^{1/2} and L^{1/2} take the
    square root of each block (`_theta_root`), so both are symmetric and
    unitary.  rho_k is read from gamma_k, as the reflection model reads it.
    The rows must be valid coefficient sequences; the reflection phases are
    checked.
    """
    n = gammas.shape[1]
    g = gammas.copy()
    g[:, -1] = _unit_last(gammas[:, -1])
    alphas = alpha_rows(g)
    theta = _theta_root(_theta_block(alphas[:, :-1], _rho(gammas[:, :-1])))
    even = _block_band(theta[..., 0::2], 0, n)  # L^{1/2}
    odd = _block_band(theta[..., 1::2], 1, n)  # R
    odd[:, 0, 1] = 1.0
    last = np.sqrt(np.conj(alphas[:, -1]))
    if (n - 1) % 2 == 0:
        even[:, -1, 1] = last
    else:
        odd[:, -1, 1] = last
    return _band_product(odd, even)


def _symmetric_band(half: np.ndarray) -> np.ndarray:
    """Band form (count, n, 7) of the symmetric CMV matrix S = W W^T = R L R of each half band W.

    S = R (L M) R^{-1} has the spectrum of L M and, since R fixes e_1, its
    spectral measure at e_1.  S is symmetric as well as unitary, with a real
    orthogonal eigenbasis; it has bandwidth 3, since the entries of W W^T
    four off the diagonal are sums of exact zeros.
    """
    return _band_product(half, _band_transpose(half))[..., 1:-1]


def _band_unitarity_residual(band: np.ndarray) -> float:
    """`_unitarity_residual` of a band stack, with the Gram matrices formed on their band."""
    gram = _band_product(_band_transpose(band).conj(), band)
    gram[..., gram.shape[-1] // 2] -= 1.0
    return _identity_residual(gram)


def _eigenpairs(gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked eigenvalues and unit eigenvectors of the matrices of coefficient rows (count, n).

    From `CAYLEY_MIN_N` (16) on, the real Cayley solve (`_cayley_eigenpairs`)
    of the symmetric CMV matrices (`_symmetric_band`) and their half factors
    (`_half_band`), after a Gram check formed on their band; below it, one
    stacked `np.linalg.eig` of the reflection products, kept only for the
    benchmark memory reason given at the constant.
    """
    try:
        if gammas.shape[1] >= CAYLEY_MIN_N:
            half = _half_band(gammas)
            band = _symmetric_band(half)
            _band_unitarity_residual(band)
            lam, vec, residual = _cayley_eigenpairs(band, half)
        else:
            u = _reflection_stack(gammas)
            _unitarity_residual(u)
            lam, vec = np.linalg.eig(u)
            residual = _eigenpair_residual(u @ vec, lam, vec)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - budget exhaustion
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    _check_eigenpairs(residual, lam)
    return lam, vec


def _cayley_eigenpairs(band: np.ndarray,
                       half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a band stack of symmetric unitary matrices from the real Cayley transform of each.

    `half` holds the factors W of the matrices S = W W^T (`_half_band`).  For
    a pole c on the unit circle, X + i Y = conj(c)^{1/2} W with X and Y real
    and banded; on a real unit eigenvector v of S with eigenvalue
    c e^{i theta}, u = e^{-i theta / 2} (conj(c)^{1/2} W)^T v is a real unit
    vector with X u = cos(theta / 2) v and Y u = sin(theta / 2) v
    (`_cayley_pair`).  So the real symmetric H = X Y^{-1} = Y^{-T} X^T has the
    eigenvectors of S and the eigenvalue x = cot(theta / 2), and Y, with
    singular values |sin(theta / 2)|, is as well conditioned as S - c: one
    stacked real `np.linalg.solve` and one stacked real `np.linalg.eigh` of
    the (symmetrized) H of every row.  Each eigenvalue is read as the
    Rayleigh quotient v^T S v of its unit eigenvector, from the band
    products of the real and imaginary parts of S, which also give its
    residual |S v - lambda v|; x only steers the pole.  The first pole is 1,
    where the circular-Jacobi density vanishes for Re delta > 0.  The solve
    loses accuracy as |H| = max |x| grows, so a row with max |x| > n is
    solved once more with the pole in the middle of its widest eigenvalue
    gap; that gap is at least 2 pi / n, so max |x| is then below 2 n / pi.
    A row whose residual exceeds `EIGEN_RESIDUAL_TOL` has an eigenvalue at
    the pole and turns its pole by pi / n, and a singular solve turns the
    pole of every pending row by pi / n.  The pole moves at most
    `CAYLEY_POLE_MOVES` times.
    Returns the eigenvalues, the real eigenvectors and the largest residual
    of each row.
    """
    count, n, _ = band.shape
    # rows whose every solve was singular keep NaN, which the eigenpair check rejects
    lam = np.full((count, n), np.nan, dtype=np.complex128)
    vec = np.zeros((count, n, n))
    residual = np.full(count, np.nan)
    pole = np.ones(count, dtype=np.complex128)
    rows = np.arange(count)
    moved = np.zeros(count, dtype=bool)
    turned = np.zeros(count, dtype=bool)
    for _ in range(1 + CAYLEY_POLE_MOVES):
        sine, cosine = _cayley_pair(half[rows], pole[rows])
        try:
            h = np.linalg.solve(_band_dense(sine), _band_dense(cosine))
        except np.linalg.LinAlgError:  # the pole is an eigenvalue of some row
            pole[rows] *= np.exp(1j * np.pi / n)
            moved[rows] = turned[rows] = True
            continue
        h += h.swapaxes(-1, -2)
        h *= 0.5
        x, v = np.linalg.eigh(h)
        av, bv = _band_matmul(band.real[rows], v), _band_matmul(band.imag[rows], v)
        lam[rows] = np.einsum("rij,rij->rj", v, av) + 1j * np.einsum("rij,rij->rj", v, bv)
        vec[rows] = v
        residual[rows] = _eigenpair_residual((av, bv), lam[rows], v)
        wrong = ~(residual[rows] <= tol.EIGEN_RESIDUAL_TOL)  # an eigenvalue at the pole
        again = wrong | (np.abs(x).max(axis=-1) > n)
        rows, x = rows[again], x[again]
        if rows.size == 0:
            break
        # the eigenvalues seen from the pole
        rel = np.sort(np.angle((x + 1j) / (x - 1j)), axis=-1)
        gaps = np.diff(rel, axis=-1, append=rel[:, :1] + TWO_PI)
        widest = gaps.argmax(axis=-1)[:, None]
        middle = np.take_along_axis(rel + 0.5 * gaps, widest, axis=-1)[:, 0]
        middle[wrong[again]] = np.pi / n
        pole[rows] *= np.exp(1j * middle)
        moved[rows] = True
    if moved.any():
        log.debug(
            "cayley pole moved in %d of %d rows (%d turned after a singular solve)",
            np.count_nonzero(moved), count, np.count_nonzero(turned),
        )
    return lam, vec, residual


def _cayley_pair(half: np.ndarray, pole: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real band stacks Y^T and X^T, X + i Y = conj(c)^{1/2} W, of half bands W and poles c.

    Y^{-T} X^T is the Cayley transform i (S - c)^{-1} (S + c) of S = W W^T
    (`_cayley_eigenpairs`); either square root of conj(c) gives it.
    """
    rotated = _band_transpose(half) * np.sqrt(np.conj(pole))[:, None, None]
    return rotated.imag, rotated.real


def _eigenpair_residual(product, lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Largest |U v - lambda v| over the eigenpairs of a matrix or of each matrix of a stack.

    `lam` (..., n) holds the eigenvalues and `vec` (..., n, n) the unit
    eigenvectors as columns; `product` holds U @ vec or, for real `vec`, the
    pair (Re U @ vec, Im U @ vec), which keeps the arithmetic real.
    """
    if isinstance(product, tuple):
        re, im = product
        square = (re - vec * lam.real[..., None, :]) ** 2
        square += (im - vec * lam.imag[..., None, :]) ** 2
    else:
        square = np.abs(product - vec * lam[..., None, :]) ** 2
    return np.sqrt(square.sum(axis=-2)).max(axis=-1)


def _check_eigenpairs(residual, lam: np.ndarray) -> None:
    """Raise `ConvergenceError` unless eigenpairs hold.

    `residual` is `_eigenpair_residual` of the eigenpairs, of one matrix or
    of each of a stack, and `lam` (..., n) their eigenvalues, which must be
    unimodular.  The residual is checked first: an eigenvalue read from a
    wrong eigenvector can leave the circle too.
    """
    worst = float(np.max(residual))
    if not worst <= tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.2e} exceeds {tol.EIGEN_RESIDUAL_TOL:.1e}"
        )
    drift = float(np.max(np.abs(np.abs(lam) - 1.0)))
    if not drift <= tol.EIGEN_RESIDUAL_TOL:
        raise ConvergenceError("computed eigenvalues drifted off the unit circle")


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
        lam, vec = _eigenpairs(g[lo : lo + step])
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
