import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from circjacobi import (
    CircJacobiError,
    ConvergenceError,
    DeformedCoeffs,
    DegenerateCoefficientError,
    DenseUnitary,
    EnsembleParams,
    InvariantError,
    NonCyclicVectorError,
    ParameterError,
    SeededRng,
    SpectralMeasure,
    VerblunskyCoeffs,
    agr_product,
    agr_rows,
    alpha_from_gamma,
    char_poly_at_one,
    cmv_from_alpha,
    eigen_unitary,
    gamma_from_alpha,
    ggt_from_alpha,
    ggt_rows,
    reflection_product,
    reflection_rows,
    sample_cj_matrix,
    sample_cj_spectra,
    sample_cj_spectrum,
    sample_eta_batch,
    spectra_from_gammas,
    spectral_measure,
    szego_polynomials,
    verblunsky_from_measure,
)
from circjacobi import analysis, models
from circjacobi.models import _xi_block, matrix_from_json_dict, matrix_to_json_dict
from circjacobi.opuc import TWO_PI
from circjacobi.tolerances import (
    MEASURE_ROUNDTRIP_TOL,
    SE_BOUND,
    STRUCTURAL_TOL,
    WEIGHT_FLOOR,
)

from conftest import random_alphas


class TestGGT:
    def test_permutation_case(self):
        u = ggt_from_alpha(VerblunskyCoeffs([0.0, 1.0]))
        assert np.allclose(u.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_general_two_by_two(self, gen):
        a0 = 0.3 - 0.5j
        a1 = np.exp(0.8j)
        r0 = np.sqrt(1 - abs(a0) ** 2)
        u = ggt_from_alpha(VerblunskyCoeffs([a0, a1]))
        expected = np.array(
            [[np.conj(a0), r0 * np.conj(a1)], [r0, -a0 * np.conj(a1)]]
        )
        assert np.allclose(u.entries, expected, atol=1e-15)

    def test_hessenberg_structure(self, gen):
        u = ggt_from_alpha(random_alphas(gen, 7)).entries
        below = np.tril(u, k=-2)
        assert np.max(np.abs(below)) == 0.0
        assert np.all(np.diag(u, k=-1).real > 0)

    def test_unitarity_recorded(self, gen):
        u = ggt_from_alpha(random_alphas(gen, 20))
        assert u.unitarity_residual <= 1e-10


class TestAGR:
    def test_cyclic_shift(self):
        u = agr_product(VerblunskyCoeffs([0.0, 0.0, 0.0, 1.0]))
        shift = np.roll(np.eye(4), 1, axis=0)
        assert np.allclose(u.entries, shift)

    def test_single_block(self):
        psi = 0.4
        u = agr_product(VerblunskyCoeffs([np.exp(1j * psi)]))
        assert np.allclose(u.entries, [[np.exp(-1j * psi)]])

    def test_matches_hessenberg(self, gen):
        for n in (2, 3, 8, 17, 64):
            coeffs = random_alphas(gen, n)
            diff = np.abs(agr_product(coeffs).entries - ggt_from_alpha(coeffs).entries)
            assert np.max(diff) <= 1e-12


class TestReflectionProduct:
    def test_zero_coefficient_block(self):
        u = reflection_product(DeformedCoeffs([0.0, 1.0]))
        assert np.allclose(u.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_hessenberg_through_bijection(self, gen):
        for n in (2, 5, 16, 64):
            gammas = gamma_from_alpha(random_alphas(gen, n))
            lhs = reflection_product(gammas).entries
            rhs = ggt_from_alpha(alpha_from_gamma(gammas)).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_factors_are_rank_one_reflections(self, gen):
        for _ in range(10):
            g = gen.uniform(0, 0.95) * np.exp(1j * gen.uniform(0, TWO_PI))
            block = _xi_block(g)
            n = 5
            factor = np.eye(n, dtype=complex)
            factor[1:3, 1:3] = block
            s = np.linalg.svd(factor - np.eye(n), compute_uv=False)
            assert s[1] <= 1e-10  # rank(factor - Id) == 1
            phase = (1 - g) / (1 - np.conj(g))
            lam = np.linalg.eigvals(block)
            assert abs(lam - 1.0).min() < 1e-12 and abs(lam + phase).min() < 1e-12


class TestCMV:
    def test_two_by_two_equals_hessenberg(self, gen):
        coeffs = random_alphas(gen, 2)
        assert np.allclose(
            cmv_from_alpha(coeffs).entries, ggt_from_alpha(coeffs).entries
        )

    def test_matches_block_diagonal_product(self, gen):
        # oracle: L holds the even-index blocks, M the odd-index ones, and the
        # last phase sits in the factor of its index parity
        for n in (1, 2, 3, 8, 17):
            a = random_alphas(gen, n).alphas
            lmat = np.eye(n, dtype=complex)
            mmat = np.eye(n, dtype=complex)
            for k in range(n - 1):
                r = np.sqrt(1.0 - abs(a[k]) ** 2)
                target = lmat if k % 2 == 0 else mmat
                target[k : k + 2, k : k + 2] = [[np.conj(a[k]), r], [r, -a[k]]]
            (lmat if (n - 1) % 2 == 0 else mmat)[n - 1, n - 1] = np.conj(a[n - 1])
            diff = np.abs(cmv_from_alpha(VerblunskyCoeffs(a)).entries - lmat @ mmat)
            assert np.max(diff) <= 1e-14

    def test_same_spectrum_as_hessenberg(self, gen):
        coeffs = random_alphas(gen, 8)
        lam_c = eigen_unitary(cmv_from_alpha(coeffs)).eigenvalues
        lam_h = eigen_unitary(ggt_from_alpha(coeffs)).eigenvalues
        match = np.max(np.min(np.abs(lam_c[:, None] - lam_h[None, :]), axis=1))
        assert match <= 1e-9

    def test_pentadiagonal(self, gen):
        n = 16
        u = cmv_from_alpha(random_alphas(gen, n)).entries
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 2
        assert np.max(np.abs(u[mask])) <= 1e-14


class TestEigenUnitary:
    def test_identity(self):
        dec = eigen_unitary(DenseUnitary.from_entries(np.eye(4)))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_swap_matrix(self):
        dec = eigen_unitary(DenseUnitary.from_entries([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.sort(dec.eigenvalues.real), [-1.0, 1.0])
        assert np.allclose(dec.angles, [0.0, np.pi])

    def test_angle_just_below_zero_is_stored_at_zero(self):
        u = DenseUnitary.from_entries(np.diag(np.exp(1j * np.array([2.0, -1e-17, 1.0]))))
        assert eigen_unitary(u).angles.tolist() == [0.0, 1.0, 2.0]

    def test_angles_sorted(self, gen):
        dec = eigen_unitary(ggt_from_alpha(random_alphas(gen, 12)))
        assert np.all(np.diff(dec.angles) >= 0)

    def test_char_poly_consistency_n32(self, gen):
        gammas = gamma_from_alpha(random_alphas(gen, 32))
        dec = eigen_unitary(reflection_product(gammas))
        lhs = complex(np.prod(1.0 - dec.eigenvalues))
        rhs = char_poly_at_one(gammas)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_non_normal_schur_factor_fails_eigenpair_check(self):
        # the Schur factor is the matrix itself; its off-diagonal 1e-6 is
        # the second eigenpair's residual
        u = DenseUnitary(np.array([[1.0, 1e-6], [0.0, -1.0]], dtype=np.complex128), 0.0)
        with pytest.raises(ConvergenceError, match="eigenpair residual"):
            eigen_unitary(u)

    def test_residuals(self, gen):
        u = ggt_from_alpha(random_alphas(gen, 24))
        dec = eigen_unitary(u)
        res = np.linalg.norm(u.entries @ dec.eigenvectors
                             - dec.eigenvectors * dec.eigenvalues[None, :], axis=0)
        assert np.max(res) <= 1e-9
        assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-9

    def test_non_unitary_rejected(self, gen):
        with pytest.raises(InvariantError):
            DenseUnitary.from_entries(gen.normal(size=(4, 4)))


class TestSpectralMeasure:
    def test_single_atom(self):
        theta = 1.3
        u = DenseUnitary.from_entries([[np.exp(1j * theta)]])
        m = spectral_measure(u)
        assert m.n == 1 and abs(m.thetas[0] - theta) < 1e-15
        assert m.weights[0] == 1.0

    def test_swap_matrix_half_weights(self):
        m = spectral_measure(DenseUnitary.from_entries([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(m.thetas, [0.0, np.pi])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_roundtrip_with_coefficients(self, gen):
        for n in (2, 6, 16):
            coeffs = random_alphas(gen, n)
            measure = spectral_measure(ggt_from_alpha(coeffs))
            back = verblunsky_from_measure(measure)
            assert np.max(np.abs(back.alphas - coeffs.alphas)) < 1e-8

    def test_measure_rows_with_an_angle_just_below_zero_ascend(self):
        # eigenvalues at angles -1e-17, 1, 2, 3 with the DFT basis: weights 1/4
        lam = np.exp(1j * np.array([[-1e-17, 1.0, 2.0, 3.0]]))
        vec = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4)[None] / 2.0
        thetas, weights = models._measure_rows(lam, vec)
        assert thetas.tolist() == [[0.0, 1.0, 2.0, 3.0]]
        assert np.allclose(weights, 0.25)
        analysis.convergence_stats(thetas, weights, lambda t: np.asarray(t) / TWO_PI)

    def test_non_cyclic_first_vector(self):
        u = DenseUnitary.from_entries(np.diag([1.0, -1.0]))
        with pytest.raises(NonCyclicVectorError):
            spectral_measure(u)

    def test_christoffel_weights(self, gen):
        # independent route: weights are reciprocal sums of squared
        # orthonormal polynomial values at the atoms
        coeffs = random_alphas(gen, 8)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        phi, _ = szego_polynomials(coeffs)
        rho = np.sqrt(1.0 - np.abs(coeffs.alphas[:-1]) ** 2)
        norms = np.concatenate(([1.0], np.cumprod(rho)))  # |Phi_k| in L2
        atoms = np.exp(1j * measure.thetas)
        for j, z in enumerate(atoms):
            vals = npoly.polyval(z, phi[:8].T) / norms
            christoffel = 1.0 / np.sum(np.abs(vals) ** 2)
            assert abs(christoffel - measure.weights[j]) <= 1e-6 * measure.weights[j]


class TestThreeModelEquality:
    def test_entrywise(self, gen):
        worst = 0.0
        for n in (2, 4, 8, 16, 32, 64):
            for _ in range(3):
                coeffs = random_alphas(gen, n)
                h = ggt_from_alpha(coeffs).entries
                a = agr_product(coeffs).entries
                x = reflection_product(gamma_from_alpha(coeffs)).entries
                worst = max(worst, np.max(np.abs(h - a)), np.max(np.abs(h - x)))
        assert worst <= 1e-10


class TestStackedBuilders:
    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_rows_equal_one_row_functions(self, gen, n):
        sets = [random_alphas(gen, n) for _ in range(5)]
        deformed = [gamma_from_alpha(coeffs) for coeffs in sets]
        alphas = np.stack([coeffs.alphas for coeffs in sets])
        ggt, agr = ggt_rows(alphas), agr_rows(alphas)
        refl = reflection_rows(np.stack([d.gammas for d in deformed]))
        for i, (coeffs, d) in enumerate(zip(sets, deformed)):
            assert np.array_equal(ggt[i], ggt_from_alpha(coeffs).entries)
            assert np.array_equal(agr[i], agr_product(coeffs).entries)
            assert np.array_equal(refl[i], reflection_product(d).entries)

    def test_ggt_rows_matches_double_loop(self, gen):
        # scalar complex products may round differently from NumPy's array
        # loops, so each entry, of modulus <= 1 and a product of n + 1
        # rounded factors, is compared within (n + 2) ulps of 1
        n = 7
        sets = [random_alphas(gen, n) for _ in range(4)]
        for h, coeffs in zip(ggt_rows(np.stack([c.alphas for c in sets])), sets):
            a = coeffs.alphas
            rho = np.sqrt(1.0 - np.abs(a) ** 2)
            reference = np.zeros((n, n), dtype=complex)
            for i in range(n):
                prev = complex(-1.0) if i == 0 else a[i - 1]
                tail = 1.0  # prod_{p=i}^{j-1} rho_p
                for j in range(i, n):
                    reference[i, j] = -prev * np.conj(a[j]) * tail
                    tail *= rho[j]
                if i >= 1:
                    reference[i, i - 1] = rho[i - 1]
            assert np.abs(h - reference).max() <= (n + 2) * np.finfo(float).eps

    def test_rows_are_checked(self):
        with pytest.raises(InvariantError):
            ggt_rows(np.array([0.5, 1.0]))
        with pytest.raises(InvariantError):
            agr_rows(np.array([[1.5, 1.0]]))


class TestDistributionalEquality:
    def test_block_products_agree_in_law_at_zero_tilt(self):
        # paired comparison: same rotation-invariant coefficient draws pushed
        # through both block constructions; spectral statistics must agree
        params = EnsembleParams(6, 2.0, 0.0)
        draws = sample_eta_batch(SeededRng(31), params, 3000)
        diffs1, diffs2 = [], []
        for row in draws:
            theta_u = eigen_unitary(agr_product(VerblunskyCoeffs(row))).angles
            xi_u = eigen_unitary(reflection_product(DeformedCoeffs(row))).angles
            diffs1.append(np.cos(theta_u).sum() - np.cos(xi_u).sum())
            diffs2.append(np.cos(2 * theta_u).sum() - np.cos(2 * xi_u).sum())
        for diffs in (np.array(diffs1), np.array(diffs2)):
            se = diffs.std(ddof=1) / np.sqrt(diffs.size)
            assert abs(diffs.mean()) <= SE_BOUND * max(se, 1e-12)


class TestSampledMatrices:
    def test_matrix_is_unitary_and_spectrum_normalized(self):
        params = EnsembleParams(12, 2.0, 1 + 1j)
        rng = SeededRng(32)
        u = sample_cj_matrix(rng, params)
        assert u.unitarity_residual <= 1e-10
        m = sample_cj_spectrum(rng, params)
        assert abs(m.weights.sum() - 1.0) <= 1e-10

    def test_tilt_validation(self):
        with pytest.raises(ParameterError):
            sample_cj_matrix(SeededRng(33), EnsembleParams(4, 2.0, -0.25))


def _oracle(row):
    """The single-sample Schur path on one coefficient row, or the error class it raises."""
    try:
        return spectral_measure(reflection_product(DeformedCoeffs(row)))
    except CircJacobiError as exc:
        return type(exc)


def _batched(row):
    try:
        return spectra_from_gammas(row[None, :])
    except CircJacobiError as exc:
        return type(exc)


def _trace(row):
    """Tr U from the coefficients alone: gamma_0 - sum_{k>=1} gamma_k conj(gamma_{k-1}) ph_{k-1},
    ph_j = (1 - gamma_j)/(1 - conj(gamma_j)), with the last coefficient put on the circle."""
    g = np.append(row[:-1], row[-1] / abs(row[-1]))
    ph = (1.0 - g) / (1.0 - np.conj(g))
    return g[0] - np.sum(g[1:] * np.conj(g[:-1]) * ph[:-1])


class TestBatchedSpectra:
    # coefficient rows drawn per (beta, delta) at each n
    ROWS = {2: 30, 8: 30, 16: 10, 50: 6, 200: 1, 400: 1}

    @pytest.mark.parametrize("n,solver", [
        (2, "eig"), (2, "cayley"), (8, "eig"), (8, "cayley"), (16, "cayley"), (50, "eig"),
        (50, "cayley"), (200, "cayley"), (400, "eig"), (400, "cayley"),
    ])
    def test_matches_schur_oracle_on_identical_gammas(self, n, solver, monkeypatch):
        monkeypatch.setattr(models, "CAYLEY_MIN_N", n + 1 if solver == "eig" else n)
        worst_theta = worst_weight = worst_trace = 0.0
        for beta in (0.5, 2.0, 4.0):
            for delta in (0.0, 1.0, 1 + 1j, 0.5 * beta * n):
                params = EnsembleParams(n, beta, delta)
                gammas = sample_eta_batch(SeededRng(n), params, self.ROWS[n])
                kept, singles = [], []
                for row in gammas:
                    want, got = _oracle(row), _batched(row)
                    if want is NonCyclicVectorError:  # only the Schur oracle has a floor
                        assert not isinstance(got, type) and got[1].min() < WEIGHT_FLOOR
                        continue
                    if isinstance(want, type) or isinstance(got, type):
                        assert want is got, (beta, delta, want, got)
                        continue
                    kept.append(row)
                    singles.append(got)
                    worst_theta = max(worst_theta, np.max(np.abs(got[0][0] - want.thetas)))
                    worst_weight = max(worst_weight, np.max(np.abs(got[1][0] - want.weights)))
                    worst_trace = max(worst_trace, abs(np.exp(1j * got[0][0]).sum() - _trace(row)))
                if len(kept) > 1:  # a block gives each row's result
                    thetas, weights = spectra_from_gammas(np.array(kept))
                    assert np.array_equal(thetas, np.concatenate([t for t, _ in singles]))
                    assert np.array_equal(weights, np.concatenate([w for _, w in singles]))
        assert worst_theta <= 1e-13  # the Rayleigh quotients give 8e-15 on this grid
        assert worst_weight <= 1e-12
        assert worst_trace <= 1e-12  # 3.7e-13 at n = 400 (Cayley) on this grid

    def test_chunking_does_not_change_output(self, monkeypatch):
        gammas = sample_eta_batch(SeededRng(41), EnsembleParams(8, 2.0, 1.0), 300)
        whole = spectra_from_gammas(gammas)
        monkeypatch.setattr(models, "BATCH_ENTRY_BUDGET", 7 * 64)
        chunked = spectra_from_gammas(gammas)
        assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])

    def test_output_is_sorted_and_normalized(self):
        thetas, weights = sample_cj_spectra(SeededRng(42), EnsembleParams(6, 2.0, 1 + 1j), 500)
        assert thetas.shape == weights.shape == (500, 6)
        assert np.all((thetas >= 0.0) & (thetas < TWO_PI))
        assert np.all(np.diff(thetas, axis=1) > 0.0)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-10

    def test_corrupted_stack_fails_unitarity_check(self, monkeypatch):
        build = models._reflection_stack

        def corrupted(gammas):
            u = build(gammas)
            u[-1, 0, 0] *= 1.0 + 1e-8
            return u

        monkeypatch.setattr(models, "_reflection_stack", corrupted)
        gammas = sample_eta_batch(SeededRng(43), EnsembleParams(5, 2.0, 1.0), 20)
        with pytest.raises(InvariantError, match="unitarity residual"):
            spectra_from_gammas(gammas)

    def test_corrupted_symmetric_stack_fails_unitarity_check(self, monkeypatch):
        build = models._symmetric_band

        def corrupted(gammas):
            band = build(gammas)
            band[-1, 0, 3] *= 1.0 + 1e-8  # entry (0, 0), conj(alpha_0), of the last matrix
            return band

        monkeypatch.setattr(models, "_symmetric_band", corrupted)
        gammas = sample_eta_batch(SeededRng(43), EnsembleParams(models.CAYLEY_MIN_N, 2.0, 1.0), 20)
        with pytest.raises(InvariantError, match="unitarity residual"):
            spectra_from_gammas(gammas)

    @pytest.mark.parametrize("n", [models.CAYLEY_MIN_N - 1, models.CAYLEY_MIN_N])
    def test_last_coefficient_renormalization_is_logged(self, n, caplog):
        gammas = sample_eta_batch(SeededRng(53), EnsembleParams(n, 2.0, 1.0), 3)
        gammas[:, -1] = [1.0, 1j * (1.0 + 2.0**-43), -1.0]
        with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
            spectra_from_gammas(gammas)
        assert [r.getMessage() for r in caplog.records if r.msg.startswith("renormalizing")] == [
            "renormalizing last coefficient onto the circle in 1 of 3 rows (worst off by 1.14e-13)"
        ]

    def test_weights_below_the_cyclicity_floor_are_returned(self):
        # |gamma_k| < 1 makes e_1 cyclic, so no weight floor applies: at
        # (60, 0.5, 2.5) about 4% of rows carry a true weight below it, two
        # of these 100
        gammas = sample_eta_batch(SeededRng(46), EnsembleParams(60, 0.5, 2.5), 100)
        _, weights = spectra_from_gammas(gammas)
        assert np.all(weights > 0.0)
        assert weights.min() < WEIGHT_FLOOR

    def test_invalid_rows_raise_as_in_the_single_path(self):
        gammas = sample_eta_batch(SeededRng(44), EnsembleParams(4, 2.0, 1.0), 5)
        outside = gammas.copy()
        outside[3, 1] = 1.5
        with pytest.raises(InvariantError, match="interior"):
            spectra_from_gammas(outside)
        degenerate = gammas.copy()
        degenerate[2, 2] = 1.0 - 1e-15
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            spectra_from_gammas(degenerate)
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            reflection_product(DeformedCoeffs(degenerate[2]))


class TestSymmetricCMV:
    # at odd n the last phase closes L, at even n it closes R = M^{1/2}
    @pytest.mark.parametrize("n", [16, 17, 50, 51])
    def test_symmetric_unitary_and_banded(self, n):
        gammas = sample_eta_batch(SeededRng(52), EnsembleParams(n, 2.0, 1 + 1j), 4)
        band, _ = _bands_of(gammas)
        s = models._band_dense(band)
        assert np.abs(s - s.swapaxes(-1, -2)).max() <= STRUCTURAL_TOL
        gram = np.abs(s.conj().swapaxes(-1, -2) @ s - np.eye(n)).max()
        assert gram <= STRUCTURAL_TOL
        i, j = np.indices((n, n))
        assert np.all(s[:, np.abs(i - j) > 3] == 0.0)
        # the band forms of the Gram matrix and of S @ x are the dense ones
        assert abs(models._band_unitarity_residual(band) - gram) <= 1e-15
        x = np.random.default_rng(n).standard_normal((4, n, n))
        sx = models._band_matmul(np.stack((band.real, band.imag), axis=-2), x)
        assert np.abs(sx[:, :, 0] + 1j * sx[:, :, 1] - s @ x).max() <= 1e-14

    @pytest.mark.parametrize("n", [16, 17, 50, 51])
    def test_measure_matches_the_reflection_oracle(self, n):
        worst_theta = worst_weight = 0.0
        for beta in (1.0, 2.0, 4.0):
            for delta in (0.0, 1 + 1j, 0.5 * beta * n):
                gammas = sample_eta_batch(SeededRng(54), EnsembleParams(n, beta, delta), 3)
                for row, s in zip(gammas, models._band_dense(_bands_of(gammas)[0])):
                    want = _oracle(row)
                    got = spectral_measure(DenseUnitary.from_entries(s))
                    worst_theta = max(worst_theta, np.max(np.abs(got.thetas - want.thetas)))
                    worst_weight = max(worst_weight, np.max(np.abs(got.weights - want.weights)))
        assert worst_theta <= 1e-12
        assert worst_weight <= 1e-12

    @pytest.mark.parametrize("n", [16, 17, 50, 51])
    def test_cayley_pair_commutes_and_gives_the_complex_transform(self, n):
        gammas = sample_eta_batch(SeededRng(55), EnsembleParams(n, 2.0, 1 + 1j), 4)
        band, half = _bands_of(gammas)
        s = models._band_dense(band)
        assert np.abs(_band_gram(half, half) - s).max() <= STRUCTURAL_TOL  # S = W W^T
        eye = np.eye(n)
        for c in (1.0, np.exp(2.5j)):
            sine, cosine = models._cayley_pair(half, np.full(4, c))
            # with Y^T, X^T = sine, cosine: X^T Y = Y^T X, so Y^{-T} X^T is symmetric
            commutator = _band_gram(cosine, sine) - _band_gram(sine, cosine)
            assert np.abs(commutator).max() <= STRUCTURAL_TOL
            h = np.linalg.solve(models._band_dense(sine), models._band_dense(cosine))
            # the complex Cayley transform i (S - c)^{-1} (S + c), which is
            # real; the two solves differed by up to 7.5e-14 relative here
            want = -np.linalg.solve(s - c * eye, s + c * eye).imag
            assert np.abs(h - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [
        1j * (1 - 1e-9), -1j * (1 - 1e-9), 1 - 1e-9, -(1 - 1e-9), 0.3 - 0.4j, 0.0,
    ])
    def test_theta_root_is_a_symmetric_unitary_square_root(self, alpha):
        theta = models._theta_block(np.array([alpha]))[..., 0]
        root = models._theta_root(theta)
        assert np.array_equal(root, root.T)
        assert np.abs(root @ root - theta).max() <= 1e-14
        assert np.abs(root.conj().T @ root - np.eye(2)).max() <= 1e-14


def _circular_match(thetas, weights, want: SpectralMeasure):
    """Largest circular angle distance and weight difference to the nearest atom of `want`."""
    dist = np.abs(np.angle(np.exp(1j * (thetas[:, None] - want.thetas[None, :]))))
    nearest = dist.argmin(axis=1)
    return dist.min(axis=1).max(), np.abs(weights - want.weights[nearest]).max()


def _cayley_against_schur(bands):
    """Largest angle and weight distance to Schur of the checked Cayley solve of (band, half band)."""
    band, half = bands
    lam, vec, residual = models._cayley_eigenpairs(band, half)
    models._check_eigenpairs(residual, lam)
    thetas, weights = models._measure_rows(lam, vec)
    return np.max([
        _circular_match(t, w, spectral_measure(DenseUnitary.from_entries(m)))
        for t, w, m in zip(thetas, weights, models._band_dense(band))
    ], axis=0)


def _band_gram(a, b):
    """Dense A B^T of band stacks A and B."""
    return models._band_dense(models._band_product(a, models._band_transpose(b)))


def _random_band(gen, count, n, w):
    """Random complex band stack (count, n, 2w + 1) with zeros where i + o leaves the matrix."""
    shape = (count, n, 2 * w + 1)
    band = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    i, o = np.indices((n, 2 * w + 1))
    band[:, (i + o - w < 0) | (i + o - w >= n)] = 0.0
    return band


def _dense_of(band):
    """Dense matrices of a band stack, entry by entry."""
    count, n, width = band.shape
    dense = np.zeros((count, n, n), dtype=band.dtype)
    for i in range(n):
        for k in range(width):
            if 0 <= i + k - width // 2 < n:
                dense[:, i, i + k - width // 2] = band[:, i, k]
    return dense


def _band_of(dense, w):
    """Band stack (count, n, 2w + 1) of dense matrices, 0 where i + o leaves the matrix."""
    count, n, _ = dense.shape
    band = np.zeros((count, n, 2 * w + 1), dtype=dense.dtype)
    for i in range(n):
        for o in range(-w, w + 1):
            if 0 <= i + o < n:
                band[:, i, w + o] = dense[:, i, i + o]
    return band


# n < 2w + 1 included: there the zero rows of the window decide each result
@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("wa", [1, 2, 3])
@pytest.mark.parametrize("wb", [1, 2, 3])
def test_band_helpers_match_dense_at_small_n(n, wa, wb):
    gen = np.random.default_rng(100 * n + 10 * wa + wb)
    a, b = _random_band(gen, 3, n, wa), _random_band(gen, 3, n, wb)
    da, db = _dense_of(a), _dense_of(b)
    assert np.array_equal(models._band_dense(a), da)
    assert np.array_equal(models._band_transpose(a), _band_of(da.swapaxes(-1, -2), wa))
    assert np.abs(models._band_product(a, b) - _band_of(da @ db, wa + wb)).max() <= 1e-14
    x = gen.standard_normal((3, n, n + 1))
    sx = models._band_matmul(np.stack((a.real, a.imag), axis=-2), x)
    assert sx.shape == (3, n, 2, n + 1)
    assert np.abs(sx[:, :, 0] + 1j * sx[:, :, 1] - da @ x).max() <= 1e-14


def test_band_matmul_reads_its_window_in_place():
    # real planes let matmul read the window view without copying it: the
    # padded copy of x and the product take 3 arrays of x's size; a complex
    # band would make matmul materialise the window, about 17 of them
    band, _ = _symmetric_bands(56, 200, 1.0, 2)
    planes = np.stack((band.real, band.imag), axis=-2)
    x = np.random.default_rng(56).standard_normal((2, 200, 200))
    tracemalloc.start()
    try:
        models._band_matmul(planes, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * x.nbytes


def _bands_of(gammas):
    """The symmetric CMV band stack S of coefficient rows and its half band W, with W W^T = S."""
    half = models._half_band(gammas)
    return models._symmetric_band(half), half


def _symmetric_bands(seed, n, delta, count):
    return _bands_of(sample_eta_batch(SeededRng(seed), EnsembleParams(n, 2.0, delta), count))


def _turned(bands, angle):
    """(band, half band) stacks of the matrices e^{i angle} S, `angle` broadcast over each stack."""
    band, half = bands
    return band * np.exp(1j * angle), half * np.exp(0.5j * angle)


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_cayley_solve_near_its_first_pole(n, delta):
    # rotate each matrix so that an eigenvalue sits at angle d from 1, the
    # first pole; with the pole kept there the residual grows like 1e-15 / d
    bands = _symmetric_bands(47, n, delta, 2)
    first = np.angle(np.linalg.eigvals(models._band_dense(bands[0]))[:, :1])
    for d in (1e-2, 1e-6, 1e-10, 1e-14, 0.0):
        angle_gap, weight_gap = _cayley_against_schur(_turned(bands, (d - first)[:, :, None]))
        assert angle_gap <= 1e-12 and weight_gap <= 1e-12, d


def test_eigensolver_switches_to_cayley_at_its_threshold(monkeypatch):
    # below the threshold stacked complex `eig`; from it on, every solve and
    # eigh runs on float64 stacks only
    calls = []
    for name in ("eig", "eigh", "solve"):
        solve = getattr(np.linalg, name)

        def spy(*args, _solve=solve, _name=name):
            calls.append((_name, *(a.dtype for a in args)))
            return _solve(*args)

        monkeypatch.setattr(np.linalg, name, spy)
    f, c = np.dtype(np.float64), np.dtype(np.complex128)
    real = {("solve", f, f), ("eigh", f)}
    for n, delta, want in (
        (models.CAYLEY_MIN_N - 1, 1.0, {("eig", c)}),
        (models.CAYLEY_MIN_N, 1.0, real),
        (200, 0.0, real),  # some rows are solved twice
    ):
        gammas = sample_eta_batch(SeededRng(51), EnsembleParams(n, 2.0, delta), 3)
        calls.clear()
        models._eigenpairs(gammas)
        assert set(calls) == want, n


def _cyclic_shift_rows(n):
    # zero interior coefficients and last coefficient 1: a cyclic shift with
    # eigenvalue exactly 1, whose symmetric CMV matrix has entries that are
    # multiples of 1/2.  The second row has a first coefficient of 0.3
    gammas = np.zeros((2, n), dtype=np.complex128)
    gammas[:, -1] = 1.0
    gammas[1, 0] = 0.3
    return gammas


def _widest_gap(u):
    """Angle of the eigenvalue that ends the widest eigenvalue gap of each matrix, and that gap."""
    angles = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(angles, axis=-1, prepend=angles[:, -1:] - TWO_PI)
    widest = gaps.argmax(axis=-1)[:, None]
    return np.take_along_axis(angles, widest, -1)[:, 0], np.take_along_axis(gaps, widest, -1)[:, 0]


def _pole_records(caplog):
    return [r.getMessage() for r in caplog.records if r.msg.startswith("cayley pole moved")]


def test_cayley_pole_on_an_exact_eigenvalue_moves():
    # Y is singular at the first pole: the solve fails and the pole turns
    n = 65
    gammas = _cyclic_shift_rows(n)
    thetas, weights = spectra_from_gammas(gammas)
    assert np.max(np.abs(thetas[0] - TWO_PI * np.arange(n) / n)) <= 1e-12
    assert np.max(np.abs(weights[0] - 1.0 / n)) <= 1e-12
    angle_gap, weight_gap = _circular_match(thetas[1], weights[1], _oracle(gammas[1]))
    assert angle_gap <= 1e-12 and weight_gap <= 1e-12


def test_cayley_pole_on_a_sampled_eigenvalue_moves_once(monkeypatch):
    # rotate one eigenvalue of each matrix onto the first pole: every row's
    # transform has an x of about 1e15, whose rounding in `eigh` swamps its
    # other x, and fails its residual.  Turning its pole by pi / n keeps the
    # moved pole off the eigenvalues: 3 of 40 rows needed a third solve here,
    # against 17 with the pole put in the widest gap of those x
    solve = np.linalg.eigh
    passes = []

    def spy(h):
        passes.append(h.shape[0])
        return solve(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    bands = _symmetric_bands(61, 50, 0.0, 40)
    picked = np.linalg.eigvals(models._band_dense(bands[0]))[:, :1, None]
    angle_gap, weight_gap = _cayley_against_schur(_turned(bands, -np.angle(picked)))
    assert passes[:2] == [40, 40] and sum(passes[2:]) <= 8
    assert angle_gap <= 1e-12 and weight_gap <= 1e-12


def test_cayley_row_failing_its_residual_is_solved_again(monkeypatch, caplog):
    # a failed residual alone sends a row to a second solve, with its norm below n
    residual, sizes = models._eigenpair_residual, []

    def failing_once(product, lam, vec):
        out = residual(product, lam, vec)
        if not sizes:
            out[1] = 1.0
        sizes.append(out.size)
        return out

    monkeypatch.setattr(models, "_eigenpair_residual", failing_once)
    bands = _symmetric_bands(48, 64, 1.0, 4)
    end, width = _widest_gap(models._band_dense(bands[0]))
    with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
        lam, _, res = models._cayley_eigenpairs(*_turned(bands, (0.5 * width - end)[:, None, None]))
    assert sizes == [4, 1]
    assert _pole_records(caplog) == [
        "cayley pole moved in 1 of 4 rows (0 turned after a singular solve)"
    ]
    models._check_eigenpairs(res, lam)


def test_cayley_pole_moves_are_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
        spectra_from_gammas(_cyclic_shift_rows(65))
    assert _pole_records(caplog) == [
        "cayley pole moved in 2 of 2 rows (2 turned after a singular solve)"
    ]
    caplog.clear()
    # at n = 16 too, Y of the first row is exactly singular at the pole 1:
    # the stacked solve fails and turns both poles
    with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
        angle_gap, weight_gap = _cayley_against_schur(_bands_of(_cyclic_shift_rows(16)))
    assert _pole_records(caplog) == [
        "cayley pole moved in 2 of 2 rows (2 turned after a singular solve)"
    ]
    assert angle_gap <= 1e-12 and weight_gap <= 1e-12
    caplog.clear()
    # rotated so that the pole 1 sits mid-gap: max |x| <= cot(pi / 2n) < n
    bands = _symmetric_bands(48, 64, 1.0, 4)
    end, width = _widest_gap(models._band_dense(bands[0]))
    with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
        models._cayley_eigenpairs(*_turned(bands, (0.5 * width - end)[:, None, None]))
    assert _pole_records(caplog) == []


def test_cayley_solves_a_row_twice_only_when_its_norm_exceeds_n(monkeypatch):
    # each eigh call records max |x| and the first-row weights of its rows
    solve = np.linalg.eigh
    passes = []

    def spy(h):
        x, vec = solve(h)
        passes.append((np.abs(x).max(axis=-1), np.abs(vec[..., 0, :]) ** 2))
        return x, vec

    monkeypatch.setattr(np.linalg, "eigh", spy)
    n, count, twice = 200, 10, 0
    for delta in (0.0, 1.0):
        passes.clear()
        models._cayley_eigenpairs(*_symmetric_bands(49, n, delta, count))
        (first, first_w), *rest = passes
        assert first.size == count and len(rest) <= 1
        far = first > n
        final = first.copy()
        if rest:
            (second, second_w), = rest
            # the second pass solves the rows over the bound, in order: the
            # same eigenvectors, seen from another pole
            assert second.size == np.count_nonzero(far)
            same = np.abs(np.sort(second_w, -1) - np.sort(first_w[far], -1))
            assert np.all(same <= 1e-12)
            assert np.all(second <= 2 * n / np.pi)
            final[far] = second
        else:
            assert not far.any()
        assert np.all(final <= n)
        twice += np.count_nonzero(far)
    assert 0 < twice < 2 * count


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_cayley_solve_on_both_sides_of_its_norm_bound(n, steps, caplog):
    # the nearest eigenvalue at d = steps / n from the first pole gives
    # max |x| = cot(d / 2): about 2n (solved again), just under n and about
    # n / 2 (solved once)
    d = steps / n
    bands = _symmetric_bands(50, n, 1.0, 2)
    end, width = _widest_gap(models._band_dense(bands[0]))
    assert np.all(width > 2 * d)  # the eigenvalue before the gap stays farther than d
    with caplog.at_level(logging.DEBUG, logger="circjacobi.models"):
        angle_gap, weight_gap = _cayley_against_schur(_turned(bands, (d - end)[:, None, None]))
    assert len(_pole_records(caplog)) == (steps == 1)
    assert angle_gap <= 1e-12 and weight_gap <= 1e-12


@pytest.mark.parametrize("n", [2, 8, 50, 200])
def test_inverse_map_recovers_sampled_gammas(n):
    # output-side oracle with no second eigensolver: the coefficients read
    # back from each sampled spectrum are the ones it was built from
    rows = {2: 6, 8: 6, 50: 3, 200: 2}[n]
    worst, inverted = 0.0, 0
    for beta in (0.5, 2.0, 4.0):
        for delta in (0.0, 1.0, 1 + 1j, 0.5 * beta * n):
            for row in sample_eta_batch(SeededRng(100 + n), EnsembleParams(n, beta, delta), rows):
                thetas, weights = spectra_from_gammas(row[None, :])
                if weights.min() < WEIGHT_FLOOR:
                    # such a weight is accurate in absolute, not relative, terms, and
                    # the map back to coefficients needs it to relative precision
                    continue
                alphas = verblunsky_from_measure(SpectralMeasure(thetas[0], weights[0]))
                worst = max(worst, np.max(np.abs(gamma_from_alpha(alphas).gammas - row)))
                inverted += 1
    assert inverted >= 10 * rows
    assert worst <= MEASURE_ROUNDTRIP_TOL


@pytest.mark.parametrize("build", [
    lambda: DeformedCoeffs([np.nan, 1.0]),
    lambda: VerblunskyCoeffs([0.1, np.nan]),
    lambda: DenseUnitary.from_entries([[np.nan, 0.0], [0.0, 1.0]]),
    lambda: SpectralMeasure([0.0, np.nan], [0.5, 0.5]),
    lambda: spectra_from_gammas([[np.nan, 1.0]]),
], ids=["deformed", "verblunsky", "dense-unitary", "spectral-measure", "spectra"])
def test_nan_is_rejected(build):
    with pytest.raises(InvariantError):
        build()


@pytest.mark.parametrize("path", ["spectral_measure", "eig", "eigh"])
def test_perturbed_eigenvector_fails_eigenpair_check(path, monkeypatch):
    owner, name = (scipy.linalg, "schur") if path == "spectral_measure" else (np.linalg, path)
    solve = getattr(owner, name)

    def perturbed(*args, **kwargs):
        values, vectors = solve(*args, **kwargs)
        vectors = vectors.copy()
        vectors[..., 0, 0] += 1e-6
        return values, vectors

    monkeypatch.setattr(owner, name, perturbed)
    if path == "eigh":
        monkeypatch.setattr(models, "CAYLEY_MIN_N", 1)
    gammas = sample_eta_batch(SeededRng(45), EnsembleParams(6, 2.0, 1.0), 3)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        if path == "spectral_measure":
            spectral_measure(reflection_product(DeformedCoeffs(gammas[0])))
        else:
            spectra_from_gammas(gammas)


def test_perturbed_cayley_eigenvalue_only_steers_the_pole(monkeypatch):
    # the eigenvalues are read from the eigenvectors; x only chooses the pole
    solve = np.linalg.eigh

    def perturbed(h):
        values, vectors = solve(h)
        return values + 1e-6, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    gammas = sample_eta_batch(SeededRng(45), EnsembleParams(64, 2.0, 0.0), 4)
    thetas, weights = spectra_from_gammas(gammas)
    for row, t, w in zip(gammas, thetas, weights):
        want = _oracle(row)
        assert np.abs(t - want.thetas).max() <= 1e-12 and np.abs(w - want.weights).max() <= 1e-12


def test_perturbed_cayley_solve_fails_eigenpair_check(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    gammas = sample_eta_batch(SeededRng(45), EnsembleParams(models.CAYLEY_MIN_N, 2.0, 1.0), 3)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        spectra_from_gammas(gammas)


def test_matrix_json_roundtrip(gen):
    u = ggt_from_alpha(random_alphas(gen, 5))
    data = matrix_to_json_dict(u, beta=2.0, delta=[0.0, 0.0], seed=1)
    back = matrix_from_json_dict(data)
    assert np.max(np.abs(back.entries - u.entries)) < 1e-15
    assert data["n"] == 5 and data["beta"] == 2.0
