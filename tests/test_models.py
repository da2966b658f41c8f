import numpy as np
import pytest

from circjacobi import (
    DeformedCoeffs,
    DenseUnitary,
    EnsembleParams,
    InvariantError,
    NonCyclicVectorError,
    ParameterError,
    SeededRng,
    VerblunskyCoeffs,
    agr_product,
    alpha_from_gamma,
    char_poly_at_one,
    cmv_from_alpha,
    eigen_unitary,
    gamma_from_alpha,
    ggt_from_alpha,
    reflection_product,
    sample_cj_matrix,
    sample_cj_spectrum,
    sample_eta_batch,
    spectral_measure,
    szego_polynomials,
    verblunsky_from_measure,
)
from circjacobi.models import _xi_block, matrix_from_json_dict, matrix_to_json_dict
from circjacobi.opuc import TWO_PI

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
            block = _xi_block(g, 0)
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

    def test_angles_sorted(self, gen):
        dec = eigen_unitary(ggt_from_alpha(random_alphas(gen, 12)))
        assert np.all(np.diff(dec.angles) >= 0)

    def test_char_poly_consistency_n32(self, gen):
        gammas = gamma_from_alpha(random_alphas(gen, 32))
        dec = eigen_unitary(reflection_product(gammas))
        lhs = complex(np.prod(1.0 - dec.eigenvalues))
        rhs = char_poly_at_one(gammas)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

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

    def test_non_cyclic_first_vector(self):
        u = DenseUnitary.from_entries(np.diag([1.0, -1.0]))
        with pytest.raises(NonCyclicVectorError):
            spectral_measure(u)

    def test_christoffel_weights(self, gen):
        # independent route: weights are reciprocal sums of squared
        # orthonormal polynomial values at the atoms
        coeffs = random_alphas(gen, 8)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        chain = szego_polynomials(coeffs)
        rho = np.sqrt(1.0 - np.abs(coeffs.alphas[:-1]) ** 2)
        norms = np.concatenate(([1.0], np.cumprod(rho)))  # |Phi_k| in L2
        atoms = np.exp(1j * measure.thetas)
        for j, z in enumerate(atoms):
            vals = [chain[k].eval_phi(z) / norms[k] for k in range(8)]
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
            assert abs(diffs.mean()) <= 3.0 * max(se, 1e-12)


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


def test_matrix_json_roundtrip(gen):
    u = ggt_from_alpha(random_alphas(gen, 5))
    data = matrix_to_json_dict(u, beta=2.0, delta=[0.0, 0.0], seed=1)
    back = matrix_from_json_dict(data)
    assert np.max(np.abs(back.entries - u.entries)) < 1e-15
    assert data["n"] == 5 and data["beta"] == 2.0
