import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from circjacobi import (
    DegenerateCoefficientError,
    DeformedCoeffs,
    EnsembleParams,
    InvariantError,
    MonicPolyPair,
    NumericDegeneracyError,
    ParameterError,
    PoleError,
    SpectralMeasure,
    VerblunskyCoeffs,
    alpha_from_gamma,
    caratheodory_schur,
    char_poly_at_one,
    gamma_from_alpha,
    gamma_functions_at,
    ggt_from_alpha,
    reflection_product,
    spectral_measure,
    szego_polynomials,
    szego_step,
    szego_values,
    verblunsky_from_measure,
)
from circjacobi.opuc import (
    TWO_PI,
    alpha_rows,
    coeffs_from_pairs,
    coeffs_to_pairs,
    reflection_phases,
)

from conftest import random_alphas


class TestTypes:
    def test_interior_coefficient_on_circle_rejected(self):
        with pytest.raises(InvariantError):
            VerblunskyCoeffs([1.0, 1.0])

    def test_last_coefficient_off_circle_rejected(self):
        with pytest.raises(InvariantError):
            VerblunskyCoeffs([0.2, 0.9])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantError):
            SpectralMeasure([0.0, 1.0], [0.5, 0.4])

    def test_coincident_atoms_rejected(self):
        with pytest.raises(InvariantError):
            SpectralMeasure([1.0, 1.0 + 1e-12], [0.5, 0.5])

    @pytest.mark.parametrize("beta,delta", [
        (np.inf, 0.0), (np.nan, 0.0),
        (2.0, complex(np.inf, 0.0)), (2.0, complex(np.nan, 0.0)),
        (2.0, complex(1.0, np.inf)), (2.0, complex(1.0, -np.inf)), (2.0, complex(1.0, np.nan)),
    ])
    def test_non_finite_ensemble_parameters_rejected(self, beta, delta):
        with pytest.raises(ParameterError):
            EnsembleParams(4, beta, delta)

    def test_monic_pair_requires_unit_leading_coefficient(self):
        with pytest.raises(InvariantError):
            MonicPolyPair([0.0, 2.0], [2.0, 0.0])


class TestSzegoStep:
    def test_zero_coefficient_gives_z(self):
        pair = szego_step(MonicPolyPair.one(), 0.0)
        assert np.allclose(pair.phi, [0.0, 1.0])
        assert np.allclose(pair.phi_star, [1.0, 0.0])

    def test_first_step_general(self):
        a = 0.3 - 0.4j
        pair = szego_step(MonicPolyPair.one(), a)
        assert np.allclose(pair.phi, [-np.conj(a), 1.0])

    def test_two_steps_match_independent_expansion(self):
        # oracle: expand the recursion with generic polynomial arithmetic
        a0, a1 = 0.5, 0.5j
        phi1 = npoly.polysub(npoly.polymulx([1.0]), np.conj(a0) * np.array([1.0]))
        star1 = np.conj(phi1[::-1])
        phi2 = npoly.polysub(npoly.polymulx(phi1), np.conj(a1) * star1)
        chain = szego_polynomials([a0, a1])
        assert np.allclose(chain[2].phi, phi2, atol=1e-15)
        assert np.allclose(chain[2].phi, [0.5j, -0.5 - 0.25j, 1.0], atol=1e-15)

    def test_degree_increments(self, gen):
        coeffs = random_alphas(gen, 7)
        chain = szego_polynomials(coeffs)
        assert [p.degree for p in chain] == list(range(8))

    def test_modulus_precondition(self):
        with pytest.raises(ParameterError):
            szego_step(MonicPolyPair.one(), 1.5)

    def test_pointwise_recursion_on_circle(self, gen):
        coeffs = random_alphas(gen, 12)
        chain = szego_polynomials(coeffs)
        zs = np.exp(1j * gen.uniform(0.0, TWO_PI, 50))
        for j, a in enumerate(coeffs.alphas):
            lhs = chain[j + 1].eval_phi(zs)
            rhs = zs * chain[j].eval_phi(zs) - np.conj(a) * chain[j].eval_phi_star(zs)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestCoefficientBijection:
    def test_first_coefficient_is_conjugate(self):
        coeffs = VerblunskyCoeffs([0.3, np.exp(0.7j)])
        assert gamma_from_alpha(coeffs).gammas[0] == 0.3

    def test_all_zero_interior(self):
        coeffs = VerblunskyCoeffs([0.0, 0.0, 0.0, 1.0])
        g = gamma_from_alpha(coeffs).gammas
        assert np.allclose(g, [0.0, 0.0, 0.0, 1.0])

    def test_roundtrip_property(self):
        gen = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            n = int(gen.integers(2, 65))
            coeffs = random_alphas(gen, n)
            back = alpha_from_gamma(gamma_from_alpha(coeffs))
            worst = max(worst, float(np.max(np.abs(back.alphas - coeffs.alphas))))
        assert worst < 1e-12

    def test_matches_stepwise_reference(self):
        # the recursion with the vectorized phase of each prefix, one call per
        # step, gives bit for bit the same coefficients
        gen = np.random.default_rng(8)
        for n in list(range(1, 65)) * 2:
            alphas = random_alphas(gen, n).alphas
            reference = np.empty(n, dtype=np.complex128)
            phase = 1.0 + 0.0j
            for k in range(n):
                reference[k] = np.conj(alphas[k]) * phase
                if k < n - 1:
                    phase *= np.conj(reflection_phases(reference[: k + 1])[k])
            assert np.array_equal(gamma_from_alpha(VerblunskyCoeffs(alphas)).gammas, reference)

    def test_rows_match_the_one_row_map(self):
        # each row of the stacked map is bit for bit the one-row map, which is
        # the cumulative phase read out as written here
        gen = np.random.default_rng(9)
        for n in (1, 2, 7, 64):
            stack = np.array([gamma_from_alpha(random_alphas(gen, n)).gammas for _ in range(5)])
            rows = alpha_rows(stack)
            for g, row in zip(stack, rows):
                phases = np.cumprod(np.conj((1.0 - g[:-1]) / (1.0 - np.conj(g[:-1]))))
                reference = np.conj(g) * np.concatenate(([1.0 + 0.0j], phases))
                assert np.array_equal(row, reference)
                assert np.array_equal(row, alpha_from_gamma(DeformedCoeffs(g)).alphas)
        stack[3, 2] = 1.0 - 5e-15
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            alpha_rows(stack)

    def test_modulus_preserved(self, gen):
        coeffs = random_alphas(gen, 40)
        g = gamma_from_alpha(coeffs).gammas
        assert np.max(np.abs(np.abs(g) - np.abs(coeffs.alphas))) < 1e-13

    def test_pure_phase_inverse(self):
        psi = 1.234
        g = DeformedCoeffs([0.0, 0.0, np.exp(1j * psi)])
        back = alpha_from_gamma(g).alphas
        assert np.allclose(back[:2], 0.0)
        assert abs(back[2] - np.exp(-1j * psi)) < 1e-15

    def test_degenerate_coefficient_raises(self):
        near_one = 1.0 - 5e-15
        with pytest.raises(DegenerateCoefficientError, match="coefficient 0 "):
            gamma_from_alpha(VerblunskyCoeffs([near_one, 1.0]))
        with pytest.raises(DegenerateCoefficientError, match="coefficient 0 "):
            alpha_from_gamma(DeformedCoeffs([near_one, 1.0]))
        # the same coefficient after two regular ones; the plain coefficients
        # are those of these deformed ones, written out by hand
        gammas = np.array([0.3j, -0.2 + 0.1j, near_one])
        phases = np.conj((1.0 - gammas[:2]) / (1.0 - np.conj(gammas[:2])))
        alphas = np.conj(gammas) * np.concatenate(([1.0], np.cumprod(phases)))
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            gamma_from_alpha(VerblunskyCoeffs([*alphas, 1.0]))
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            alpha_from_gamma(DeformedCoeffs([*gammas, 1.0]))


class TestGammaFunctions:
    def test_value_at_one_matches_bijection(self, gen):
        coeffs = random_alphas(gen, 9)
        vals = gamma_functions_at(coeffs, 1.0)
        assert np.allclose(vals, gamma_from_alpha(coeffs).gammas, atol=1e-12)

    def test_zero_coefficients_vanish(self):
        coeffs = VerblunskyCoeffs([0.0, 0.0, np.exp(0.3j)])
        vals = gamma_functions_at(coeffs, 0.4 + 0.2j)
        assert np.allclose(vals[:2], 0.0, atol=1e-15)

    def test_unit_modulus_on_circle(self, gen):
        coeffs = random_alphas(gen, 8)
        z = np.exp(1j * gen.uniform(0, TWO_PI))
        vals = gamma_functions_at(coeffs, z)
        assert np.max(np.abs(np.abs(vals) - np.abs(coeffs.alphas))) < 1e-12

    def test_polynomial_factorization(self, gen):
        coeffs = random_alphas(gen, 10)
        chain = szego_polynomials(coeffs)
        for _ in range(50):
            z = gen.uniform(0, 0.9) * np.exp(1j * gen.uniform(0, TWO_PI))
            vals = gamma_functions_at(coeffs, z)
            for k in range(1, 11):
                lhs = complex(np.prod(z - vals[:k]))
                rhs = complex(chain[k].eval_phi(z))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)

    def test_pole_error(self):
        coeffs = VerblunskyCoeffs([0.5, 1.0])
        with pytest.raises(PoleError):
            gamma_functions_at(coeffs, 0.5)  # Phi_1(z) = z - 0.5 vanishes
        with pytest.raises(PoleError, match=r"Phi_1\(z\) vanishes at z=\(0\.5\+0j\)"):
            gamma_functions_at(coeffs, [0.1j, 0.5, 0.2])

    def test_array_equals_per_point_calls(self, gen):
        coeffs = random_alphas(gen, 12)
        zs = np.sqrt(gen.uniform(0, 1, (3, 7))) * np.exp(1j * gen.uniform(0, TWO_PI, (3, 7)))
        zs[0] /= np.abs(zs[0])  # one row on the circle
        vals = gamma_functions_at(coeffs, zs)
        assert vals.shape == (3, 7, 12)
        for idx in np.ndindex(zs.shape):
            assert np.array_equal(vals[idx], gamma_functions_at(coeffs, zs[idx]))


class TestSzegoValues:
    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32, 64])
    def test_matches_coefficient_form(self, gen, n):
        # relative to each degree's largest value over the points: Phi_n has
        # its zeros on the circle, so pointwise relative error is unbounded
        for _ in range(5):
            coeffs = random_alphas(gen, n)
            inside = np.sqrt(gen.uniform(0, 1, 40)) * np.exp(1j * gen.uniform(0, TWO_PI, 40))
            zs = np.concatenate((inside, np.exp(1j * gen.uniform(0, TWO_PI, 40))))
            phi, phi_star = szego_values(coeffs, zs)
            assert phi.shape == phi_star.shape == (n + 1, zs.size)
            chain = szego_polynomials(coeffs)
            for got, ref in ((phi, [p.eval_phi(zs) for p in chain]),
                             (phi_star, [p.eval_phi_star(zs) for p in chain])):
                ref = np.array(ref)
                err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
                assert err.max() <= 1e-12


class TestCharPoly:
    def test_eigenvalue_at_one(self):
        assert char_poly_at_one(DeformedCoeffs([0.0, 1.0])) == 0.0

    def test_direct_product(self):
        theta = 0.9
        val = char_poly_at_one(DeformedCoeffs([0.0, np.exp(1j * theta)]))
        assert abs(val - (1.0 - np.exp(1j * theta))) < 1e-15

    def test_matches_determinant(self, gen):
        # independent oracle: LU-based determinant of the reflection model
        g = gamma_from_alpha(random_alphas(gen, 5))
        u = reflection_product(g)
        det = np.linalg.det(np.eye(5) - u.entries)
        val = char_poly_at_one(g)
        assert abs(det - val) <= 1e-10 * abs(val)


class TestVerblunskyFromMeasure:
    def test_single_atom(self):
        theta = 2.1
        coeffs = verblunsky_from_measure(SpectralMeasure([theta], [1.0]))
        assert abs(coeffs.alphas[0] - np.exp(-1j * theta)) < 1e-14

    def test_two_symmetric_atoms(self):
        # m_1 = 0 forces the first coefficient to vanish; the node polynomial
        # (z-1)(z+1) = z^2 - 1 fixes the last one to +1
        coeffs = verblunsky_from_measure(SpectralMeasure([0.0, np.pi], [0.5, 0.5]))
        assert abs(coeffs.alphas[0]) < 1e-14
        assert abs(coeffs.alphas[1] - 1.0) < 1e-14

    def test_roundtrip_through_matrix_model(self, gen):
        coeffs = random_alphas(gen, 4)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        back = verblunsky_from_measure(measure)
        assert np.max(np.abs(back.alphas - coeffs.alphas)) < 1e-8

    def test_nearly_coincident_atoms_rejected(self):
        measure = SpectralMeasure([1.0, 1.0 + 1e-8, 3.0], [0.3, 0.3, 0.4])
        with pytest.raises(NumericDegeneracyError):
            verblunsky_from_measure(measure)


class TestCaratheodorySchur:
    def test_normalization_at_zero(self, gen):
        coeffs = random_alphas(gen, 5)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        big_f, _ = caratheodory_schur(measure, 0.0)
        assert big_f == 1.0

    def test_roots_of_unity_symmetry(self):
        n = 6
        thetas = TWO_PI * np.arange(n) / n
        measure = SpectralMeasure(thetas, np.full(n, 1.0 / n))
        _, schur = caratheodory_schur(measure, 0.0)
        assert abs(schur) < 1e-14

    def test_schur_value_is_first_coefficient(self, gen):
        coeffs = random_alphas(gen, 6)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        expected = verblunsky_from_measure(measure).alphas[0]
        _, at_zero = caratheodory_schur(measure, 0.0)
        assert abs(at_zero - expected) < 1e-8
        _, nearby = caratheodory_schur(measure, 1e-5)
        assert abs(nearby - expected) < 1e-4

    def test_contraction_property(self, gen):
        coeffs = random_alphas(gen, 5)
        measure = spectral_measure(ggt_from_alpha(coeffs))
        for _ in range(20):
            z = gen.uniform(0, 0.95) * np.exp(1j * gen.uniform(0, TWO_PI))
            _, schur = caratheodory_schur(measure, z)
            assert abs(schur) <= 1.0 + 1e-12

    def test_outside_disk_rejected(self, gen):
        measure = spectral_measure(ggt_from_alpha(random_alphas(gen, 3)))
        with pytest.raises(ParameterError):
            caratheodory_schur(measure, 1.0)


class TestRotationCovariance:
    def test_rotated_coefficients_rotate_measure(self, gen):
        xi = 0.7
        coeffs = random_alphas(gen, 6)
        rotated = VerblunskyCoeffs(
            coeffs.alphas * np.exp(-1j * (np.arange(6) + 1) * xi)
        )
        base = spectral_measure(ggt_from_alpha(coeffs))
        moved = spectral_measure(ggt_from_alpha(rotated))
        expected = np.sort(np.mod(base.thetas + xi, TWO_PI))
        assert np.max(np.abs(np.sort(moved.thetas) - expected)) < 1e-9
        order_exp = np.argsort(np.mod(base.thetas + xi, TWO_PI))
        assert np.max(np.abs(moved.weights[np.argsort(moved.thetas)]
                             - base.weights[order_exp])) < 1e-9


def test_pair_serialization_roundtrip(gen):
    coeffs = random_alphas(gen, 5)
    pairs = coeffs_to_pairs(coeffs.alphas)
    assert np.allclose(coeffs_from_pairs(pairs), coeffs.alphas)
    with pytest.raises(ParameterError):
        coeffs_from_pairs([[1.0, 2.0, 3.0]])
