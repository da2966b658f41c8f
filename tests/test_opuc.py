import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from circjacobi import (
    DegenerateCoefficientError,
    DeformedCoeffs,
    DiskDensitySpec,
    EnsembleParams,
    InvariantError,
    NumericDegeneracyError,
    ParameterError,
    PoleError,
    SpectralMeasure,
    VerblunskyCoeffs,
    alpha_from_gamma,
    b_const,
    b_const_finite_n,
    caratheodory_schur,
    char_poly_at_one,
    gamma_from_alpha,
    gamma_functions_at,
    ggt_from_alpha,
    haar_grid,
    lambda_delta_density,
    limit_params,
    potential_q,
    rate_function,
    reflection_product,
    spectral_measure,
    szego_polynomials,
    szego_values,
    verblunsky_from_measure,
)
from circjacobi.opuc import (
    TWO_PI,
    _arnoldi_alphas,
    alpha_rows,
    circle_angles,
    coeffs_from_pairs,
    coeffs_to_pairs,
    gamma_rows,
    law_tilt,
    nonnegative_tilt,
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

    @pytest.mark.parametrize("n", [np.nan, np.inf, 1.5, 0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError):
            EnsembleParams(n, 2.0)


NON_FINITE_TILTS = [np.nan, np.inf, complex(1.0, np.nan), complex(np.inf, 1.0)]


class TestCircleAngles:
    def test_reduces_into_the_half_open_circle(self):
        x = np.array([-1e-17, -0.0, 0.0, 1.0, TWO_PI, -TWO_PI, 7.0, -1.0, 1e3])
        assert np.mod(-1e-17, TWO_PI) == TWO_PI  # the rounding that circle_angles undoes
        th = circle_angles(x)
        assert np.all((th >= 0.0) & (th < TWO_PI))
        assert th[0] == 0.0
        assert np.array_equal(th[1:], np.mod(x[1:], TWO_PI))

    def test_measure_stores_an_atom_just_below_zero_at_zero(self):
        m = SpectralMeasure([-1e-17, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert m.thetas.tolist() == [0.0, 1.0, 2.0]


class TestTiltDomains:
    def test_law_domain_is_re_above_minus_half(self):
        assert law_tilt(-0.49 + 3j) == -0.49 + 3j
        for delta in (-0.5, -0.5 + 1j, -2.0):
            with pytest.raises(ParameterError):
                law_tilt(delta)

    def test_nonnegative_domain_is_re_at_least_zero(self):
        assert nonnegative_tilt(0.0) == 0j and nonnegative_tilt(2j) == 2j
        for delta in (-1e-300, -0.25 + 1j):
            with pytest.raises(ParameterError):
                nonnegative_tilt(delta)

    @pytest.mark.parametrize("delta", NON_FINITE_TILTS)
    def test_non_finite_tilt_rejected_at_every_entry_point(self, delta):
        # `sample_lambda_delta` is tested in a child process (test_sampling)
        calls = [
            lambda: EnsembleParams(4, 2.0, delta),
            lambda: DiskDensitySpec(1.5, delta),
            lambda: lambda_delta_density(delta, 1.0),
            lambda: limit_params(delta),
            lambda: b_const(delta),
            lambda: b_const_finite_n(delta, 50),
            lambda: potential_q(delta, 1.0),
            lambda: rate_function(delta, haar_grid(64)),
        ]
        for call in calls:
            with pytest.raises(ParameterError):
                call()


class TestSzegoStep:
    def test_zero_coefficient_gives_z(self):
        phi, phi_star = szego_polynomials([0.0])
        assert np.allclose(phi[1], [0.0, 1.0])
        assert np.allclose(phi_star[1], [1.0, 0.0])

    def test_first_step_general(self):
        a = 0.3 - 0.4j
        phi, _ = szego_polynomials([a])
        assert np.allclose(phi[1], [-np.conj(a), 1.0])

    def test_two_steps_match_independent_expansion(self):
        # oracle: expand the recursion with generic polynomial arithmetic
        a0, a1 = 0.5, 0.5j
        phi1 = npoly.polysub(npoly.polymulx([1.0]), np.conj(a0) * np.array([1.0]))
        star1 = np.conj(phi1[::-1])
        phi2 = npoly.polysub(npoly.polymulx(phi1), np.conj(a1) * star1)
        phi, _ = szego_polynomials([a0, a1])
        assert np.allclose(phi[2], phi2, atol=1e-15)
        assert np.allclose(phi[2], [0.5j, -0.5 - 0.25j, 1.0], atol=1e-15)

    def test_degree_increments(self, gen):
        coeffs = random_alphas(gen, 7)
        phi, phi_star = szego_polynomials(coeffs)
        assert phi.shape == phi_star.shape == (8, 8)
        assert [np.flatnonzero(row).max() for row in phi] == list(range(8))

    def test_rows_are_monic_and_star_is_reversed_conjugate(self, gen):
        coeffs = random_alphas(gen, 9)
        phi, phi_star = szego_polynomials(coeffs)
        for k in range(10):
            assert phi[k, k] == 1.0
            assert not phi[k, k + 1:].any() and not phi_star[k, k + 1:].any()
            assert np.array_equal(phi_star[k, : k + 1], np.conj(phi[k, k::-1]))

    def test_modulus_precondition(self):
        with pytest.raises(ParameterError):
            szego_polynomials([1.5])

    def test_pointwise_recursion_on_circle(self, gen):
        coeffs = random_alphas(gen, 12)
        phi, phi_star = szego_polynomials(coeffs)
        zs = np.exp(1j * gen.uniform(0.0, TWO_PI, 50))
        vals, star_vals = npoly.polyval(zs, phi.T), npoly.polyval(zs, phi_star.T)
        for j, a in enumerate(coeffs.alphas):
            lhs = vals[j + 1]
            rhs = zs * vals[j] - np.conj(a) * star_vals[j]
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
        # the recursion on a one-row (1, n) stack with the vectorized phase of
        # each prefix, one call per step, gives bit for bit the same coefficients
        gen = np.random.default_rng(8)
        for n in list(range(1, 65)) * 2:
            alphas = random_alphas(gen, n).alphas
            reference = np.empty((1, n), dtype=np.complex128)
            phase = np.ones(1, dtype=np.complex128)
            for k in range(n):
                reference[:, k] = np.conj(alphas[None, k]) * phase
                if k < n - 1:
                    phase = phase * np.conj(reflection_phases(reference[:, : k + 1])[:, k])
            assert np.array_equal(gamma_from_alpha(VerblunskyCoeffs(alphas)).gammas, reference[0])

    def test_gamma_rows_match_the_one_row_map(self):
        gen = np.random.default_rng(10)
        for n in (1, 2, 7, 64):
            stack = np.array([random_alphas(gen, n).alphas for _ in range(5)])
            rows = gamma_rows(stack)
            assert rows.shape == stack.shape
            for alphas, row in zip(stack, rows):
                assert np.array_equal(row, gamma_from_alpha(VerblunskyCoeffs(alphas)).gammas)
        # row 3 holds the plain coefficients of deformed ones whose index 2 equals 1
        gammas = np.array([0.3j, -0.2 + 0.1j, 1.0 - 5e-15])
        phases = np.conj((1.0 - gammas[:2]) / (1.0 - np.conj(gammas[:2])))
        stack = np.array([random_alphas(gen, 4).alphas for _ in range(5)])
        stack[3, :3] = np.conj(gammas) * np.concatenate(([1.0], np.cumprod(phases)))
        with pytest.raises(DegenerateCoefficientError, match="coefficient 2 "):
            gamma_rows(stack)

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
        phi, _ = szego_polynomials(coeffs)
        for _ in range(50):
            z = gen.uniform(0, 0.9) * np.exp(1j * gen.uniform(0, TWO_PI))
            vals = gamma_functions_at(coeffs, z)
            for k in range(1, 11):
                lhs = complex(np.prod(z - vals[:k]))
                rhs = complex(npoly.polyval(z, phi[k]))
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
            for got, rows in zip((phi, phi_star), szego_polynomials(coeffs)):
                ref = npoly.polyval(zs, rows.T)
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

    @pytest.mark.parametrize("delta", [1.0, 1 + 0.5j, 2.5])
    def test_tilted_circle_law_has_closed_form_gammas(self, delta):
        # the beta = 2 oracle: the weight of `lambda_delta_density` has
        # gamma_k = -delta/(k + 1 + conj(delta)).  Arnoldi runs on a 2^16-node
        # midpoint rule; the first 12 gammas depend only on the 12 alphas, so any
        # unimodular last entry will do.  The rule reads 2e-16 to 4e-16 here; at
        # delta = 0.2 - 2i the weight's cusp at theta = 0 limits it to 1.3e-6
        count, nodes = 12, 2**16
        thetas = (np.arange(nodes) + 0.5) * (TWO_PI / nodes)
        weights = lambda_delta_density(delta, thetas)
        alphas = _arnoldi_alphas(thetas, weights / weights.sum(), count)
        gammas = gamma_from_alpha(VerblunskyCoeffs(np.append(alphas, 1.0))).gammas[:count]
        k = np.arange(count)
        assert np.max(np.abs(gammas + delta / (k + 1 + np.conj(delta)))) <= 1e-14

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
