import warnings

import numpy as np
import pytest
import scipy.stats

from circjacobi import (
    EmpiricalMeasure,
    EnsembleParams,
    ParameterError,
    SeededRng,
    SpectralMeasure,
    TruncationWarning,
    b_const,
    b_const_finite_n,
    convergence_stats,
    haar_grid,
    ks_distance,
    limit_params,
    log_partition_zst,
    mellin_fourier,
    moment_one_minus_gamma,
    mu_d_cdf,
    mu_d_grid,
    mu_d_moment,
    partition_zst,
    potential_q,
    rate_function,
    sample_cj_spectra,
    sigma_energy,
    w_d,
    weight_gap_stat,
)
from circjacobi import analysis
from circjacobi.gof import partition_quad, tilted_disk_power_moment
from circjacobi.opuc import TWO_PI, _arnoldi_alphas
from circjacobi.tolerances import SE_BOUND, STRUCTURAL_TOL


def closed_form_b(d):
    """Independent oracle: exact antiderivative H(y) = y^2 (2 log y - 1)/4."""
    d = complex(d)

    def anti(y):
        y = complex(y)
        if y == 0:
            return 0.0
        return y * y * (2.0 * np.log(y) - 1.0) / 4.0

    def seg(a):
        return anti(1.0 + a) - anti(a)

    plus = seg(0.0) + seg(2.0 * d.real)
    minus = 2.0 * np.real(seg(d))
    return float(np.real(plus - minus))


class TestLimitParams:
    def test_zero(self):
        lp = limit_params(0.0)
        assert lp.alpha_d == 0 and lp.theta_d == 0 and lp.xi_d == 0

    def test_unit_real(self):
        lp = limit_params(1.0)
        assert abs(lp.alpha_d + 0.5) < 1e-15
        assert abs(lp.theta_d - np.pi / 3.0) < 1e-14
        assert abs(lp.xi_d) < 1e-15

    def test_pure_imaginary_boundary(self):
        lp = limit_params(1j)
        assert abs(lp.theta_d - np.pi / 2) < 1e-14
        assert abs(lp.xi_d - np.pi / 2) < 1e-14
        assert abs(lp.alpha_d - (-1 + 1j) / 2) < 1e-15
        assert abs(abs(lp.alpha_d + 0.5) - 0.5) < 1e-15

    def test_negative_real_part_rejected(self):
        with pytest.raises(ParameterError):
            limit_params(-0.1)


class TestLimitDensity:
    def test_flat_at_zero(self):
        lp = limit_params(0.0)
        assert w_d(lp, 1.7) == 1.0

    def test_support_window_for_unit_real(self):
        lp = limit_params(1.0)
        assert w_d(lp, np.pi / 3 - 0.01) == 0.0
        assert w_d(lp, TWO_PI - np.pi / 3 + 0.01) == 0.0
        assert w_d(lp, np.pi) > 0.0

    @pytest.mark.parametrize("d", [1.0, 2.0, 1j, 1 + 1j, 0.3 + 2j])
    def test_normalization(self, d):
        assert abs(mu_d_grid(limit_params(d)).total() - 1.0) < 1e-8

    @pytest.mark.parametrize("d", [1.0, 1 + 1j])
    def test_first_moment_matches_coefficient_prediction(self, d):
        lp = limit_params(d)
        predicted = np.conj(lp.alpha_d * np.exp(-1j * lp.xi_d))
        assert abs(mu_d_moment(lp, 1) - predicted) < 1e-10

    def test_discretization_recovers_constant_rotated_coefficients(self):
        # recover the first six recursion coefficients of the limit measure
        # from a fine discretization; they follow a constant rotated pattern
        lp = limit_params(1 + 1j)
        grid = mu_d_grid(lp, panels=64, order=48)
        weights = grid.weights / grid.weights.sum()
        alphas = _arnoldi_alphas(grid.thetas, weights, 6)
        ks = np.arange(6)
        expected = lp.alpha_d * np.exp(-1j * (ks + 1) * lp.xi_d)
        assert abs(alphas[0] - expected[0]) < 1e-4
        assert np.max(np.abs(alphas - expected)) < 1e-3

    def test_cdf_monotone_and_clamped(self):
        lp = limit_params(1.0)
        ts = np.linspace(0, TWO_PI, 301)
        vals = mu_d_cdf(lp, ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0 and abs(vals[-1] - 1.0) < 1e-9
        assert mu_d_cdf(lp, np.pi / 3) == 0.0

    def test_cdf_flat_case(self):
        lp = limit_params(0.0)
        assert abs(mu_d_cdf(lp, np.pi) - 0.5) < 1e-15


class TestMellinFourier:
    def test_trivial_exponents(self):
        params = EnsembleParams(7, 2.0, 1 + 1j)
        assert abs(mellin_fourier(params, 0.0, 0.0) - 1.0) < 1e-14

    def test_single_flat_factor(self):
        # n=1, no tilt, t=2: second absolute moment of |1 - uniform point| is 2
        params = EnsembleParams(1, 2.0, 0.0)
        assert abs(mellin_fourier(params, 0.0, 2.0) - 2.0) < 1e-14

    def test_factorizes_over_coefficients(self):
        params = EnsembleParams(6, 3.0, 0.7 + 0.4j)
        for s, t in ((0.0, 1.0), (1.0, 2.0), (-0.5, 1.5)):
            whole = mellin_fourier(params, s, t)
            u, v = 0.5 * (t + s), 0.5 * (t - s)
            parts = np.prod(
                [
                    tilted_disk_power_moment(
                        params.beta_half * (params.n - k - 1), params.delta, u, v
                    )
                    for k in range(params.n)
                ]
            )
            assert abs(whole - parts) <= 1e-10 * abs(whole)

    def test_domain(self):
        with pytest.raises(ParameterError):
            mellin_fourier(EnsembleParams(2, 2.0, 0.0), 0.0, -0.6)


class TestCoefficientMoments:
    def test_zeroth_power(self):
        params = EnsembleParams(5, 2.0, 1 + 1j)
        assert abs(moment_one_minus_gamma(2, params, 0.0) - 1.0) < 1e-14

    def test_first_power_recurrence(self):
        params = EnsembleParams(5, 2.0, 1.0 + 0.5j)
        a = params.beta_half * (5 - 1 - 1)
        d = params.delta
        expected = (a + 2 * d.real + 1) / (a + np.conj(d) + 1)
        assert abs(moment_one_minus_gamma(1, params, 1.0) - expected) < 1e-14

    def test_scaling_limit(self):
        n, d = 10_000, 1.0
        params = EnsembleParams(n, 2.0, n * d)  # beta' = 1
        limit = (1 + d + d) / (1 + d)
        val = moment_one_minus_gamma(3, params, 1.0)
        assert abs(val - limit) < 1e-3


class TestPartitionFunction:
    def test_no_tilt_value(self):
        import scipy.special as sc

        for n, beta in ((3, 2.0), (4, 4.0)):
            bh = beta / 2
            expected = sc.gamma(bh * n + 1) / sc.gamma(bh + 1) ** n
            assert abs(partition_zst(n, beta, 0.0, 0.0) - expected) < 1e-12 * expected

    def test_quadrature_n1(self):
        got = partition_zst(1, 2.0, 1.0, 1.0)
        ref = partition_quad(1, 2.0, 1.0, 1.0)
        assert abs(got - ref) <= 1e-6 * abs(ref)
        assert abs(got - 2.0) < 1e-12  # Gamma(3)/Gamma(2)^2

    def test_quadrature_n2(self):
        got = partition_zst(2, 2.0, 1.0, 1.0)
        ref = partition_quad(2, 2.0, 1.0, 1.0)
        assert abs(got - ref) <= 1e-5 * abs(ref)

    def test_log_form_is_finite_at_scale(self):
        val = log_partition_zst(400, 2.0, 400.0, 400.0)
        assert np.isfinite(val.real)


class TestBConst:
    def test_zero(self):
        assert abs(b_const(0.0)) < 1e-12

    @pytest.mark.parametrize("d", [1.0, 2.0, 1j, 1 + 1j])
    def test_against_antiderivative_oracle(self, d):
        assert abs(b_const(d) - closed_form_b(d)) < 1e-10

    @pytest.mark.parametrize("d", [1.0, 1j])
    def test_finite_size_route(self, d):
        assert abs(b_const(d) - b_const_finite_n(d, 400)) < 0.02

    def test_domain(self):
        with pytest.raises(ParameterError):
            b_const(-0.5)


class TestPotential:
    def test_zero_parameter(self):
        assert potential_q(0.0, 1.1) == 0.0

    def test_unit_real_at_pi(self):
        assert abs(potential_q(1.0, np.pi) + 2.0 * np.log(2.0)) < 1e-15

    def test_pure_imaginary_at_pi(self):
        assert potential_q(1j, np.pi) == 0.0

    def test_extended_values_at_one(self):
        assert potential_q(1.0, 0.0) == np.inf
        assert potential_q(1j, 0.0) == -np.pi
        assert potential_q(0.0, 0.0) == 0.0


class TestSigmaEnergy:
    def test_flat_measure(self):
        assert abs(sigma_energy(haar_grid())) < 1e-12

    def test_point_mass_sentinel(self):
        assert sigma_energy(EmpiricalMeasure([1.0], [1.0])) == -np.inf

    def test_truncation_stability(self):
        grid = mu_d_grid(limit_params(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s200 = sigma_energy(grid, kmax=200)
            s400 = sigma_energy(grid, kmax=400)
        assert abs(s200 - s400) < 1e-4

    def test_octave_moments_match_direct_sums(self):
        grid = mu_d_grid(limit_params(1.0 + 0.5j), panels=16, order=8)
        phases = np.exp(1j * grid.thetas)
        moments, after = analysis._moment_octave(grid.weights * phases**5, phases, 23)
        assert np.abs(moments - [grid.moment(k) for k in range(6, 29)]).max() <= 1e-13
        assert np.abs(after - grid.weights * phases**28).max() <= 1e-14

    def test_needs_a_term(self):
        with pytest.raises(ParameterError):
            sigma_energy(haar_grid(), kmax=0)

    def test_truncation_warning_on_slow_decay(self):
        grid = mu_d_grid(limit_params(1j), panels=64, order=32)
        with pytest.warns(TruncationWarning):
            sigma_energy(grid, kmax=48)

    def test_known_value_at_boundary_case(self):
        # the pure-imaginary case has entropy exactly -log 2
        val = sigma_energy(mu_d_grid(limit_params(1j)))
        assert abs(val + np.log(2.0)) < 1e-6


class TestRateFunction:
    def test_flat_case_is_exactly_zero(self):
        rep = rate_function(0.0, haar_grid())
        assert abs(rep.rate) < 1e-10

    def test_vanishes_at_minimizer(self):
        rep = rate_function(1.0, mu_d_grid(limit_params(1.0)))
        assert abs(rep.rate) <= 1e-3

    def test_positive_away_from_minimizer(self):
        rep = rate_function(1.0, haar_grid())
        assert rep.rate > 0
        # regression value: B(1) since both other terms vanish for the flat law
        assert abs(rep.rate - 0.78438) < 3e-3

    def test_report_identity(self):
        rep = rate_function(1.0, mu_d_grid(limit_params(1.0)))
        assert rep.rate == -rep.sigma + rep.potential_term + rep.b_const

    def test_atomic_measure_reports_infinite_cost(self):
        rep = rate_function(1.0, EmpiricalMeasure([2.0, 3.0], [0.5, 0.5]))
        assert rep.rate == np.inf

    def test_nonnegative_on_perturbed_family(self):
        gen = np.random.default_rng(5)
        lp = limit_params(1.0)
        base = mu_d_grid(lp)
        for _ in range(5):
            amp = gen.uniform(0.1, 0.5)
            phase = gen.uniform(0, TWO_PI)
            tilted = base.reweighted(lambda t: 1.0 + amp * np.sin(t + phase))
            assert rate_function(1.0, tilted).rate >= -1e-3


class TestKSDistance:
    def test_identical_measures(self):
        m = EmpiricalMeasure([0.3, 2.0], [0.4, 0.6])
        assert ks_distance(m, m) == 0.0

    def test_disjoint_single_atoms(self):
        a = EmpiricalMeasure([0.0], [1.0])
        b = EmpiricalMeasure([np.pi], [1.0])
        assert ks_distance(a, b) == 1.0

    def test_matches_reference_ks_statistic(self):
        gen = np.random.default_rng(11)
        samples = gen.uniform(0, TWO_PI, 500)
        cdf = lambda t: np.clip(np.asarray(t) / TWO_PI, 0, 1)  # noqa: E731
        ours = ks_distance(EmpiricalMeasure.esd(samples), cdf)
        ref = scipy.stats.kstest(samples, cdf).statistic
        assert abs(ours - ref) < 1e-12

    def test_esd_close_to_limit_for_sampled_spectrum(self):
        from circjacobi import sample_cj_spectrum

        lp = limit_params(1.0)
        measure = sample_cj_spectrum(SeededRng(77), EnsembleParams(200, 2.0, 200.0))
        dist = ks_distance(
            EmpiricalMeasure.esd(measure.thetas), lambda t: mu_d_cdf(lp, t)
        )
        assert dist < 0.15


class TestWeightGap:
    def test_uniform_weights(self):
        m = EmpiricalMeasure([0.1, 1.0, 2.0, 3.0], [0.25] * 4)
        assert weight_gap_stat(m) < 1e-15

    def test_concentrated_limit(self):
        m = EmpiricalMeasure([0.1, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0])
        assert abs(weight_gap_stat(m) - 0.75) < 1e-15

    def test_fourth_moment_matches_beta_formula(self):
        # partial sums of Dirichlet weights are Beta(k, n-k) at unit parameter;
        # oracle: exact central fourth moment of a Beta distribution
        n, k = 100, 30
        a, b = float(k), float(n - k)
        exact = (
            3 * a * b * (2 * a**2 + 2 * b**2 - 2 * a * b + a**2 * b + a * b**2)
            / ((a + b) ** 4 * (a + b + 1) * (a + b + 2) * (a + b + 3))
        )
        rng = SeededRng(13)
        w = rng.generator.dirichlet(np.ones(n), size=40_000)
        s_k = w[:, :k].sum(axis=1)
        dev4 = (s_k - k / n) ** 4
        se = dev4.std(ddof=1) / np.sqrt(dev4.size)
        assert abs(dev4.mean() - exact) <= SE_BOUND * se
        assert exact <= 10.0 * k * (n - k) / n**4

    def test_accepts_every_valid_spectral_measure(self):
        # `SpectralMeasure` admits weight sums within STRUCTURAL_TOL of 1
        w = np.array([0.25, 0.25, 0.5 + 0.5 * STRUCTURAL_TOL])
        m = SpectralMeasure([0.5, 2.0, 4.0], w)
        assert abs(weight_gap_stat(m) - 1.0 / 6.0) < 1e-9
        assert abs(ks_distance(m, lambda t: np.asarray(t) / TWO_PI) - (1.0 - 4.0 / TWO_PI)) < 1e-9

    def test_gap_decays_with_dimension(self):
        rng = SeededRng(14)
        medians = []
        for n in (50, 100, 200):
            stats = []
            for _ in range(60):
                w = rng.generator.dirichlet(np.ones(n))
                m = EmpiricalMeasure(np.linspace(0, TWO_PI, n, endpoint=False), w)
                stats.append(weight_gap_stat(m))
            medians.append(np.median(stats))
        assert medians[0] > medians[1] > medians[2]


class TestConvergenceStats:
    @pytest.mark.parametrize("n", [2, 8, 50])
    @pytest.mark.parametrize("d", [0.0, 1.0, 1 + 0.3j])
    def test_equals_the_per_row_statistics(self, n, d):
        lp = limit_params(d)
        cdf = lambda t: mu_d_cdf(lp, t)  # noqa: E731
        thetas, weights = sample_cj_spectra(SeededRng(15), EnsembleParams(n, 2.0, n * d), 12)
        ks_esd, ks_sp, gap = convergence_stats(thetas, weights, cdf)
        for i in range(thetas.shape[0]):
            spectral = EmpiricalMeasure(thetas[i], weights[i])
            assert ks_esd[i] == ks_distance(EmpiricalMeasure.esd(thetas[i]), cdf)
            assert ks_sp[i] == ks_distance(spectral, cdf)
            assert gap[i] == weight_gap_stat(spectral)

    @pytest.mark.parametrize("fault", [
        "repeated", "descending", "at 2pi", "negative", "weight sum",
    ])
    def test_invalid_rows_rejected(self, fault):
        thetas, weights = sample_cj_spectra(SeededRng(16), EnsembleParams(6, 2.0, 1.0), 4)
        if fault == "repeated":
            thetas[2, 3] = thetas[2, 2]
        elif fault == "descending":
            thetas[2, [2, 3]] = thetas[2, [3, 2]]
        elif fault == "at 2pi":
            thetas[2, -1] = TWO_PI
        elif fault == "negative":
            thetas[2, 0] = -1e-3
        else:
            weights[2] /= weights[2].sum()
            weights[2, 0] += 1e-9
        with pytest.raises(ParameterError):
            convergence_stats(thetas, weights, lambda t: np.asarray(t) / TWO_PI)
