import logging
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from circjacobi import (
    DiskDensitySpec,
    EnsembleParams,
    ParameterError,
    PoleError,
    SeededRng,
    complex_log_gamma,
    gamma_k_density,
    lambda_delta_density,
    moment_one_minus_gamma,
    sample_eta,
    sample_eta_batch,
    sample_gamma_k,
    sample_lambda_delta,
    sample_nu_s,
)
from circjacobi.gof import (
    circle_angle_chi2,
    disk_coefficient_chi2,
    disk_integral_quad,
    tilted_disk_power_moment,
)
from circjacobi.opuc import TWO_PI
from circjacobi.sampling import _half_angle
from circjacobi.tolerances import SE_BOUND, SIGNIFICANCE


def mean_within(values, target):
    values = np.asarray(values)
    se = values.std(ddof=1) / np.sqrt(values.size)
    return abs(values.mean() - target) <= SE_BOUND * se


class _AcceptanceLog(logging.Handler):
    """Collects the acceptance rates of the tilted half-angle draws."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.rates = []

    def emit(self, record):
        if record.msg.startswith("tilted half-angle acceptance"):
            self.rates.append(record.args[0])


def half_angle_rates(big_k, m, size):
    logger = logging.getLogger("circjacobi.sampling")
    handler, level = _AcceptanceLog(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        _half_angle(np.random.default_rng(0), big_k, m, size)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.rates


class TestComplexLogGamma:
    def test_classical_values(self):
        assert complex_log_gamma(1.0) == 0.0
        assert abs(complex_log_gamma(0.5) - np.log(np.sqrt(np.pi))) < 1e-14

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        for z in (3 + 4j, 0.1 - 2.3j, 12.7 + 0.9j, -1.5 + 0.5j):
            ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            got = complex_log_gamma(z)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            complex_log_gamma(0.0)
        with pytest.raises(PoleError):
            complex_log_gamma(-3.0)


class TestSeededRng:
    def test_bitwise_reproducibility(self):
        a = sample_gamma_k(SeededRng(99, 4), DiskDensitySpec(2.0, 1 + 1j), size=512)
        b = sample_gamma_k(SeededRng(99, 4), DiskDensitySpec(2.0, 1 + 1j), size=512)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = SeededRng(99, 0).generator.random(16)
        b = SeededRng(99, 1).generator.random(16)
        assert not np.allclose(a, b)

    def test_spawn(self):
        rng = SeededRng(5)
        assert rng.spawn(3).stream_id == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            SeededRng(-1)


class TestNuS:
    def test_unit_circle_case(self):
        z = sample_nu_s(SeededRng(1), 1.0, size=200)
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15

    def test_invalid_s(self):
        with pytest.raises(ParameterError):
            sample_nu_s(SeededRng(1), 0.5)

    def test_s3_radius_squared_uniform(self):
        z = sample_nu_s(SeededRng(2), 3.0, size=100_000)
        _, p = scipy.stats.kstest(np.abs(z) ** 2, lambda x: np.clip(x, 0, 1))
        assert p >= SIGNIFICANCE

    def test_s5_mean_radius_squared(self):
        z = sample_nu_s(SeededRng(3), 5.0, size=100_000)
        assert mean_within(np.abs(z) ** 2, 1.0 / 3.0)


class TestLambdaDelta:
    def test_zero_tilt_is_uniform(self):
        z = sample_lambda_delta(SeededRng(9), 0.0, size=100_000)
        _, p = scipy.stats.kstest(np.mod(np.angle(z), TWO_PI),
                                  lambda t: np.clip(t / TWO_PI, 0, 1))
        assert p >= SIGNIFICANCE

    def test_real_tilt_cosine_mean(self):
        # density 2(1 - cos t)/2 against uniform integrates cos to -1/2
        z = sample_lambda_delta(SeededRng(10), 1.0, size=100_000)
        assert mean_within(z.real, -0.5)

    def test_complex_tilt_matches_density(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="circjacobi.sampling"):
            z = sample_lambda_delta(SeededRng(11), 1 + 1j, size=100_000)
        _, p, _ = circle_angle_chi2(np.angle(z), 1 + 1j)
        assert p >= SIGNIFICANCE
        rates = [rec.args[0] for rec in caplog.records
                 if "half-angle acceptance" in rec.msg]
        assert rates and min(rates) >= 0.5

    @pytest.mark.parametrize("delta", [3j, 8j])
    def test_pure_imaginary_tilt_matches_density(self, delta):
        # Re(delta) = 0: the half angle is a truncated exponential, drawn by inversion
        z = sample_lambda_delta(SeededRng(25), delta, size=100_000)
        _, p, _ = circle_angle_chi2(np.angle(z), delta)
        assert p >= SIGNIFICANCE

    def test_negative_real_part_rejected(self):
        with pytest.raises(ParameterError):
            sample_lambda_delta(SeededRng(12), -0.2)

    def test_density_normalization(self):
        # direct quadrature of the density against uniform measure
        for delta in (0.7, 1 + 1j, -0.3 + 0.2j):
            total, _ = scipy.integrate.quad(
                lambda t: lambda_delta_density(delta, t), 0.0, TWO_PI, limit=200
            )
            assert abs(total / TWO_PI - 1.0) < 1e-8


def half_angle_cdf(big_k, m):
    """cdf of psi ~ cos(psi)^(2K) exp(2 m psi) on a fine grid, by the trapezoid rule."""
    psi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 400_001)[1:-1]
    log_f = 2.0 * big_k * np.log(np.cos(psi)) + 2.0 * m * psi
    cdf = scipy.integrate.cumulative_trapezoid(np.exp(log_f - log_f.max()), psi, initial=0.0)
    return lambda x: np.interp(x, psi, cdf / cdf[-1])


class TestHalfAngle:
    @pytest.mark.parametrize("big_k,m", [
        (50, 4), (50, 6), (200, 50), (0.6, 3), (1e4, 1e3), (2, 0.1), (3, -2), (0, 3), (0, -8),
    ])
    def test_matches_quadrature_cdf(self, big_k, m):
        psi = _half_angle(np.random.default_rng(26), big_k, m, 50_000)
        _, p = scipy.stats.kstest(psi, half_angle_cdf(big_k, m))
        assert p >= SIGNIFICANCE

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(big_k=st.floats(0.0, 1e4),
           m=st.floats(0.0, 1e3, exclude_min=True),
           mirrored=st.booleans())
    def test_acceptance_at_least_half(self, big_k, m, mirrored):
        rates = half_angle_rates(big_k, -m if mirrored else m, 4000)
        assert rates and min(rates) >= 0.5


class TestGammaKDensity:
    def test_zero_tilt_matches_rotation_invariant_law(self):
        spec = DiskDensitySpec(2.5, 0.0)
        z = 0.3 + 0.4j
        expected = (2.5 / np.pi) * (1 - abs(z) ** 2) ** 1.5
        assert abs(gamma_k_density(spec, z) - expected) < 1e-14

    def test_constant_at_origin(self):
        # a=1, delta=1: c = Gamma(3)^2/(pi Gamma(1) Gamma(4)) = 2/(3 pi)
        spec = DiskDensitySpec(1.0, 1.0)
        assert abs(gamma_k_density(spec, 0.0) - 2.0 / (3.0 * np.pi)) < 1e-14

    @pytest.mark.parametrize("a,delta", [(1.0, 1.0), (2.5, 1 + 1j)])
    def test_normalization_by_quadrature(self, a, delta):
        spec = DiskDensitySpec(a, delta)
        from circjacobi.sampling import disk_tilt_norm

        total = disk_tilt_norm(a, delta) * disk_integral_quad(a, np.conj(delta), delta)
        assert abs(total - 1.0) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            gamma_k_density(DiskDensitySpec(1.0, 0.0), 1.2)

    @pytest.mark.parametrize("a,delta", [
        (np.inf, 0.0), (np.nan, 0.0),
        (1.0, complex(np.inf, 0.0)), (1.0, complex(np.nan, 0.0)),
        (1.0, complex(1.0, np.inf)), (1.0, complex(1.0, -np.inf)), (1.0, complex(1.0, np.nan)),
    ])
    def test_non_finite_parameters_rejected(self, a, delta):
        with pytest.raises(ParameterError):
            DiskDensitySpec(a, delta)

    def test_pole_warning_for_negative_tilt(self):
        spec = DiskDensitySpec(1.0, -0.3)
        with pytest.warns(RuntimeWarning):
            gamma_k_density(spec, 1.0 - 1e-9)


class TestSampleGammaK:
    def test_zero_tilt_reduces_to_rotation_invariant_law(self):
        a = 2.0
        z = sample_gamma_k(SeededRng(13), DiskDensitySpec(a, 0.0), size=100_000)
        _, p = scipy.stats.kstest(np.abs(z) ** 2, scipy.stats.beta(1.0, a).cdf)
        assert p >= SIGNIFICANCE
        _, p = scipy.stats.kstest(np.mod(np.angle(z), TWO_PI),
                                  lambda t: np.clip(t / TWO_PI, 0, 1))
        assert p >= SIGNIFICANCE

    def test_mean_real_tilt(self):
        # E(1-z) = (a + 2 delta + 1)/(a + delta + 1) = 4/3 at a = delta = 1
        z = sample_gamma_k(SeededRng(14), DiskDensitySpec(1.0, 1.0), size=100_000)
        assert mean_within(z.real, -1.0 / 3.0)
        assert mean_within(z.imag, 0.0)

    def test_mean_complex_tilt(self):
        expected = -(1 + 1j) / (4 - 1j)
        z = sample_gamma_k(SeededRng(15), DiskDensitySpec(2.0, 1 + 1j), size=100_000)
        assert mean_within(z.real, expected.real)
        assert mean_within(z.imag, expected.imag)

    def test_chi2_against_density(self):
        spec = DiskDensitySpec(1.5, 0.8 + 0.6j)
        z = sample_gamma_k(SeededRng(16), spec, size=100_000)
        _, p, _ = disk_coefficient_chi2(z, spec)
        assert p >= SIGNIFICANCE

    def test_large_tilt_regime_is_cheap_and_correct(self):
        # the scaling regime: a = 199, delta = 200 gives mean exactly -1/2
        z = sample_gamma_k(SeededRng(17), DiskDensitySpec(199.0, 200.0), size=50_000)
        assert mean_within(z.real, -0.5)
        assert np.max(np.abs(z)) < 1.0

    @pytest.mark.parametrize("a,delta", [(50.0, 6j), (200.0, 50j)])
    def test_large_imaginary_tilt_is_cheap_and_correct(self, a, delta):
        # rejection against the global bound exp(pi |m|) needs about 36 s per 100 draws at (50, 5i)
        start = time.perf_counter()
        z = sample_gamma_k(SeededRng(27), DiskDensitySpec(a, delta), size=50_000)
        assert time.perf_counter() - start < 5.0
        expected = 1.0 - tilted_disk_power_moment(a, delta, 1.0, 0.0)
        assert mean_within(z.real, expected.real)
        assert mean_within(z.imag, expected.imag)
        assert np.max(np.abs(z)) < 1.0

    def test_negative_real_part_rejected(self):
        with pytest.raises(ParameterError):
            sample_gamma_k(SeededRng(18), DiskDensitySpec(1.0, -0.1))


class TestSampleEta:
    def test_zero_tilt_marginals(self):
        params = EnsembleParams(6, 2.0, 0.0)
        draws = sample_eta_batch(SeededRng(19, 2), params, 40_000)
        for k in (0, 3):
            a = params.beta_half * (params.n - k - 1)
            _, p = scipy.stats.kstest(np.abs(draws[:, k]) ** 2,
                                      scipy.stats.beta(1.0, a).cdf)
            assert p >= SIGNIFICANCE

    def test_rotational_invariance_of_angles(self):
        params = EnsembleParams(5, 2.0, 0.0)
        draws = sample_eta_batch(SeededRng(20), params, 40_000)
        _, p = scipy.stats.kstest(np.mod(np.angle(draws[:, 1]), TWO_PI),
                                  lambda t: np.clip(t / TWO_PI, 0, 1))
        assert p >= SIGNIFICANCE

    def test_single_coefficient_case(self):
        vec = sample_eta(SeededRng(21), EnsembleParams(1, 2.0, 1.0))
        assert vec.n == 1
        assert abs(abs(vec.gammas[0]) - 1.0) < 1e-15

    def test_structure_and_moduli(self):
        vec = sample_eta(SeededRng(22), EnsembleParams(8, 3.0, 1 + 1j))
        assert vec.n == 8
        assert np.all(np.abs(vec.gammas[:-1]) < 1.0)

    def test_mean_matches_closed_form_per_coefficient(self):
        params = EnsembleParams(10, 2.0, 1.0)
        draws = sample_eta_batch(SeededRng(23), params, 60_000)
        for k in range(10):
            expected = 1.0 - moment_one_minus_gamma(k, params, 1.0)
            assert mean_within(draws[:, k].real, expected.real)
            assert mean_within(draws[:, k].imag, expected.imag)

    def test_block_envelopes_match_per_call_draws(self):
        # the envelopes built once per block give the draws that each call
        # would give with its own envelope
        params = EnsembleParams(12, 2.0, 1.5 + 4j)
        block = sample_eta_batch(SeededRng(28), params, 50)
        rng = SeededRng(28)
        for k in range(params.n - 1):
            spec = DiskDensitySpec(params.beta_half * (params.n - k - 1), params.delta)
            assert np.array_equal(block[:, k], sample_gamma_k(rng, spec, size=50))
        assert np.array_equal(block[:, -1], sample_lambda_delta(rng, params.delta, size=50))

    def test_requires_nonnegative_tilt(self):
        with pytest.raises(ParameterError):
            sample_eta(SeededRng(24), EnsembleParams(3, 2.0, -0.2))


def test_tilted_draws_load_no_scipy_submodule():
    # the half-angle envelope is found with NumPy alone; scipy.optimize would
    # roughly double the peak memory of a tilted run
    src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.stats", "scipy.integrate")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from circjacobi.sampling import DiskDensitySpec, SeededRng, sample_gamma_k, "
        "sample_lambda_delta; "
        "sample_gamma_k(SeededRng(1), DiskDensitySpec(50.0, 1 + 6j), size=100); "
        "sample_lambda_delta(SeededRng(2), 1 + 3j, size=100); "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == ""
