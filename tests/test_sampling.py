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
from circjacobi.sampling import _half_angles
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


def acceptance_rates(draw):
    """Acceptance rates of the tilted half-angle records that `draw()` logs."""
    logger = logging.getLogger("circjacobi.sampling")
    handler, level = _AcceptanceLog(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        draw()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.rates


def half_angle(gen, big_k, m, size):
    """`size` half angles of the one-column law at (K, m)."""
    return _half_angles(gen, np.array([float(big_k)]), m, np.zeros(size, dtype=np.intp))


class _CallLog:
    """Generator stand-in that logs the method name and output shape of every draw."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def logged(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.shape(out)))
            return out

        return logged


class _ForcedBoundary(_CallLog):
    """Sets `entries` of a real-tilt block onto gamma = -1: its half-angle Beta
    draw to 1/2 (psi = 0) and its 1 - t draw to 0."""

    def __init__(self, generator, entries):
        super().__init__(generator)
        self.entries = entries

    def beta(self, a, b, size=None):
        out = self.generator.beta(a, b, size=size)
        self.calls.append(("beta", out.shape))
        if len(self.calls) <= 2:
            out[self.entries] = 0.5 if len(self.calls) == 1 else 0.0
        return out


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

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ParameterError):
            sample_nu_s(SeededRng(1), s, size=3)

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
        psi = half_angle(np.random.default_rng(26), big_k, m, 50_000)
        _, p = scipy.stats.kstest(psi, half_angle_cdf(big_k, m))
        assert p >= SIGNIFICANCE

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(big_k=st.floats(0.0, 1e4),
           m=st.floats(0.0, 1e3, exclude_min=True),
           mirrored=st.booleans())
    def test_acceptance_at_least_half(self, big_k, m, mirrored):
        rates = acceptance_rates(
            lambda: half_angle(np.random.default_rng(0), big_k, -m if mirrored else m, 4000))
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

    def test_one_column_calls_are_the_block_kernel(self):
        # alone, a sampler draws its column's half angles, then 1 - t, as a block does for all
        params = EnsembleParams(12, 2.0, 1.5 + 4j)
        spec = DiskDensitySpec(3.0, params.delta)
        gen = SeededRng(28).generator
        psi = half_angle(gen, 4.5, 4.0, 50)
        polar = gen.beta(3.0, 7.0, size=50), psi
        assert np.array_equal(sample_gamma_k(SeededRng(28), spec, size=50),
                              sample_gamma_k(SeededRng(1), spec, 50, polar=polar))
        psi = half_angle(SeededRng(28).generator, 1.5, 4.0, 50)
        assert np.array_equal(sample_lambda_delta(SeededRng(28), params.delta, size=50),
                              sample_lambda_delta(SeededRng(1), params.delta, 50, half_angles=psi))
        assert np.array_equal(sample_eta(SeededRng(28), params).gammas,
                              sample_eta_batch(SeededRng(28), params, 1)[0])

    def test_block_means_at_complex_tilt(self):
        params = EnsembleParams(12, 2.0, 1.5 + 4j)
        draws = sample_eta_batch(SeededRng(28), params, 60_000)
        for k in range(params.n):
            expected = 1.0 - moment_one_minus_gamma(k, params, 1.0)
            assert mean_within(draws[:, k].real, expected.real)
            assert mean_within(draws[:, k].imag, expected.imag)

    def test_circle_column_at_pure_imaginary_tilt(self):
        # K = Re(delta) = 0: the last column is drawn by inversion inside a rejection block
        delta = 4j
        draws = sample_eta_batch(SeededRng(32), EnsembleParams(5, 2.0, delta), 100_000)
        _, p, _ = circle_angle_chi2(np.angle(draws[:, -1]), delta)
        assert p >= SIGNIFICANCE

    def test_boundary_draws_are_redrawn_alone(self):
        params, count = EnsembleParams(6, 2.0, 1.0), 5
        entries = (np.array([0, 3]), np.array([1, 4]))
        baseline = sample_eta_batch(SeededRng(29), params, count)
        rng = SeededRng(29)
        rng.generator = forced = _ForcedBoundary(rng.generator, entries)
        block = sample_eta_batch(rng, params, count)
        # the block's two draws, then a redraw of psi and of 1 - t in each of the two columns
        assert forced.calls == [("beta", (count, 6)), ("beta", (count, 5)), *[("beta", (1,))] * 4]
        assert np.all(np.abs(block[:, :-1]) < 1.0)
        assert np.array_equal(np.argwhere(block != baseline), np.transpose(entries))

    @pytest.mark.parametrize("delta", [1.0, 1 + 4j])
    def test_generator_calls_do_not_grow_with_n(self, delta):
        names = []
        for n in (16, 400):
            rng = SeededRng(31)
            rng.generator = spy = _CallLog(rng.generator)
            sample_eta_batch(rng, EnsembleParams(n, 2.0, delta), 3)
            # a rejection pass after the first redraws only the proposals still pending
            names.append([name for i, (name, _) in enumerate(spy.calls)
                          if not (name == "random" and i and spy.calls[i - 1][0] == "random")])
        assert names[0] == names[1] and len(names[0]) == 2

    @pytest.mark.parametrize("n", [2, 50, 400])
    @pytest.mark.parametrize("im", [0.06, 4.0, 40.0])
    def test_block_acceptance_matches_theory(self, n, im):
        params = EnsembleParams(n, 2.0, complex(1.0, im))
        rates = acceptance_rates(lambda: sample_eta_batch(SeededRng(30), params, 4000 // n))
        assert rates
        for rate in rates:
            assert rate >= 1.0 - 1.0 / np.e and abs(rate - 0.75) <= 0.05

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
