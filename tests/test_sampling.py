import logging
import math
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
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
    limit_params,
    log_partition_zst,
    log_tilt_mass,
    moment_one_minus_gamma,
    partition_zst,
    potential_q,
    sample_eta,
    sample_eta_batch,
    sample_gamma_k,
    sample_lambda_delta,
    sample_nu_s,
    w_d,
)
from circjacobi.gof import (
    circle_angle_chi2,
    disk_coefficient_chi2,
    disk_integral_closed,
    disk_integral_quad,
    tilted_disk_power_moment,
)
from circjacobi.opuc import TWO_PI
from circjacobi.sampling import _circle_point, _half_angles, disk_tilt_norm
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


def coefficient_power_moments(params):
    """E[gamma_k^p conj(gamma_k)^q] per column k, keyed (p, q) for p, q <= 2: binomial sums
    of the moments M(u, v) = E[(1 - gamma)^u (1 - conj gamma)^v], one row call each."""
    m = {(u, v): tilted_disk_power_moment(params.radial_exponents, params.delta, u, v)
         for u in range(3) for v in range(3)}
    return {(p, q): sum(math.comb(p, u) * math.comb(q, v) * (-1) ** (u + v) * m[u, v]
                        for u in range(p + 1) for v in range(q + 1))
            for p in range(3) for q in range(3)}


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
        for z in (3 + 4j, 0.1 - 2.3j, 12.7 + 0.9j, -1.5 + 0.5j):
            with mpmath.workdps(40):
                ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            got = complex_log_gamma(z)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_matches_scipy_loggamma_on_a_grid(self):
        # the left half-plane, both sides of the negative real axis (also at a
        # signed zero Im z), the Taylor disks about 1 and 2 and the edges
        # |Im z| = 7 and Re z = 1/2 of the shift and reflection; 4.4e-15 read
        re = np.concatenate([np.arange(-40.0, 40.0, 0.37), np.linspace(0.8, 2.2, 29), [0.5, 7.0]])
        im = np.array([0.0, 1e-12, 1e-3, 0.15, 0.9, 3.0, 6.999, 7.0, 12.0, 40.0])
        z = np.empty((re.size, 2 * im.size), dtype=np.complex128)
        z.real = re[:, None]
        z.imag = np.concatenate([im, -im])
        z = z[(z.real > 0.0) | (np.abs(z - np.rint(z.real)) > 1e-6)]  # off the poles
        got = complex_log_gamma(z)
        ref = scipy.special.loggamma(z)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-14  # and its branch
        assert np.array_equal(got[::50], [complex_log_gamma(x) for x in z[::50]])

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            complex_log_gamma(0.0)
        with pytest.raises(PoleError):
            complex_log_gamma(-3.0)

    @pytest.mark.parametrize("z", [
        np.inf, -np.inf, np.nan, complex(1.0, np.inf), complex(np.nan, 1.0), [1.0, np.inf],
    ])
    def test_non_finite_argument_raises(self, z):
        with pytest.raises(ParameterError):
            complex_log_gamma(z)


def _mp_log_tilt_mass(ell, s, t):
    x = mpmath.mpf(ell) + 1
    s, t = mpmath.mpc(s), mpmath.mpc(t)
    return mpmath.loggamma(x + s + t) - mpmath.loggamma(x + s) - mpmath.loggamma(x + t)


def _mp_rel_err(got, ref):
    return float(abs(mpmath.mpc(got) - ref) / abs(ref))


class TestLogTiltMass:
    def test_closed_forms_against_high_precision_oracle(self):
        # a in [0, 50] (a = 0 the circle), |delta| <= 28 and Re u, Re v in [-0.4, 3];
        # errors of the kernel and of log_partition_zst are taken on exp(log), so they
        # are relative errors of the mass and of the partition function
        rng = np.random.default_rng(29)
        worst = dict.fromkeys(("kernel", "moment", "disk", "norm", "partition"), 0.0)
        with mpmath.workdps(40):
            for case in range(300):
                a = 0.0 if case % 10 == 0 else rng.uniform(0.0, 50.0)
                d = complex(rng.uniform(-0.05, 20.0), rng.uniform(-20.0, 20.0))
                d *= min(1.0, 28.0 / abs(d))
                u, v = (complex(rng.uniform(-0.4, 3.0), rng.uniform(-3.0, 3.0)) for _ in "uv")
                s, t = np.conj(d) + u, d + v
                ref = _mp_log_tilt_mass(a, s, t)
                untilted = _mp_log_tilt_mass(a, np.conj(d), d)
                worst["kernel"] = max(worst["kernel"], _mp_rel_err(
                    mpmath.exp(log_tilt_mass(a, s, t) - ref), 1))
                worst["moment"] = max(worst["moment"], _mp_rel_err(
                    tilted_disk_power_moment(a, d, u, v), mpmath.exp(ref - untilted)))
                n = int(rng.integers(1, 9))
                bh = a / (n - 1) if n > 1 and a > 0 else 1.0
                log_z = mpmath.loggamma(bh * n + 1) - n * mpmath.loggamma(bh + 1) + mpmath.fsum(
                    mpmath.loggamma(bh * k + 1) + _mp_log_tilt_mass(bh * k, s, t) for k in range(n))
                worst["partition"] = max(worst["partition"], _mp_rel_err(
                    mpmath.exp(log_partition_zst(n, 2.0 * bh, s, t) - log_z), 1))
                if a > 0:
                    gamma_a = mpmath.gamma(a)
                    worst["disk"] = max(worst["disk"], _mp_rel_err(
                        disk_integral_closed(a, s, t), mpmath.pi * gamma_a * mpmath.exp(ref)))
                    worst["norm"] = max(worst["norm"], _mp_rel_err(
                        disk_tilt_norm(a, d), 1 / (mpmath.pi * gamma_a * mpmath.exp(untilted.real))))
        assert max(worst.values()) <= 1e-12, worst

    def test_array_ell_matches_scalars(self):
        ell = np.array([0.0, 0.5, 3.0, 41.5])
        got = log_tilt_mass(ell, 0.3 - 2j, 1.1 + 2j)
        assert np.array_equal(got, [log_tilt_mass(x, 0.3 - 2j, 1.1 + 2j) for x in ell])

    def test_power_moment_row_matches_scalars(self):
        a = EnsembleParams(9, 3.0, 0.7 + 0.4j).radial_exponents
        got = tilted_disk_power_moment(a, 0.7 + 0.4j, 0.5 - 1j, 1.2 + 0.3j)
        assert got.shape == a.shape
        assert np.array_equal(got, [tilted_disk_power_moment(x, 0.7 + 0.4j, 0.5 - 1j, 1.2 + 0.3j)
                                    for x in a])
        assert isinstance(tilted_disk_power_moment(a[0], 0.7 + 0.4j, 0.5, 0.5), complex)
        for bad in ([1.0, -1.0], [0.0, np.nan]):
            with pytest.raises(ParameterError):
                tilted_disk_power_moment(np.array(bad), 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("ell,s,t", [
        (-0.1, 0.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), ([0.0, -1.0], 0.0, 0.0),
        (1.0, np.inf, 0.0), (1.0, 0.0, complex(0.0, np.nan)),
        (0.0, -0.6, -0.6), (0.5, -1.0 + 3j, -0.6 - 3j), ([1.0, 0.0], -0.6, -0.6),
    ])
    def test_domain(self, ell, s, t):
        with pytest.raises(ParameterError):
            log_tilt_mass(ell, s, t)

    def test_vanishing_integral_is_a_pole(self):
        # the circle mean of (1 - z)^-1 (1 - conj z)^2 = -conj(z) (1 - conj z) is 0
        with pytest.raises(PoleError):
            log_tilt_mass(0.0, -1.0, 2.0)

    @pytest.mark.parametrize("call", [
        lambda: tilted_disk_power_moment(0.0, 0.0, -0.6, -0.6),
        lambda: partition_zst(1, 2.0, -0.6, -0.6),
        lambda: moment_one_minus_gamma(3, EnsembleParams(4, 2.0, 0.0), -1.2),
    ])
    def test_divergent_integrals_raise(self, call):
        # each integrates |1 - z|^-1.2, times a bounded factor, on the uniform circle: divergent
        with pytest.raises(ParameterError):
            call()


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

    @pytest.mark.parametrize("delta", [3j, 8j, 0.3j, 1j, -1j, -0.3j])
    def test_pure_imaginary_tilt_matches_density(self, delta):
        # Re(delta) = 0: the half angle is a truncated exponential, drawn by inversion
        z = sample_lambda_delta(SeededRng(25), delta, size=100_000)
        _, p, _ = circle_angle_chi2(np.angle(z), delta)
        assert p >= SIGNIFICANCE

    def test_negative_real_part_rejected(self):
        with pytest.raises(ParameterError):
            sample_lambda_delta(SeededRng(12), -0.2)

    def test_non_finite_tilt_rejected_without_hanging(self):
        # a NaN or infinite tilt once sent the half-angle rejection loop round
        # for ever; the child process turns such a hang into a timeout
        src = str(Path(__import__("circjacobi").__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "from circjacobi import ParameterError, SeededRng, sample_lambda_delta\n"
            "for delta in (float('nan'), float('inf'), complex(1, float('nan')), "
            "complex(float('inf'), 1)):\n"
            "    try:\n"
            "        sample_lambda_delta(SeededRng(12), delta, size=10)\n"
            "    except ParameterError:\n"
            "        print('raised')\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.split() == ["raised"] * 4

    def test_density_normalization(self):
        # direct quadrature of the density against uniform measure
        for delta in (0.7, 1 + 1j, -0.3 + 0.2j):
            total, _ = scipy.integrate.quad(
                lambda t: lambda_delta_density(delta, t), 0.0, TWO_PI, limit=200
            )
            assert abs(total / TWO_PI - 1.0) < 1e-8

    def test_density_at_zero_is_its_limit_from_above(self):
        # |1 - e^{i theta}|^0 = 1 at Re(delta) = 0; a pole at Re(delta) < 0
        assert lambda_delta_density(1j, 0.0) == lambda_delta_density(1j, 1e-300)
        assert lambda_delta_density(-0.25, 0.0) == np.inf
        assert lambda_delta_density(1.0, 0.0) == 0.0


@pytest.mark.parametrize("f", [
    *(lambda t, d=d: w_d(limit_params(d), t) for d in (0.0, 1 + 0.5j, 1j)),
    *(lambda t, d=d: lambda_delta_density(d, t) for d in (1 + 1j, 1j, -0.25)),
    lambda t: potential_q(1 + 0.5j, t),
], ids=["w_d-0", "w_d-1+0.5i", "w_d-i", "lambda-1+i", "lambda-i", "lambda--0.25", "potential_q"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(1e-3, TWO_PI - 1e-3), k=st.integers(-3, 3))
def test_angle_functions_are_periodic(f, theta, k):
    # theta + 2 pi k rounds by about 1e-15, which moves the values by a relative
    # 1e-12 at most near the singular points at 0 and 2 pi, and by an absolute
    # 1.6e-7 at most at the square-root edges of the support of w_d
    assert np.isclose(f(theta + TWO_PI * k), f(theta), rtol=1e-9, atol=1e-6)


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
        total = disk_tilt_norm(a, delta) * disk_integral_quad(a, np.conj(delta), delta)
        assert abs(total - 1.0) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            gamma_k_density(DiskDensitySpec(1.0, 0.0), 1.2)

    @pytest.mark.parametrize("a,delta", [
        (1.0, -0.7), (1.0, complex(1.0, np.nan)), (np.inf, 1.0), (0.0, 1.0), (-1.0, 0.5),
    ])
    def test_norm_domain(self, a, delta):
        with pytest.raises(ParameterError):
            disk_tilt_norm(a, delta)

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
            a = params.radial_exponents[k]
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
                              _circle_point(psi))
        assert np.array_equal(sample_eta(SeededRng(28), params).gammas,
                              sample_eta_batch(SeededRng(28), params, 1)[0])

    def test_block_means_at_complex_tilt(self):
        params = EnsembleParams(12, 2.0, 1.5 + 4j)
        draws = sample_eta_batch(SeededRng(28), params, 60_000)
        for k in range(params.n):
            expected = 1.0 - moment_one_minus_gamma(k, params, 1.0)
            assert mean_within(draws[:, k].real, expected.real)
            assert mean_within(draws[:, k].imag, expected.imag)

    @pytest.mark.parametrize("delta", [4j, 0.3j, 1j, -1j, -0.3j])
    def test_circle_column_at_pure_imaginary_tilt(self, delta):
        # K = Re(delta) = 0: the last column is drawn by inversion inside a rejection block
        draws = sample_eta_batch(SeededRng(32), EnsembleParams(5, 2.0, delta), 100_000)
        _, p, _ = circle_angle_chi2(np.angle(draws[:, -1]), delta)
        assert p >= SIGNIFICANCE

    def test_boundary_draws_are_pulled_inside_alone(self):
        params, count = EnsembleParams(6, 2.0, 1.0), 5
        entries = (np.array([0, 3]), np.array([1, 4]))
        baseline = sample_eta_batch(SeededRng(29), params, count)
        rng = SeededRng(29)
        rng.generator = forced = _ForcedBoundary(rng.generator, entries)
        block = sample_eta_batch(rng, params, count)
        # the block's two draws and no redraw: the forced gamma = -1 moves a few ulp inside
        assert forced.calls == [("beta", (count, 6)), ("beta", (count, 5))]
        assert np.all(np.abs(block[entries]) < 1.0)
        assert np.all(np.abs(block[entries] + 1.0) <= 2.0 ** -51)
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

    def test_coefficient_law_sweep(self):
        # every branch of the draw: the Beta transform at m = 0, the K = 0
        # inversion, rejection at tiny K and at large |m|, the radial Beta and the
        # boundary pull.  Each column's mean Re, Im and (disk columns) |gamma_k|^2
        # is z-tested against its exact mean and variance
        rng, zs = SeededRng(33), []
        for n in (1, 2, 8, 50):
            for beta in (0.1, 1.0, 2.0):
                for delta in (0, 1, 0.3j, -1j, 0.05 + 1j, 1e-9 + 0.3j, 1 + 8j):
                    params = EnsembleParams(n, beta, delta)
                    rows = 4000 if n == 50 else 20_000
                    draws = sample_eta_batch(rng, params, rows)
                    power = coefficient_power_moments(params)
                    mean, square, abs2 = power[1, 0], power[2, 0], power[1, 1].real
                    for x, exact, var in (
                        (draws.real, mean.real, (abs2 + square.real) / 2 - mean.real ** 2),
                        (draws.imag, mean.imag, (abs2 - square.real) / 2 - mean.imag ** 2),
                        (np.abs(draws[:, :-1]) ** 2, abs2[:-1], power[2, 2].real[:-1] - abs2[:-1] ** 2),
                    ):
                        zs.append((x.mean(axis=0) - exact) / np.sqrt(var / rows))
        z = np.concatenate(zs)
        bound = scipy.stats.norm.isf(SIGNIFICANCE / (2 * z.size))  # Bonferroni over every z
        assert np.max(np.abs(z)) <= bound


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
