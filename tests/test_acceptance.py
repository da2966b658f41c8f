"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single machine-greppable pass/fail line (run pytest with -s to see them).
The identity and distribution checks are the `check_*` functions of
`circjacobi.harness` that `circjacobi verify` runs; the tests feed them
their own, larger corpora.
The statistical criteria run at significance 1e-3 with fixed seeds chosen
for suite stability.
"""

import time

import numpy as np
import pytest

from circjacobi import (
    DiskDensitySpec,
    EnsembleParams,
    SeededRng,
    haar_grid,
    limit_params,
    mellin_fourier,
    rate_function,
    sample_cj_spectra,
    sample_eta_batch,
    sample_gamma_k,
    sample_lambda_delta,
)
from circjacobi.gof import pair_angle_chi2
from circjacobi.harness import (
    check_b_const_two_route,
    check_char_poly,
    check_circle_tilt,
    check_coefficient_roundtrip,
    check_disk_coefficient,
    check_disk_integral,
    check_factorization,
    check_measure_roundtrip,
    check_partition_quadrature,
    check_rate_at_minimizer,
    check_weights_law,
    median_esd_ks,
    se_deviation,
)
from circjacobi.tolerances import SE_BOUND, SIGNIFICANCE

from conftest import random_alphas

CORPUS_SIZES = (2, 4, 8, 16, 32, 64)
SETS_PER_SIZE = 34  # ~200 coefficient sets overall


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    gen = np.random.default_rng(20250809)
    return {
        n: [random_alphas(gen, n) for _ in range(SETS_PER_SIZE)]
        for n in CORPUS_SIZES
    }


def test_criterion_01_factorization_identity(corpus):
    t0 = time.perf_counter()
    res = check_factorization([c for n in CORPUS_SIZES for c in corpus[n]])
    elapsed = time.perf_counter() - t0
    report(1, "three-model factorization", res.passed and elapsed < 30.0,
           f"max entrywise diff {res.stat:.2e}, {elapsed:.1f}s")


def test_criterion_02_characteristic_polynomial(corpus):
    res = check_char_poly([c for n in CORPUS_SIZES for c in corpus[n]])
    report(2, "characteristic polynomial product", res.passed, f"max rel err {res.stat:.2e}")


def test_criterion_03_disk_integral():
    res = check_disk_integral([
        (ell, s, t)
        for ell in (0.5, 1.0, 2.5) for s in (0.5, 1 + 1j, 2.0) for t in (0.5, 1 - 1j, 1.0)
    ])
    report(3, "disk integral identity (3x3x3 grid incl. s = conj(t) = 1+i)",
           res.passed, f"max rel err {res.stat:.2e}")


@pytest.mark.parametrize("beta,delta,seed", [(2.0, 1.0, 101), (4.0, 1 + 1j, 102)])
def test_criterion_04_coefficient_laws(beta, delta, seed):
    n, draws = 8, 100_000
    rng = SeededRng(seed)
    results = []
    for k in range(n - 1):
        spec = DiskDensitySpec(0.5 * beta * (n - k - 1), delta)
        results.append(check_disk_coefficient(sample_gamma_k(rng, spec, size=draws), spec))
    results.append(check_circle_tilt(sample_lambda_delta(rng, delta, size=draws), delta))
    worst_p = min(r.stat for r in results[:-1])
    report(4, f"coefficient laws (n=8, beta={beta}, delta={delta})",
           all(r.passed for r in results),
           f"min disk p={worst_p:.4f}, circle p={results[-1].stat:.4f} at 1e5 draws/coefficient")


@pytest.mark.parametrize("delta,seed", [(0.0, 201), (1.0, 202)])
def test_criterion_05_joint_eigenvalue_density(delta, seed):
    t0 = time.perf_counter()
    params = EnsembleParams(2, 2.0, delta)
    rng = SeededRng(seed)
    draws = 100_000
    pairs, _ = sample_cj_spectra(rng, params, draws)
    # randomize the ordering so the sample follows the symmetric density
    flip = rng.generator.random(draws) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]

    d = complex(delta)

    def density(t1, t2):
        z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
        vdm = np.abs(z1 - z2) ** params.beta
        tilt = np.exp(
            2.0 * np.real(np.conj(d) * np.log(1.0 - z1))
            + 2.0 * np.real(np.conj(d) * np.log(1.0 - z2))
        )
        return vdm * tilt

    _, p, dof = pair_angle_chi2(pairs, density, n_bins=12)
    elapsed = time.perf_counter() - t0
    ok = p >= SIGNIFICANCE and elapsed < 300.0
    report(5, f"joint eigenvalue density (n=2, delta={delta})", ok,
           f"chi2 p={p:.4f} (dof={dof}), {elapsed:.0f}s for 1e5 samples")


def test_criterion_06_weights_law():
    params = EnsembleParams(4, 2.0, 1.0)
    thetas, weights = sample_cj_spectra(SeededRng(301), params, 20_000)
    res = check_weights_law(weights, thetas, params.beta_half)
    report(6, "weight vector law and independence", res.passed, res.detail)


@pytest.mark.parametrize("delta,t,s,seed", [(1.0, 1.0, 0.0, 401), (1 + 1j, 1.0, 1.0, 402)])
def test_criterion_07_mellin_fourier_transform(delta, t, s, seed):
    params = EnsembleParams(5, 2.0, delta)
    rng = SeededRng(seed)
    draws = sample_eta_batch(rng, params, 100_000)
    z = np.prod(1.0 - draws, axis=1)
    stat = np.abs(z) ** t * np.exp(1j * s * np.angle(z))
    expected = mellin_fourier(params, s, t)
    dev_re = abs(stat.real.mean() - expected.real) / (stat.real.std(ddof=1) / np.sqrt(stat.size))
    dev_im = abs(stat.imag.mean() - expected.imag) / (stat.imag.std(ddof=1) / np.sqrt(stat.size) + 1e-300)
    ok = dev_re <= SE_BOUND and dev_im <= SE_BOUND
    report(7, f"joint transform of det(Id-U) (delta={delta}, t={t}, s={s})", ok,
           f"deviation {dev_re:.2f} / {dev_im:.2f} s.e. at 1e5 samples")


def test_criterion_08_partition_function():
    res = check_partition_quadrature([(1, 2.0, 1.0, 1.0), (1, 2.0, 0.5, 0.7), (2, 2.0, 1.0, 1.0)])
    report(8, "angular partition function vs quadrature (n=1,2)",
           res.passed, f"max rel err {res.stat:.2e}")


def test_criterion_09_limit_measure_convergence():
    t0 = time.perf_counter()
    d, beta, reps = 1.0, 2.0, 50
    ladder = (25, 50, 100, 200)
    lp = limit_params(d)
    rng = SeededRng(501)
    medians = [
        median_esd_ks(*sample_cj_spectra(rng, EnsembleParams(n, beta, 0.5 * beta * n * d), reps), lp)
        for n in ladder
    ]
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    ok = medians[-1] < 0.05 and decreasing and elapsed < 600.0
    report(9, "empirical spectral distribution converges to the arc law", ok,
           f"median KS per n {[round(m, 4) for m in medians]}, {elapsed:.0f}s")


def test_criterion_10_coefficient_scaling_limit():
    n, d, beta = 200, 1.0, 2.0
    spec = DiskDensitySpec(0.5 * beta * (n - 1), 0.5 * beta * n * d)
    z = sample_gamma_k(SeededRng(601), spec, size=10_000)
    target = -d / (1 + np.conj(d))  # = -1/2
    dev_re = se_deviation(z.real, target.real)
    dev_im = se_deviation(z.imag, target.imag)
    ok = dev_re <= SE_BOUND and dev_im <= SE_BOUND
    report(10, "first deformed coefficient concentrates at -d/(1+conj(d))", ok,
           f"deviation {dev_re:.2f} / {dev_im:.2f} s.e. at n=200")


def test_criterion_11_rate_function():
    ds = (1.0, 2.0, 1j, 1 + 1j)
    at_min = check_rate_at_minimizer(ds)
    flat = rate_function(1.0, haar_grid()).rate
    two_route = check_b_const_two_route(ds)
    ok = at_min.passed and flat > 0 and two_route.passed
    report(11, "large-deviation rate function", ok,
           f"|I(mu_d)| max {abs(at_min.stat):.1e}, "
           f"I(flat)={flat:.4f}, two-route B diff {two_route.stat:.4f}")


def test_criterion_12_round_trips(corpus):
    coeff = check_coefficient_roundtrip([c for n in CORPUS_SIZES for c in corpus[n]])
    measure = check_measure_roundtrip([c for n in (2, 4, 8, 16) for c in corpus[n][:8]])
    report(12, "round trips (coefficients and measures)", coeff.passed and measure.passed,
           f"coefficient {coeff.stat:.2e}, measure {measure.stat:.2e}")
