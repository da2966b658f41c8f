import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

import circjacobi
from circjacobi import DiskDensitySpec, ParameterError, SeededRng, sample_gamma_k, sample_lambda_delta
from circjacobi.gof import (
    _GRADED_W,
    _GRADED_X,
    chi2_from_cells,
    chi2_tail,
    circle_angle_chi2,
    disk_coefficient_chi2,
    gauss_jacobi,
    gauss_panels,
    ks_one_sided_tail,
    ks_pvalue,
    pair_angle_chi2,
)
from circjacobi.opuc import TWO_PI
from circjacobi.tolerances import SIGNIFICANCE

UNEVEN_EDGES = np.array([-1.3, -0.2, 0.05, 0.9, 2.4])


@pytest.mark.parametrize("order", [8, 64])
def test_gauss_panels_integrate_each_panel_exactly(order):
    # Legendre polynomials of the panel's own coordinate up to degree
    # 2 order - 1 integrate to the panel length at degree 0 and to 0 above;
    # monomials of degree 127 would measure the rounding of the nodes instead
    nodes, weights = gauss_panels(UNEVEN_EDGES, order)
    assert nodes.shape == weights.shape == (UNEVEN_EDGES.size - 1, order)
    half = 0.5 * np.diff(UNEVEN_EDGES)
    local = (nodes - 0.5 * (UNEVEN_EDGES[:-1] + UNEVEN_EDGES[1:])[:, None]) / half[:, None]
    got = np.einsum("pi,pik->pk", weights,
                    np.polynomial.legendre.legvander(local, 2 * order - 1))
    exact = np.zeros_like(got)
    exact[:, 0] = 2.0 * half
    assert np.max(np.abs(got - exact) / (2.0 * half[:, None])) <= 1e-14
    assert np.all((nodes > UNEVEN_EDGES[:-1, None]) & (nodes < UNEVEN_EDGES[1:, None]))


def test_graded_rule_is_exact_on_the_unit_interval():
    assert np.all((_GRADED_X > 0.0) & (_GRADED_X <= 1.0))
    for k in range(16):
        assert abs((_GRADED_W @ _GRADED_X**k) * (k + 1) - 1.0) <= 1e-14


def test_one_gauss_legendre_table_in_the_package():
    # every composite rule comes from `gauss_panels`
    package = Path(circjacobi.__file__).parent
    text = "\n".join(p.read_text() for p in package.glob("*.py"))
    assert len(re.findall(r"np\.polynomial\.legendre\.leggauss\b", text)) == 1
    assert len(re.findall(r"leggauss", text)) == 1


def _unit_cdf(x):
    return np.clip(x, 0.0, 1.0)


def test_chi2_pvalue_is_scipys_chi2_sf():
    # counts drawn near and far from uniform masses span stat from 0.2 to
    # 1.7e3 and p from 0 to 0.99; every cell keeps an expected count of 50.
    # The tail is this package's own; it agrees with SciPy's within 1e-13
    # relative down to p = 1e-300 (9.2e-14 read), and both read p < 1e-300 below
    gen = np.random.default_rng(5)
    for cells in range(2, 42):
        masses = np.ones(cells)
        for tilt in (0.0, 0.02, 0.1, 0.5, 2.0):
            probs = 1.0 + tilt * np.cos(np.arange(cells))
            counts = gen.multinomial(50 * cells, probs.clip(0.05) / probs.clip(0.05).sum())
            stat, p, dof = chi2_from_cells(counts, masses)
            assert dof == cells - 1
            ref = scipy.stats.chi2.sf(stat, dof)
            if ref >= 1e-300:
                assert abs(p - ref) <= 1e-13 * ref, (cells, tilt, stat)
            else:
                assert p < 1e-300, (cells, tilt, stat)
            assert (p >= SIGNIFICANCE) == (ref >= SIGNIFICANCE), (cells, tilt, stat)
    stat, p, dof = chi2_from_cells([20, 20, 20], [1.0, 1.0, 1.0])
    assert (stat, p, dof) == (0.0, 1.0, 2)


def test_ks_pvalue_is_scipys_kstest_where_the_tail_is_exact():
    # D always, p within 1e-11 relative wherever n > 140 and n D^2 >= 2.2
    # (1.1e-12 read), and the decision at SIGNIFICANCE always, on uniform
    # samples and shifted alternatives; about 400 of the 1000 samples fall in
    # the exact region, about 340 are rejected
    gen = np.random.default_rng(8)
    n = 2000
    exact = decided = 0
    for i in range(1000):
        shift = 0.0 if i % 2 else gen.uniform(0.0, 0.08)
        x = gen.uniform(shift, 1.0 + shift, n)
        d, p = ks_pvalue(x, _unit_cdf)
        ref = scipy.stats.kstest(x, _unit_cdf)
        assert d == ref.statistic
        if n * d * d >= 2.2:
            assert abs(p - ref.pvalue) <= 1e-11 * ref.pvalue, (i, d)
            exact += 1
        assert (p >= SIGNIFICANCE) == (ref.pvalue >= SIGNIFICANCE), (i, d, p, ref.pvalue)
        decided += p < SIGNIFICANCE
    assert exact >= 300 and 200 <= decided <= 500


def test_ks_statistic_is_scipys_at_small_n():
    gen = np.random.default_rng(9)
    for n in (1, 2, 3, 10, 141):
        for x in (gen.uniform(size=n) ** 1.3, np.round(gen.uniform(size=n), 1)):  # and with ties
            d, p = ks_pvalue(x, _unit_cdf)
            assert d == scipy.stats.kstest(x, _unit_cdf).statistic
            assert 0.0 < p <= 1.0


@pytest.mark.parametrize("samples, cdf", [
    ([], _unit_cdf),
    ([0.2, np.nan, 0.5], _unit_cdf),
    ([0.2, np.inf], _unit_cdf),
    ([0.1, 0.3, 0.7], lambda x: 2.0 * x),
    ([0.1, 0.3, 0.4], lambda x: x - 0.2),
    ([0.1, 0.3, 0.4], lambda x: np.where(x > 0.2, np.nan, x)),
    ([0.1, 0.3, 0.4], lambda x: 0.5),
])
def test_ks_pvalue_rejects_bad_input(samples, cdf):
    with pytest.raises(ParameterError):
        ks_pvalue(samples, cdf)


@pytest.mark.parametrize("counts, masses", [
    ([50, 50, 50], [-1.0, 1.0, 1.0]),
    ([-5, 50, 50], [1.0, 1.0, 1.0]),
    ([50, 50, 50], [0.0, 0.0, 0.0]),
    ([50, np.nan, 50], [1.0, 1.0, 1.0]),
    ([50, np.inf, 50], [1.0, 1.0, 1.0]),
    ([50, 50, 50], [1.0, np.inf, 1.0]),
    ([50, 50, 50], [1.0, np.nan, 1.0]),
])
def test_chi2_from_cells_rejects_bad_input(counts, masses):
    with pytest.raises(ParameterError):
        chi2_from_cells(counts, masses)


def test_chi2_tail_matches_mpmath():
    # the regularized upper incomplete gamma at 40 digits; every p >= 1e-300
    # of dof 1..60 and stat from 1e-8 to dof + 1400, worst 2.3e-14 read
    with mpmath.workdps(40):
        for dof in range(1, 61):
            for stat in np.concatenate([[1e-8, 1e-3, 0.1, 0.5], np.linspace(0.05, 4.0, 15) * dof,
                                        np.linspace(dof, dof + 1400.0, 15)]):
                ref = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf,
                                      regularized=True)
                if ref >= 1e-300:
                    assert abs(chi2_tail(dof, stat) - float(ref)) <= 1e-13 * float(ref), (dof, stat)
    assert chi2_tail(3, 0.0) == 1.0


def _mp_one_sided_tail(n, d):
    d = mpmath.mpf(d)
    return d * mpmath.fsum(
        mpmath.binomial(n, j) * (1 - d - mpmath.mpf(j) / n) ** (n - j) * (d + mpmath.mpf(j) / n) ** (j - 1)
        for j in range(int(mpmath.floor(n * (1 - d))) + 1))


@pytest.mark.parametrize("n", [1, 2, 10, 141, 500, 2000])
def test_ks_one_sided_tail_matches_the_birnbaum_tingey_sum(n):
    # the sum at 40 digits, at D from the body of the law to its far tail,
    # n D^2 from 0.1 to 8, and at the ends of (0, 1); worst 1.1e-12 read at n = 2000
    ds = np.concatenate([np.sqrt(np.array([0.1, 0.5, 1.1, 2.2, 4.0, 8.0]) / n), [0.37, 0.5, 0.999]])
    with mpmath.workdps(40):
        for d in ds[ds < 1.0]:
            ref = float(_mp_one_sided_tail(n, d))
            assert abs(ks_one_sided_tail(n, d) - ref) <= 1e-11 * ref, (n, d)
    assert ks_one_sided_tail(n, 0.0) == 1.0 and ks_one_sided_tail(n, 1.0) == 0.0


@pytest.mark.parametrize("b", [-0.9, 0.0, 3.0, 9.0])
def test_gauss_jacobi_is_exact_on_monomials(b):
    # the exponents 4 ell - 1 of the disk integral's radial rule; in y = (1 + x)/2
    # the moments of (1 + x)^b are the Beta moments 2^(b+1) / (b + k + 1)
    x, w = gauss_jacobi(24, b)
    k = np.arange(48)
    got = (w * (0.5 * (1.0 + x)) ** k[:, None]).sum(axis=1)
    assert np.max(np.abs(got * (b + k + 1.0) / 2.0 ** (b + 1.0) - 1.0)) <= 1e-13
    ref_x, ref_w = scipy.special.roots_jacobi(24, 0.0, b)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-11


def _disk_draws(extra):
    spec = DiskDensitySpec(1.5, 1.0 + 0.5j)
    return np.append(sample_gamma_k(SeededRng(3), spec, size=3000), extra), spec


@pytest.mark.parametrize("extra", [np.full(900, 1.5), [np.nan], [complex(np.inf, 0.0)]])
def test_disk_coefficient_chi2_rejects_samples_no_cell_holds(extra):
    # histogram2d would drop these and read the p of the 3000 valid draws alone
    z, spec = _disk_draws([])
    assert disk_coefficient_chi2(z, spec)[1] >= SIGNIFICANCE
    with pytest.raises(ParameterError):
        disk_coefficient_chi2(*_disk_draws(extra))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_circle_angle_chi2_rejects_a_non_finite_angle(bad):
    thetas = np.angle(sample_lambda_delta(SeededRng(4), 1.0 + 1.0j, size=3000))
    assert circle_angle_chi2(thetas, 1.0 + 1.0j)[1] >= SIGNIFICANCE
    with pytest.raises(ParameterError):
        circle_angle_chi2(np.append(thetas, bad), 1.0 + 1.0j)


def test_pair_angle_chi2_rejects_a_non_finite_angle():
    pairs = SeededRng(5).generator.uniform(0.0, TWO_PI, (3000, 2))
    uniform = lambda t1, t2: np.ones_like(t1)  # noqa: E731
    assert pair_angle_chi2(pairs, uniform)[1] >= SIGNIFICANCE
    pairs[17, 1] = np.nan
    with pytest.raises(ParameterError):
        pair_angle_chi2(pairs, uniform)
