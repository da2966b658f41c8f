import re
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import circjacobi
from circjacobi import ParameterError
from circjacobi.gof import _GRADED_W, _GRADED_X, chi2_from_cells, gauss_panels, ks_pvalue
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
    # 1.7e3 and p from 0 to 0.99; every cell keeps an expected count of 50
    gen = np.random.default_rng(5)
    for cells in range(2, 42):
        masses = np.ones(cells)
        for tilt in (0.0, 0.02, 0.1, 0.5, 2.0):
            probs = 1.0 + tilt * np.cos(np.arange(cells))
            counts = gen.multinomial(50 * cells, probs.clip(0.05) / probs.clip(0.05).sum())
            stat, p, dof = chi2_from_cells(counts, masses)
            assert dof == cells - 1
            assert p == scipy.stats.chi2.sf(stat, dof), (cells, tilt, stat)
    stat, p, dof = chi2_from_cells([20, 20, 20], [1.0, 1.0, 1.0])
    assert (stat, p, dof) == (0.0, 1.0, 2)


def test_ks_pvalue_is_scipys_kstest_where_the_tail_is_exact():
    # D always, p wherever n > 140 and n D^2 >= 2.2, and the decision at
    # SIGNIFICANCE always, on uniform samples and shifted alternatives;
    # about 400 of the 1000 samples fall in the exact region, about 340 are rejected
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
            assert p == ref.pvalue, (i, d)
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
