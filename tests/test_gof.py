import re
from pathlib import Path

import numpy as np
import pytest

import circjacobi
from circjacobi.gof import _GRADED_W, _GRADED_X, gauss_panels

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
