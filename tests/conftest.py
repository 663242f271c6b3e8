"""Shared fixtures: catalog charts and invariant fields are expensive to
build (symbolic jets, stencil passes), so they are session-scoped."""

import numpy as np
import pytest
import sympy as sp

from confgeo.catalog import build_instance
from confgeo.chart import LORENTZ_FLAT, AmbientForm, Box, ImmersionChart, grid_points
from confgeo.conformal_atlas import lift_chart
from confgeo.invariants import evaluate_field


@pytest.fixture(scope="session")
def sxh_chart():
    return build_instance("sxh")


@pytest.fixture(scope="session")
def hxr_chart():
    return build_instance("hxr")


@pytest.fixture(scope="session")
def hxh_chart():
    return build_instance("hxh")


@pytest.fixture(scope="session")
def wp_chart():
    return build_instance("wp")


@pytest.fixture(scope="session")
def ex33_chart():
    return build_instance("ex33")


@pytest.fixture(scope="session")
def wp_lifted(wp_chart):
    return lift_chart(wp_chart, "psi1")


@pytest.fixture(scope="session")
def graph_chart():
    """A generic space-like graph in R^4_1, off the catalog: its invariants
    have Phi != 0, [A, B] != 0 and no parallel tensor."""
    u = sp.symbols("u0:3")
    t = u[0] ** 2 / 5 + u[1] ** 3 / 7 - u[0] * u[2] / 9 + u[2] ** 2 * u[1] / 11
    return ImmersionChart(
        "graph",
        3,
        AmbientForm(LORENTZ_FLAT, 4),
        Box((-0.5,) * 3, (0.5,) * 3),
        exprs=sp.Matrix([t, *u]),
        syms=u,
    )


@pytest.fixture(scope="session")
def graph_lifted(graph_chart):
    return lift_chart(graph_chart, "psi1")


@pytest.fixture(scope="session")
def sxh_field(sxh_chart):
    U = grid_points(sxh_chart.domain, [3], margin=0.06)
    return evaluate_field(sxh_chart, U, derivatives=True, curvature=True)


@pytest.fixture(scope="session")
def wp_field(wp_lifted):
    U = grid_points(wp_lifted.domain, [3], margin=0.06)
    return evaluate_field(wp_lifted, U, derivatives=True, curvature=True)


@pytest.fixture(scope="session")
def ex33_field(ex33_chart):
    U = grid_points(ex33_chart.domain, [3], margin=0.06)
    return evaluate_field(ex33_chart, U, derivatives=True, curvature=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
