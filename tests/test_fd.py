import numpy as np
import pytest

from confgeo.chart import LORENTZ_FLAT, AmbientForm, Box, ImmersionChart
from confgeo.config import FDConfig
from confgeo.fd import fd_partial, stencil


def test_stencil_first_derivative_order4():
    offs, w = stencil(1, 4)
    assert np.allclose(offs, [-2, -1, 0, 1, 2])
    assert np.allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12])


@pytest.mark.parametrize("deriv,accuracy", [(1, 2), (1, 4), (3, 4), (2, 2), (2, 4), (4, 4)])
def test_stencil_weights_exactly_symmetric(deriv, accuracy):
    offs, w = stencil(deriv, accuracy)
    assert np.array_equal(offs, -offs[::-1])
    if deriv % 2:
        assert np.array_equal(w, -w[::-1])
        assert w[len(w) // 2] == 0.0
    else:
        assert np.array_equal(w, w[::-1])


def test_stencil_weights_read_only():
    offs, w = stencil(1, 4)
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        offs[0] = 1.0


def test_stencil_second_derivative_order2():
    offs, w = stencil(2, 2)
    assert np.allclose(w, [1, -2, 1])


def test_stencil_reproduces_polynomials():
    # degree-6 polynomial: order-4 stencils are exact through degree p+d-1
    coeffs = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
    f = lambda U: np.polyval(coeffs, U[:, 0])
    U = np.array([[0.4]])
    cfg = FDConfig(order=4, richardson=False)
    d3 = fd_partial(f, U, (3,), cfg)
    exact = np.polyval(np.polyder(coeffs, 3), 0.4)
    assert d3[0] == pytest.approx(exact, rel=1e-9)


def test_mixed_partial_accuracy():
    f = lambda U: np.sin(U[:, 0]) * np.exp(0.5 * U[:, 1])
    U = np.array([[0.3, -0.2]])
    cfg = FDConfig()
    val = fd_partial(f, U, (1, 1), cfg)
    exact = np.cos(0.3) * 0.5 * np.exp(-0.1)
    assert val[0] == pytest.approx(exact, rel=1e-9)


def test_fourth_derivative_with_richardson():
    f = lambda U: np.cosh(U[:, 0])
    U = np.array([[0.5]])
    cfg = FDConfig(order=4, richardson=True)
    val = fd_partial(f, U, (4,), cfg)
    assert val[0] == pytest.approx(np.cosh(0.5), rel=1e-7)


def test_declared_order_convergence():
    # halving h reduces the error of a p=2 stencil by about 2^p
    f = lambda U: np.sin(U[:, 0])
    U = np.array([[0.7]])
    errs = []
    for h in (0.02, 0.01):
        cfg = FDConfig(order=2, richardson=False, step=h)
        val = fd_partial(f, U, (2,), cfg)
        errs.append(abs(val[0] + np.sin(0.7)))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.5


def test_fd_jet_skips_zero_weight_taps():
    # order-2 FD jet at m=2: the centre value, 4 taps per first derivative,
    # 5 per pure second derivative and 4 x 4 for the mixed one
    calls = []

    def graph(U):
        calls.append(U.shape[0])
        t = 0.1 * U[:, 0] ** 2 + 0.05 * U[:, 0] * U[:, 1] + 0.2 * U[:, 1] ** 2
        return np.stack([t, U[:, 0], U[:, 1]], axis=1)

    chart = ImmersionChart(
        "graph", 2, AmbientForm(LORENTZ_FLAT, 3), Box((-1.0, -1.0), (1.0, 1.0)),
        eval_fn=graph, jet_mode="fd",
    )
    U = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.0]])
    jet = chart.jet(U, 2)
    assert sum(calls) == 35 * U.shape[0]
    assert np.allclose(jet[2][:, 0], [[0.2, 0.05], [0.05, 0.4]], atol=1e-7)
