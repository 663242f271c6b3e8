import numpy as np
import pytest

from confgeo import taylor
from confgeo.chart import LORENTZ_FLAT, AmbientForm, Box, ImmersionChart
from confgeo.fd import MAX_ORDER, default_reach, design, fit_series, plan


def _polynomial(m, rng):
    """A random polynomial of the fit's degree in m coordinate columns,
    arrays or Taylor series."""
    mons = taylor.monomials(m, plan(m)[0])
    coeffs = rng.normal(size=len(mons)) / (1.0 + mons.sum(axis=1))

    def p(cols):
        out = 0.0
        for c, alpha in zip(coeffs, mons):
            term = c
            for a, k in enumerate(alpha):
                for _ in range(k):
                    term = term * cols[a]
            out = out + term
        return out

    return p


def test_stencil_reproduces_polynomials(rng):
    # every polynomial of the fit's degree is its own fit: the coefficients
    # in the scaled offsets (reach^|alpha| times the Taylor coefficients)
    # are exact up to roundoff
    for m in (2, 3):
        p = _polynomial(m, rng)
        U = rng.uniform(-0.3, 0.3, size=(4, m))
        exact = p(taylor.Series.variables(U, 5))
        for reach in (1.0, 0.5):
            fitted = fit_series(lambda X: p(list(X.T))[:, None], U, reach, 5)
            scale = reach ** taylor.monomials(m, 5).sum(axis=1).astype(float)
            diff = (fitted.c[..., 0] - exact.c) * scale[:, None]
            bound = 1e-12 * (1.0 + np.max(np.abs(exact.c * scale[:, None])))
            assert np.max(np.abs(diff)) <= bound, (m, reach)


def test_stencil_weights_read_only():
    for m in (2, 3):
        S, W = design(m)
        assert design(m)[0] is S and design(m)[1] is W
        for a in (S, W):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


@pytest.mark.parametrize("deriv,m", [(1, 2), (1, 4), (3, 4), (2, 2), (2, 4), (4, 4)])
def test_stencil_weights_exactly_symmetric(deriv, m):
    # the rows of the coefficients of order `deriv` are exactly even or odd
    # across the symmetric cloud, like the Taylor coefficients they fit
    S, W = design(m)
    assert np.array_equal(S, -S[::-1])
    rows = W[taylor.monomials(m, MAX_ORDER).sum(axis=1) == deriv]
    if deriv % 2:
        assert np.array_equal(rows, -rows[:, ::-1])
        assert np.all(rows[:, len(S) // 2] == 0.0)
    else:
        assert np.array_equal(rows, rows[:, ::-1])


@pytest.mark.parametrize("m,points", [(3, 461), (4, 6561)])
def test_design_is_a_left_inverse(m, points):
    S, W = design(m)
    # scaled into [-1, 1], the centre in the middle
    assert S.shape == (points, m)
    assert np.max(np.abs(S)) == 1.0 and np.all(S[len(S) // 2] == 0.0)
    # the rows up to MAX_ORDER of a left inverse of the design
    mons = taylor.monomials(m, plan(m)[0])
    V = np.prod(S[:, None, :] ** mons[None], axis=2)
    assert np.max(np.abs(W @ V - np.eye(len(mons))[: len(W)])) <= 1e-10
    assert len(W) == taylor.n_monomials(m, MAX_ORDER)


def _sin_exp(U):
    return (np.sin(U[:, 0]) * np.exp(0.5 * U[:, 1]))[:, None]


def _coefficient(series, alpha):
    return series.c[taylor.monomials(series.m, series.order).tolist().index(alpha), 0, 0]


def test_mixed_partial_accuracy():
    # at the default reach the coefficient of u0 u1 is d^2 f / du0 du1
    U = np.array([[0.3, -0.2]])
    fitted = fit_series(_sin_exp, U, default_reach(2), 5)
    exact = np.cos(0.3) * 0.5 * np.exp(-0.1)
    assert _coefficient(fitted, [1, 1]) == pytest.approx(exact, rel=1e-9)


def test_declared_order_convergence():
    # halving the reach divides the truncation error of an order-r
    # coefficient by 2^(d + 1 - r), d the fit's degree; the symmetric cloud
    # cancels the degree-(d + 1) term of even orders, which gain a factor 2
    U = np.array([[0.3, -0.2]])
    degree = plan(2)[0]
    exact = {
        2: -np.sin(0.3) * np.exp(-0.1) / 2,
        3: -np.cos(0.3) * np.exp(-0.1) / 6,
    }
    for r, value in exact.items():
        errs = [
            abs(_coefficient(fit_series(_sin_exp, U, reach, 5), [r, 0]) - value)
            for reach in (0.8, 0.4)
        ]
        expected = 2.0 ** (degree + 1 - r + (r + 1) % 2)
        assert 0.5 * expected < errs[0] / errs[1] < 2.0 * expected, r


def _recording_chart(calls):
    def graph(U):
        calls.append(U.copy())
        t = 0.1 * U[:, 0] ** 2 + 0.05 * U[:, 0] * U[:, 1] + 0.2 * U[:, 1] ** 2
        return np.stack([t, U[:, 0], U[:, 1]], axis=1)

    return ImmersionChart(
        "graph", 2, AmbientForm(LORENTZ_FLAT, 3), Box((-1.0, -1.0), (1.0, 1.0)),
        eval_fn=graph, jet_mode="fd",
    )


@pytest.mark.parametrize("order", [0, 2, 5])
def test_one_eval_call_per_jet(order):
    calls = []
    chart = _recording_chart(calls)
    U = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.0]])
    jet = chart.jet(U, order)
    assert len(calls) == 1
    assert calls[0].shape == (design(2)[0].shape[0] * U.shape[0], 2)
    if order >= 2:
        assert np.allclose(jet.grad().grad().value[:, 0], [[0.2, 0.05], [0.05, 0.4]], rtol=0, atol=1e-12)


def test_jet_does_not_depend_on_the_order_requested():
    # the coefficients an order-2 and an order-5 jet share are the same bits
    chart = _recording_chart([])
    U = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.0]])
    low, high = chart.jet(U, 2), chart.jet(U, 5)
    assert np.array_equal(low.c, high.c[: len(low.c)])
