"""Taylor-series arithmetic and the analytic chart jets built on it.

The reference jets differentiate the chart expressions with sympy, the
route the library took before its jets moved onto truncated series; for
lifted charts the test composes the expressions with the coordinate map
itself.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from confgeo import taylor
from confgeo.catalog import build_instance
from confgeo.chart import AmbientForm, Box, ImmersionChart, grid_points
from confgeo.conformal_atlas import LiftedChart, lift_chart, sigma_rep
from confgeo.errors import ValidationError
from confgeo.invariants import evaluate_field
from confgeo.pseudo_linalg import batched_normal, form_signs, triangular_frame


def _expressions(chart):
    """(expressions, symbols) of a symbolic chart; a lifted chart's are its
    base expressions composed with psi_alpha(M sigma_rep(kind, .))."""
    if not isinstance(chart, LiftedChart):
        return list(chart.exprs), chart.syms
    base_exprs, syms = _expressions(chart.base)
    rep = sigma_rep(chart.base.ambient.kind, base_exprs)
    M = sp.Matrix(chart.M.shape[0], chart.M.shape[1], lambda i, j: sp.nsimplify(chart.M[i, j]))
    rep = list(M * sp.Matrix(rep))
    div = rep[chart.alpha - 1]
    keep = rep[1] if chart.alpha == 1 else rep[0]
    return [c / div for c in [keep, *rep[2:]]], syms


def _reference_jet(chart, U, order):
    """Derivative stacks by sympy differentiation, one cse'd function."""
    m, c, N = chart.m, chart.ambient.embedding_dim, U.shape[0]
    exprs, syms = _expressions(chart)
    alphas = [a for a in itertools.product(range(order + 1), repeat=m) if sum(a) <= order]
    flat = []
    for alpha in alphas:
        d = sp.Matrix(exprs)
        for ax, k in enumerate(alpha):
            if k:
                d = sp.diff(d, syms[ax], k)
        flat.extend(list(d))
    vals = sp.lambdify(syms, flat, "numpy", cse=True)(*U.T)
    stacks = {r: np.zeros((N, c) + (m,) * r) for r in range(order + 1)}
    for i, alpha in enumerate(alphas):
        block = np.stack(
            [np.broadcast_to(np.asarray(v, float), (N,)) for v in vals[i * c:(i + 1) * c]], axis=1
        )
        idx = tuple(ax for ax, k in enumerate(alpha) for _ in range(k))
        for perm in set(itertools.permutations(idx)):
            stacks[len(idx)][(slice(None), slice(None)) + perm] = block
    return stacks


def _chart(name, lift=None):
    chart = build_instance(name)
    return lift_chart(chart, lift) if lift else chart


# order 5 of wp@psi1 takes sympy about 17 s to differentiate, so it is
# checked at order 2 only
@pytest.mark.parametrize(
    "name,lift,order",
    [("sxh", None, 5), ("ex33", None, 5), ("wp", None, 5), ("hxr", "psi1", 5), ("wp", "psi1", 2)],
)
def test_series_jets_match_sympy_derivatives(name, lift, order):
    chart = _chart(name, lift)
    U = grid_points(chart.domain, [3], margin=0.05)[::5]
    jet = chart.jet(U, order)
    ref = _reference_jet(chart, U, order)
    for r in range(order + 1):
        if r:
            jet = jet.grad()
        scale = max(1.0, float(np.max(np.abs(ref[r]))))
        err = np.max(np.abs(jet.value - ref[r]))
        assert err <= 1e-12 * scale, (r, err)


UNIVARIATE = [
    ("sin", taylor.sin, sp.sin),
    ("cos", taylor.cos, sp.cos),
    ("sinh", taylor.sinh, sp.sinh),
    ("cosh", taylor.cosh, sp.cosh),
    ("exp", taylor.exp, sp.exp),
    ("log", taylor.log, sp.log),
    ("sqrt", taylor.sqrt, sp.sqrt),
    ("pow 1.5", lambda s: s**1.5, lambda e: e**sp.Rational(3, 2)),
    ("pow -1.0", lambda s: s**-1.0, lambda e: 1 / e),
    ("pow -3", lambda s: s**-3, lambda e: e**-3),
    ("pow 3", lambda s: s**3, lambda e: e**3),
    ("rdiv", lambda s: 2.0 / s, lambda e: 2 / e),
    ("rpow", lambda s: 2.0**s, lambda e: sp.exp(sp.Float(math.log(2.0), 30) * e)),
]


@pytest.mark.parametrize("label,series_fn,sympy_fn", UNIVARIATE, ids=[u[0] for u in UNIVARIATE])
def test_univariate_matches_sympy_series(label, series_fn, sympy_fn):
    K = 5
    a0 = np.array([0.3, 1.7])
    (s,) = taylor.Series.variables(a0[:, None], K)
    out = series_fn(s)
    t = sp.Symbol("t")
    for n, a in enumerate(a0):
        ser = sp.series(sympy_fn(sp.Float(a, 30) + t), t, 0, K + 1).removeO()
        expected = [float(ser.coeff(t, k)) for k in range(K + 1)]
        assert np.allclose(out.c[:, n], expected, rtol=1e-13, atol=1e-14), label


LINE_FUNCTIONS = [
    ("sin", taylor.sin, True),
    ("cos", taylor.cos, True),
    ("sinh", taylor.sinh, True),
    ("cosh", taylor.cosh, True),
    ("exp", taylor.exp, True),
    ("log", taylor.log, False),
    ("sqrt", taylor.sqrt, False),
    ("pow -1", lambda s: taylor.power(s, -1), False),
]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("K", range(6))
def test_coordinate_lines_compose_bitwise_as_horner(m, K):
    # the closed form on u_a + t_a gives Horner's coefficients bit for bit,
    # signs of zero included (-sin(0) is -0.0, which Horner's sums make +0.0)
    rng = np.random.default_rng(10 * m + K)
    U = rng.uniform(0.2, 1.5, size=(4, m))
    U_zero = U.copy()
    U_zero[0] = 0.0
    for label, fn, at_zero in LINE_FUNCTIONS:
        for a, u in enumerate(taylor.Series.variables(U_zero if at_zero else U, K)):
            assert u.line == a
            plain = taylor.Series(u.c.copy(), m, K)
            assert plain.line is None
            out, ref = fn(u).c, fn(plain).c
            assert np.array_equal(out, ref), (label, a)
            assert np.array_equal(np.signbit(out), np.signbit(ref)), (label, a)


def test_only_variables_mark_coordinate_lines():
    u, v = taylor.Series.variables(np.array([[0.3, 0.4]]), 3)
    assert (u.line, v.line) == (0, 1)
    for derived in (2.0 * u, u + 0.0, u * v, -u, u.truncate(2), u[:1], u.nilpotent(), taylor.sin(u)):
        assert derived.line is None


def test_coordinate_line_composes_without_products(monkeypatch):
    (u,) = taylor.Series.variables(np.array([[0.0], [0.7]]), 5)
    calls = []
    reduce_pairs = taylor._reduce_pairs
    monkeypatch.setattr(taylor, "_reduce_pairs", lambda *a: calls.append(a) or reduce_pairs(*a))
    taylor.cos(u)
    assert calls == []
    taylor.cos(u + 0.0)
    assert calls


def test_scalar_arguments_fall_through_to_numpy():
    assert taylor.cos(0.5) == np.cos(0.5)
    assert np.array_equal(taylor.sqrt(np.array([4.0, 9.0])), [2.0, 3.0])


def test_array_items_fall_through_to_numpy():
    x, y = np.array([0.5, 2.0]), np.array([[1.0], [3.0]])
    stacked = taylor.stack([1, x, x * x])
    assert type(stacked) is np.ndarray and stacked.dtype == float
    assert np.array_equal(stacked, [[1.0, 0.5, 0.25], [1.0, 2.0, 4.0]])
    assert np.array_equal(taylor.concatenate([stacked, y], axis=1), np.concatenate([stacked, y], axis=1))
    assert taylor.centre(x) is x
    assert taylor.asarray(x) is x and taylor.asarray([1, 2]).dtype == float
    s = taylor.Series.variables(y, 1)[0]
    assert np.array_equal(taylor.centre(s), s.value) and taylor.asarray(s) is s


def test_unsupported_function_rejected():
    u, v = sp.symbols("u v")
    chart = ImmersionChart(
        "tan-graph",
        2,
        AmbientForm("lorentz_flat", 3),
        Box((0.1, 0.1), (0.5, 0.5)),
        exprs=sp.Matrix([sp.tan(u) * v, u, v]),
        syms=(u, v),
    )
    with pytest.raises(ValidationError, match="tan"):
        chart.jet(np.array([[0.2, 0.3]]), 2)


def test_gradient_and_products_of_series():
    # d/du (u^2 v^3) = 2 u v^3 at every order that survives the shift
    U = np.array([[0.4, -1.3], [2.0, 0.5]])
    u, v = taylor.Series.variables(U, 4)
    f = u**2 * v**3
    g = f.grad()
    assert g.order == 3
    assert np.allclose(g.value[:, 0], 2 * U[:, 0] * U[:, 1] ** 3)
    assert np.allclose(g.value[:, 1], 3 * U[:, 0] ** 2 * U[:, 1] ** 2)
    assert np.allclose(g.grad().value[:, 0, 1], 6 * U[:, 0] * U[:, 1] ** 2)


def test_an_order_0_series_has_no_gradient():
    u, _ = taylor.Series.variables(np.array([[0.4, -1.3]]), 0)
    with pytest.raises(ValueError, match="an order-0 series has no derivative"):
        u.grad()


def test_series_exponents_are_refused():
    u, v = taylor.Series.variables(np.array([[0.4, 1.3]]), 2)
    with pytest.raises(TypeError, match="a series exponent is not supported"):
        v**u


def _table_order_sum(terms, m, order):
    """Per product monomial, the sum from 0.0 of the terms of its pairs, one
    term per row of the pair table, added in table order."""
    _, _, starts = taylor._pairs(m, order)
    bounds = list(starts) + [len(terms)]
    out = []
    for k in range(len(starts)):
        acc = 0.0
        for p in range(bounds[k], bounds[k + 1]):
            acc = acc + terms[p]
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("order", range(6))
def test_product_sums_pairs_in_table_order(m, order):
    rng = np.random.default_rng(10 * m + order)
    n = taylor.n_monomials(m, order)
    a = taylor.Series(rng.normal(size=(n, 5, 2)), m, order)
    b = taylor.Series(rng.normal(size=(n, 2)), m, order)  # broadcast over the first value axis
    left, right, _ = taylor._pairs(m, order)
    assert np.array_equal((a * b).c, _table_order_sum(a.c[left] * b.c[right][:, None], m, order))


def test_product_in_several_slices_sums_pairs_in_table_order():
    m, order, shape = 4, 5, (40, 6, 6)
    left, right, _ = taylor._pairs(m, order)
    # a product gathers three operand-sized arrays per pair
    assert 3 * 8 * math.prod(shape) * len(left) > 20 * taylor._CHUNK_BYTES
    rng = np.random.default_rng(7)
    n = taylor.n_monomials(m, order)
    a = taylor.Series(rng.normal(size=(n, *shape)), m, order)
    b = taylor.Series(rng.normal(size=(n, *shape)), m, order)
    assert np.array_equal((a * b).c, _table_order_sum(a.c[left] * b.c[right], m, order))


def test_pair_layouts_do_not_grow_with_batch_sizes():
    # one field at 100 points, then one at each size up to 128: the slices
    # of the pair table depend on the batch size, but the layouts cached
    # for them are not one per size
    chart = build_instance("ex33")
    lo, hi = chart.domain.arrays()
    rng = np.random.default_rng(0)
    taylor._pair_ranks.cache_clear()
    sizes = []
    for N in range(100, 129):
        evaluate_field(chart, rng.uniform(lo + 0.05, hi - 0.05, size=(N, chart.m)))
        sizes.append(taylor._pair_ranks.cache_info().currsize)
    # a batch size at most 1.28 times another halves a slice at most once
    assert sizes[-1] <= 2 * sizes[0], sizes


def test_contraction_sums_pairs_in_table_order():
    m, order = 3, 3
    left, right, _ = taylor._pairs(m, order)
    rng = np.random.default_rng(8)
    n = taylor.n_monomials(m, order)
    a = taylor.Series(rng.normal(size=(n, 60, 4, 4)), m, order)
    b = taylor.Series(rng.normal(size=(n, 60, 4, 4)), m, order)
    assert 2 * 8 * 60 * 16 * len(left) > 2 * taylor._CHUNK_BYTES
    # the pairs are contracted with the point axis innermost
    ca, cb = (np.ascontiguousarray(np.moveaxis(s.c, 1, -1)) for s in (a, b))
    terms = np.einsum("Qabn,Qbcn->Qacn", ca.take(left, 0), cb.take(right, 0))
    got = taylor.einsum("nab,nbc->nac", a, b).c
    assert np.array_equal(got, np.moveaxis(_table_order_sum(terms, m, order), -1, 1))


def _point_first_contract(ta, a, tb, b, tout):
    """One contraction of the einsum chain with the point axis where the
    subscripts put it: einsum on the gathered pairs, summed in table order."""
    q = taylor._COEF
    if isinstance(a, taylor.Series) and isinstance(b, taylor.Series):
        k = min(a.order, b.order)
        left, right, _ = taylor._pairs(a.m, k)
        ca, cb = a.truncate(k).c, b.truncate(k).c
        terms = np.einsum(f"{q}{ta},{q}{tb}->{q}{tout}", ca[left], cb[right])
        return taylor.Series(_table_order_sum(terms, a.m, k), a.m, k)
    if isinstance(a, taylor.Series):
        return taylor.Series(np.einsum(f"{q}{ta},{tb}->{q}{tout}", a.c, b), a.m, a.order)
    return taylor.Series(np.einsum(f"{ta},{q}{tb}->{q}{tout}", a, b.c), b.m, b.order)


def _point_first_einsum(subscripts, *operands):
    """taylor.einsum's pairwise chain, each step by _point_first_contract."""
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    acc, acc_t = operands[0], terms[0]
    for i in range(1, len(operands)):
        keep = set(output).union(*terms[i + 1:])
        out_t = "".join(dict.fromkeys(ch for ch in acc_t + terms[i] if ch in keep))
        acc, acc_t = _point_first_contract(acc_t, acc, terms[i], operands[i], out_t), out_t
    assert acc_t == output
    return acc


def _kernel_operands(rng, m=3, order=4, N=7):
    n = taylor.n_monomials(m, order)
    s34 = taylor.Series(rng.normal(size=(n, N, 3, 4)), m, order)
    s43 = taylor.Series(rng.normal(size=(n, N, 4, 3)), m, order - 1)
    s53 = taylor.Series(rng.normal(size=(n, N, 5, 3)), m, order)
    s33 = taylor.Series(rng.normal(size=(n, N, 3, 3)), m, order)
    a33 = rng.normal(size=(N, 3, 3))
    a3n = rng.normal(size=(3, N))
    signs = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
    return s34, s43, s53, s33, a33, a3n, signs


KERNEL_CASES = {
    "series-series": ("nab,nbc->nac", lambda o: (o[0], o[1])),
    "array-series": ("nab,nbc->nac", lambda o: (o[4], o[3])),
    "series-array": ("nab,nbc->nac", lambda o: (o[3], o[4])),
    "constant-weights": ("nci,c,ncj->nij", lambda o: (o[2], o[6], o[2])),
    "three-operand-chain": ("nai,nab,nbj->nij", lambda o: (o[3], o[3], o[3])),
    "point-letter-z": ("zab,bz->za", lambda o: (o[3], o[5])),
    "point-letter-z-series": ("zab,zcb->zac", lambda o: (o[1], o[3])),
}


@pytest.mark.parametrize("case", KERNEL_CASES, ids=list(KERNEL_CASES))
def test_point_last_contraction_matches_point_first(case):
    subscripts, pick = KERNEL_CASES[case]
    operands = pick(_kernel_operands(np.random.default_rng(11)))
    got = taylor.einsum(subscripts, *operands)
    ref = _point_first_einsum(subscripts, *operands)
    assert (got.order, got.c.shape) == (ref.order, ref.c.shape)
    assert got.c.flags.c_contiguous
    assert np.max(np.abs(got.c - ref.c)) <= 1e-14 * np.max(np.abs(ref.c))


@pytest.mark.parametrize(
    "subscripts", ["nab,bnc->nac", "nab,nbc->ac"], ids=["series-without-leading-point", "output-without-point"]
)
def test_contraction_rejects_a_misplaced_point_letter(subscripts):
    s = _kernel_operands(np.random.default_rng(12))[3]
    with pytest.raises(ValueError, match="point letter"):
        taylor.einsum(subscripts, s, s)


def test_contraction_reserves_the_coefficient_letter():
    s = _kernel_operands(np.random.default_rng(12))[3]
    with pytest.raises(ValueError, match="subscript letter 'Q' is reserved"):
        taylor.einsum("nQb,nbc->nQc", s, s)


def _matrix_and_graph(u, v):
    M = [[2.0 + u * v, taylor.sin(v)], [u, 3.0 + taylor.cos(u)]]
    return M, [0.3 * u * v, u, v + 0.2 * u**2]


def _matrix_and_graph_4(u0, u1, u2, u3):
    sin, log, sqrt = taylor.sin, taylor.log, taylor.sqrt
    M = [
        [3.0 + sin(u0 * u1), log(2.0 + u2), u3**2, 0.5],
        [sqrt(1.0 + u0**2), 3.0 + u1 * u2, taylor.cos(u3), u0],
        [u1 * u3, sin(u2), 4.0 + log(1.0 + u0**2), sqrt(2.0 + u1)],
        [0.2, u2 * u0, sin(u1 + u3), 3.0 + sqrt(1.0 + u3**2)],
    ]
    t = 0.2 * sin(u0 * u1) + 0.1 * log(2.0 + u2) * u3 + 0.1 * sqrt(1.0 + u0**2 + u3**2)
    return M, [t, u0, u1, u2, u3]


@pytest.mark.parametrize(
    "U,order,build",
    [
        (np.array([[0.3, 0.2], [0.7, -0.4]]), 4, _matrix_and_graph),
        (np.array([[0.3, 0.2, -0.1, 0.5], [-0.6, 0.4, 0.8, -0.3]]), 5, _matrix_and_graph_4),
    ],
    ids=["m2-order4", "m4-order5"],
)
def test_inverse_and_normal_series(U, order, build):
    m = U.shape[1]
    M, graph = build(*taylor.Series.variables(U, order))
    M = taylor.stack([taylor.stack(row) for row in M])
    eye = taylor.einsum("nab,nbc->nac", M, taylor.inv(M))
    assert eye.order == order
    assert np.max(np.abs(eye.c[0] - np.eye(m))) <= 1e-14
    assert np.max(np.abs(eye.c[1:])) <= 1e-13
    # a space-like graph in Lorentz (m+1)-space: rows are its tangent vectors
    x = taylor.stack(graph)
    rows = x.grad().transpose((0, 2, 1))
    signs = form_signs(1, m + 1)
    n = taylor.normal(rows, signs, batched_normal(rows.value, signs))
    tangency = taylor.einsum("nkc,c,nc->nk", rows, signs, n)
    unit = taylor.einsum("nc,c,nc->n", n, signs, n)
    assert np.max(np.abs(tangency.c)) <= 1e-13
    assert np.max(np.abs(unit.c[0] + 1.0)) <= 1e-14
    assert np.max(np.abs(unit.c[1:])) <= 1e-13


def test_repeated_grads_commute():
    U = np.array([[0.3, 0.2, 0.1]])
    u, v, w = taylor.Series.variables(U, 3)
    d2 = (taylor.exp(u * v) * w).grad().grad()
    assert d2.order == 1 and d2.shape == (1, 3, 3)
    assert np.array_equal(d2.c, np.swapaxes(d2.c, 2, 3))
    d3 = d2.grad().value
    assert d3.shape == (1, 3, 3, 3)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(d3, np.transpose(d3, (0,) + tuple(p + 1 for p in perm)))
    # d_u d_v d_w of exp(uv) w = (1 + uv) exp(uv)
    assert d3[0, 0, 1, 2] == pytest.approx((1 + 0.06) * math.exp(0.06), rel=1e-14)


def test_triangular_frame_series():
    U = np.array([[0.3, 0.2, 0.1], [-0.5, 0.4, 0.9]])
    u, v, w = taylor.Series.variables(U, 3)
    J = taylor.stack([
        taylor.stack([1.5 + u * v, taylor.sin(w), 0.2]),
        taylor.stack([u, 2.0 + taylor.cos(u * w), v]),
        taylor.stack([0.3 * w, v**2, 1.0 + taylor.exp(u)]),
    ])
    g = taylor.einsum("nca,ncb->nab", J, J)
    F0 = triangular_frame(g.value)
    F = taylor.triangular_frame(g, F0)
    assert F.order == 3
    assert np.array_equal(F.value, F0)
    below = np.tril_indices(3, -1)
    assert np.all(F.c[:, :, below[0], below[1]] == 0.0)  # upper triangular at every degree
    S = taylor.einsum("nai,nab,nbj->nij", F, g, F) - np.eye(3)
    assert np.max(np.abs(S.c)) <= 1e-13
