import json
import math

import numpy as np
import pytest
import sympy as sp

from confgeo import catalog
from confgeo.catalog import build_instance, sphere_components
from confgeo.chart import (
    AmbientForm,
    Box,
    ImmersionChart,
    chart_from_dict,
    chart_to_dict,
    grid_points,
    load_chart,
    save_chart,
    shape_batch,
    shape_series,
    regularity_from_jet,
    validate_regularity,
)
from confgeo.config import NumericsConfig
from confgeo.conformal_atlas import lift_chart
from confgeo.errors import (
    ChartDomainError,
    DimensionMismatchError,
    DomainError,
    RegularityError,
    ValidationError,
)
from confgeo.fd import default_reach
from confgeo.invariants import evaluate_field, frame_route, grid_margin


def fd_chart_from(fn, m, ambient, box, step=None):
    return ImmersionChart(
        "fd-test", m, ambient, box, eval_fn=fn, jet_mode="fd", fd_step=step
    )


class TestJets:
    def test_constant_chart_derivatives_vanish(self):
        c = np.array([1.0, 0.0, 0.0, 0.2])
        chart = fd_chart_from(
            lambda U: np.tile(c, (U.shape[0], 1)),
            3,
            AmbientForm("lorentz_flat", 4),
            Box((-1, -1, -1), (1, 1, 1)),
        )
        jet = chart.jet(np.zeros((1, 3)), 3)
        for _ in range(3):
            jet = jet.grad()
            assert np.max(np.abs(jet.value)) <= 1e-9

    def test_linear_chart_second_derivatives(self, rng):
        M = rng.normal(size=(4, 3))
        chart = fd_chart_from(
            lambda U: U @ M.T,
            3,
            AmbientForm("lorentz_flat", 4),
            Box((-1, -1, -1), (1, 1, 1)),
        )
        jet = chart.jet(np.zeros((2, 3)), 2)
        assert np.max(np.abs(jet.grad().grad().value)) <= 1e-12
        assert np.allclose(jet.grad().value[0], M, atol=1e-12)

    def test_fd_versus_analytic_on_wp(self, wp_chart, rng):
        lo, hi = wp_chart.domain.arrays()
        margin = wp_chart.with_jet_mode("fd").fd_margin() + 0.01
        U = rng.uniform(lo + margin, hi - margin, size=(10, wp_chart.m))
        fd_version = wp_chart.with_jet_mode("fd")
        an = wp_chart.jet(U, 4)
        fd = fd_version.jet(U, 4)
        for r in range(1, 5):
            an, fd = an.grad(), fd.grad()
            scale = 1.0 + np.max(np.abs(an.value))
            assert np.max(np.abs(an.value - fd.value)) / scale <= 1e-7

    def test_fd_jet_needs_margin(self):
        chart = fd_chart_from(
            lambda U: np.concatenate([U, np.ones((U.shape[0], 1))], axis=1),
            2,
            AmbientForm("lorentz_flat", 3),
            Box((0, 0), (1, 1)),
        )
        with pytest.raises(DomainError):
            chart.jet(np.array([[0.01, 0.5]]), 4)

    @pytest.mark.parametrize("inverse_reach,order", [(4, 2), (4, 4), (4, 5), (8, 2), (8, 4), (2, 3)])
    def test_fd_jet_taps_stay_in_domain(self, inverse_reach, order):
        # points on the edge of the declared margin, at the default reach
        # and at a reach of 1 / inverse_reach: every evaluation of the fit's
        # sample cloud must still land inside the domain
        for step in (None, 1.0 / inverse_reach):
            taps = []

            def recording(U):
                taps.append(U.copy())
                return np.stack([U[:, 0] * U[:, 1], U[:, 0], U[:, 1]], axis=1)

            chart = fd_chart_from(
                recording, 2, AmbientForm("lorentz_flat", 3), Box((-1, -1), (1, 1)), step=step
            )
            margin = chart.fd_margin()
            chart.jet(np.array([[margin - 1.0, 1.0 - margin], [0.0, 0.0]]), order)
            points = np.concatenate(taps)
            assert np.all(np.abs(points) <= 1.0)
            assert np.max(np.abs(points)) == 1.0

    def test_fd_margin_is_the_cloud_reach(self, sxh_chart):
        assert sxh_chart.fd_margin() == 0.0
        assert sxh_chart.with_jet_mode("fd").fd_margin() == default_reach(3) == 0.1
        assert sxh_chart.with_jet_mode("fd", fd_step=0.05).fd_margin() == 0.05

    def test_jet_order_bounds(self, sxh_chart):
        with pytest.raises(ValidationError):
            sxh_chart.jet(np.array([[0.5, 1.2, 0.6]]), 6)

    def test_float_constants_keep_every_digit(self, rng):
        # sympy prints a Float with 15 digits, 1.4142135623731 for sqrt(2);
        # the compiled expressions must carry the double itself
        u = sp.symbols("u0:3")
        t = sp.Float(math.sqrt(2)) / 4 * u[0] ** 2 + u[1] * u[2] / 7
        c = math.sqrt(2) / 4
        ambient, box = AmbientForm("lorentz_flat", 4), Box((-0.5,) * 3, (0.5,) * 3)
        expr_chart = ImmersionChart("floats", 3, ambient, box, exprs=sp.Matrix([t, *u]), syms=u)
        plain = ImmersionChart(
            "floats", 3, ambient, box, formula=lambda a, b, d: ([c * a**2 + (1 / 7) * b * d, a, b, d], {})
        )
        U = rng.uniform(-0.4, 0.4, size=(6, 3))
        assert np.array_equal(expr_chart.eval(U), plain.eval(U))
        assert np.array_equal(expr_chart.jet(U, 5).c, plain.jet(U, 5).c)

    def test_reparametrized_expressions_substitute_the_affine_map(self, graph_chart, rng):
        # `exprs` of a reparametrized expression chart runs the compiled
        # formula on sympy columns, which substitutes them into the expressions
        A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
        b = 0.05 * rng.normal(size=3)
        re = graph_chart.reparametrized(A, b)
        u = sp.symbols("u0:3")
        shifted = [sum(A[i, j] * u[j] for j in range(3)) + b[i] for i in range(3)]
        expected = graph_chart.exprs.subs(dict(zip(graph_chart.syms, shifted)), simultaneous=True)
        assert re.exprs == expected


class TestShapeData:
    def test_product_chart_oracle(self, sxh_chart):
        # closed forms for S^2(sqrt2) x H^1(-1): rho^2 = 1/2, |H| = 2 sqrt2 / 3,
        # principal curvatures {sqrt2, 1/sqrt2 x2} up to the orientation sign
        U = grid_points(sxh_chart.domain, [3], margin=0.02)
        s = shape_batch(sxh_chart, U)
        assert np.allclose(s.rho2.value, 0.5, atol=1e-12)
        assert np.allclose(np.abs(s.H.value), 2 * math.sqrt(2) / 3, atol=1e-12)
        pc = np.sort(np.abs(np.linalg.eigvals(np.einsum("nij,njk->nik", s.g0inv.value, s.h.value))), axis=1)
        assert np.allclose(pc, [1 / math.sqrt(2), 1 / math.sqrt(2), math.sqrt(2)], atol=1e-10)

    def test_assembled_chart_conformal_factor_is_leading_slot(self, ex33_chart):
        # the conformal factor must equal the leading coordinate of the core
        U = grid_points(ex33_chart.domain, [3], margin=0.02)
        s = shape_batch(ex33_chart, U)
        r = ex33_chart.params["r"]
        b1 = r * math.sqrt(0.5)
        y0 = b1 * np.cosh(U[:, 0])
        assert np.allclose(np.sqrt(s.rho2.value), y0, atol=1e-8)

    def test_normal_is_unit_timelike_and_orthogonal(self, wp_chart):
        U = grid_points(wp_chart.domain, [3], margin=0.02)
        n = shape_batch(wp_chart, U).n.value
        signs = wp_chart.ambient.signs
        nn = np.einsum("nc,c,nc->n", n, signs, n)
        assert np.allclose(nn, -1.0, atol=1e-9)
        ndx = np.einsum("nc,c,nci->ni", n, signs, wp_chart.jet(U, 1).grad().value)
        assert np.max(np.abs(ndx)) <= 1e-9

    @pytest.mark.parametrize("name", ["sxh_chart", "wp_lifted", "ex33_chart"])
    def test_centre_values_are_the_order_0_series(self, name, request):
        # shape_batch is the series body at order 0; the series of a field's
        # order-5 jet carry the same centre values
        chart = request.getfixturevalue(name)
        U = grid_points(chart.domain, [3], margin=0.06)
        centre = shape_batch(chart, U)
        s = shape_series(chart, chart.jet(U, 5))
        assert centre.rho2.order == 0
        assert s.rho2.order == 3
        for key in ("x", "n", "g0", "h", "H", "rho2"):
            want, got = getattr(centre, key).value, getattr(s, key).value
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), key

    def test_ambient_constraint(self, ex33_chart):
        U = grid_points(ex33_chart.domain, [3], margin=0.02)
        x = ex33_chart.eval(U)
        assert np.max(ex33_chart.ambient.quadric_residual(x)) <= 1e-9

    def test_reparametrization_invariance(self, sxh_chart, rng):
        self._check_reparametrization(sxh_chart, np.array([0.55, 1.25, 0.65]), rng)

    def test_reparametrization_of_lifted_chart(self, hxr_chart, rng):
        self._check_reparametrization(lift_chart(hxr_chart, "psi1"), np.array([0.55, 1.05, 0.95]), rng)

    @staticmethod
    def _check_reparametrization(chart, u, rng):
        A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
        b = 0.05 * rng.normal(size=3)
        re = chart.reparametrized(A, b)
        v = np.linalg.solve(A, u - b)
        s1 = shape_batch(chart, u[None])
        s2 = shape_batch(re, v[None])
        assert math.sqrt(s1.rho2.value[0]) == pytest.approx(math.sqrt(s2.rho2.value[0]), rel=1e-6)
        assert abs(s1.H.value[0]) == pytest.approx(abs(s2.H.value[0]), rel=1e-6)
        pc1 = np.sort(np.abs(np.linalg.eigvals(np.linalg.inv(s1.g0.value[0]) @ s1.h.value[0])))
        pc2 = np.sort(np.abs(np.linalg.eigvals(np.linalg.inv(s2.g0.value[0]) @ s2.h.value[0])))
        assert np.allclose(pc1, pc2, rtol=1e-6)


class TestRegularity:
    def test_umbilic_slice_rejected(self):
        # constant-time slice of the de Sitter form: totally umbilic, rho = 0
        th = sp.symbols("th0:3")
        comps = [sp.sinh(1)] + sphere_components(sp.cosh(1), list(th))
        chart = ImmersionChart(
            "umbilic-slice",
            3,
            AmbientForm("de_sitter", 4, 1.0),
            Box((0.9, 0.3, 0.3), (1.7, 1.1, 1.1)),
            exprs=sp.Matrix(comps),
            syms=tuple(th),
        )
        U = grid_points(chart.domain, [3])
        rep = validate_regularity(chart, U)
        assert not rep.regular
        assert rep.min_rho2 <= 1e-10
        # shape data exist on the umbilic locus; the invariants and the
        # frame route, which take rho, refuse it
        assert np.min(shape_batch(chart, U).rho2.value) <= NumericsConfig.regularity_tol
        message = "totally umbilic locus: conformal factor rho\\^2 = .* is not positive"
        for call in (evaluate_field, frame_route):
            with pytest.raises(RegularityError, match=message):
                call(chart, U)

    @pytest.mark.parametrize(
        "name,order",
        [
            pytest.param("sxh", 2, id="2"),
            pytest.param("sxh", 5, id="5"),
            pytest.param("wp@psi1", 2, id="wp@psi1-2"),
            pytest.param("wp@psi1", 5, id="wp@psi1-5"),
            pytest.param("fd-sxh", 2, id="fd-sxh-2"),
            pytest.param("fd-sxh", 5, id="fd-sxh-5"),
        ],
    )
    def test_report_from_an_evaluated_jet(self, sxh_chart, wp_lifted, name, order):
        # the order-5 jet that classify shares with the field gives the
        # report of validate_regularity's own order-2 jet
        chart = {"sxh": sxh_chart, "wp@psi1": wp_lifted, "fd-sxh": sxh_chart.with_jet_mode("fd")}[name]
        U = grid_points(chart.domain, [3], margin=max(0.05, grid_margin(chart)))
        rep = regularity_from_jet(chart, chart.jet(U, order))
        assert rep == validate_regularity(chart, U)

    def test_wp_regular(self, wp_chart):
        U = grid_points(wp_chart.domain, [3], margin=0.02)
        rep = validate_regularity(wp_chart, U)
        assert rep.regular
        assert rep.min_rho2 > 0.1

    def test_rank_deficient_chart_reported(self):
        u, v = sp.symbols("u v")
        comps = [sp.cosh(u), sp.sinh(u), sp.Integer(0) * v]
        chart = ImmersionChart(
            "degenerate",
            2,
            AmbientForm("lorentz_flat", 3),
            Box((-1, -1), (1, 1)),
            exprs=sp.Matrix(comps),
            syms=(u, v),
        )
        rep = validate_regularity(chart, grid_points(chart.domain, [3]))
        assert not rep.regular
        assert abs(rep.min_metric_eig) <= 1e-12


class TestChartFiles:
    def test_round_trip_lossless(self, tmp_path, sxh_chart):
        d = chart_to_dict(sxh_chart)
        path = tmp_path / "chart.json"
        save_chart(sxh_chart, path)
        loaded = load_chart(path)
        assert chart_to_dict(loaded) == d
        u = np.array([[0.5, 1.2, 0.6]])
        assert np.allclose(sxh_chart.eval(u), loaded.eval(u))

    def test_round_trip_fd_fields(self, tmp_path, wp_chart):
        fd_version = wp_chart.with_jet_mode("fd", fd_step=0.05)
        d = chart_to_dict(fd_version)
        assert d["jet"] == "fd"
        assert d["fd"] == {"step": 0.05}
        rebuilt = chart_from_dict(json.loads(json.dumps(d)))
        assert chart_to_dict(rebuilt) == d

    def test_stencil_era_fd_fields_load(self, stencil_era_fd_chart_file, sxh_chart):
        loaded = load_chart(stencil_era_fd_chart_file)
        assert loaded.jet_mode == "fd" and loaded.fd_step is None
        assert chart_to_dict(loaded) == chart_to_dict(sxh_chart.with_jet_mode("fd"))
        assert chart_to_dict(loaded)["fd"] == {"step": None}

    @pytest.mark.parametrize("order", [0, -2, 2.5, "4"])
    def test_invalid_fd_order_rejected(self, sxh_chart, order):
        # files of the stencil era carry an accuracy order; the fit reads
        # none, but a file whose order was refused then is refused still
        d = chart_to_dict(sxh_chart.with_jet_mode("fd"))
        d["fd"]["order"] = order
        with pytest.raises(ValidationError, match="FD accuracy order"):
            chart_from_dict(d)

    @pytest.mark.parametrize("step", [0, -0.5])
    def test_non_positive_fd_step_takes_the_default_reach(self, sxh_chart, step):
        d = chart_to_dict(sxh_chart.with_jet_mode("fd"))
        d["fd"]["step"] = step
        assert chart_from_dict(d).fd_margin() == default_reach(3)

    @pytest.mark.parametrize("name", ["wp", "hxr", "hxh"])
    @pytest.mark.parametrize("jet_mode", ["analytic", "fd"])
    def test_round_trip_lifted(self, tmp_path, name, jet_mode):
        lifted = lift_chart(build_instance(name), "psi1").with_jet_mode(jet_mode)
        path = tmp_path / "chart.json"
        save_chart(lifted, path)
        loaded = load_chart(path)
        assert chart_to_dict(loaded) == chart_to_dict(lifted)
        assert loaded.name == lifted.name and loaded.jet_mode == jet_mode
        U = grid_points(lifted.domain, [3], margin=max(0.1, lifted.fd_margin()))[::4]
        assert np.array_equal(loaded.eval(U), lifted.eval(U))
        j0, j1 = lifted.jet(U, 2), loaded.jet(U, 2)
        for r in range(3):
            if r:
                j0, j1 = j0.grad(), j1.grad()
            assert np.array_equal(j0.value, j1.value)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValidationError):
            chart_from_dict({"name": "nope", "m": 3, "params": {}, "domain": {"lo": [0], "hi": [1]}})

    def test_declared_ambient_must_match_the_template(self, sxh_chart):
        d = chart_to_dict(sxh_chart)
        d["ambient"]["kind"] = "anti_de_sitter"
        with pytest.raises(ValidationError, match="declares ambient 'anti_de_sitter' but template 'sxh'"):
            chart_from_dict(d)
        d["ambient"] = {"kind": "de_sitter", "a": 1.0 + 1e-12}
        with pytest.raises(ValidationError, match="declares ambient radius 1.000000000001 but template 'sxh'"):
            chart_from_dict(d)

    def test_chart_without_template_is_not_serialized(self, sxh_chart):
        with pytest.raises(ValidationError, match="has no template name"):
            chart_to_dict(sxh_chart._replace(template=None))

    @pytest.mark.parametrize("lifted", [False, True], ids=["sxh", "sxh@psi1"])
    def test_reparametrized_chart_is_not_saved_as_its_template(self, tmp_path, sxh_chart, lifted):
        # a file records the template and the preimage box but not the affine
        # map, so loading it would build another patch
        chart = lift_chart(sxh_chart, "psi1") if lifted else sxh_chart
        A = np.eye(3)
        A[0, 1] = 0.2
        re = chart.reparametrized(A, np.array([0.05, 0.0, 0.0]))
        assert re.template is None
        with pytest.raises(ValidationError, match="has no template name"):
            save_chart(re, tmp_path / "chart.json")

    def test_domain_length_is_checked_before_the_builders_run(self, monkeypatch):
        # a 10**7-dimensional sxh takes seconds and hundreds of MB to build;
        # its 3-entry domain refuses it first
        monkeypatch.setitem(catalog._BUILDERS, "sxh", lambda **_: pytest.fail("builder ran"))
        d = {"name": "sxh", "m": 10**7, "domain": {"lo": [0.35, 0.9, 0.25], "hi": [0.95, 1.7, 1.05]}}
        with pytest.raises(ValidationError, match="^domain dimension 3 != m=10000000$"):
            chart_from_dict(d)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_domain_bound_rejected(self, sxh_chart, bound):
        d = chart_to_dict(sxh_chart)
        d["domain"]["hi"][1] = bound
        with pytest.raises(ValidationError, match="finite lo < hi per axis"):
            chart_from_dict(d)


class TestGrids:
    def test_counts_validated(self, sxh_chart):
        with pytest.raises(ValidationError):
            grid_points(sxh_chart.domain, [2])

    def test_one_count_per_axis(self, sxh_chart):
        with pytest.raises(ValidationError, match="need 3 per-axis counts, got 2"):
            grid_points(sxh_chart.domain, [3, 3])

    def test_margin_leaving_no_domain_rejected(self, sxh_chart):
        with pytest.raises(DomainError, match="leaves an empty domain"):
            grid_points(sxh_chart.domain, [3], margin=0.5)

    def test_margin_inset(self, sxh_chart):
        U = grid_points(sxh_chart.domain, [3], margin=0.1)
        lo, hi = sxh_chart.domain.arrays()
        assert np.all(U >= lo + 0.1 - 1e-12)
        assert np.all(U <= hi - 0.1 + 1e-12)


def _plane(u0, u1):
    """A space-like plane in R^3_1 whose formula names u1 as a denominator."""
    return [0.5 * u0, u0, u1], {"u1": u1}


_FLAT_3 = AmbientForm("lorentz_flat", 3)
_SQUARE = Box((-1.0, -1.0), (1.0, 1.0))


class TestRefusals:
    @pytest.mark.parametrize(
        "build,fragment",
        [
            (lambda: AmbientForm("flat", 3), "unknown ambient kind 'flat'"),
            (lambda: AmbientForm("de_sitter", 3, 0.0), "ambient radius must be positive"),
            (lambda: Box((0.0, 0.0), (1.0,)), "lo/hi length mismatch"),
            (lambda: Box((0.0, 1.0), (1.0, 1.0)), "lo < hi per axis"),
        ],
        ids=["ambient-kind", "ambient-radius", "box-lengths", "box-order"],
    )
    def test_invalid_forms_and_boxes(self, build, fragment):
        with pytest.raises(ValidationError, match=fragment):
            build()

    @pytest.mark.parametrize(
        "changes,fragment",
        [
            ({"domain": Box((0.0,), (1.0,))}, "domain dimension 1 != m=2"),
            ({"ambient": AmbientForm("lorentz_flat", 4)}, "ambient dimension 4 != m\\+1=3"),
            ({"jet_mode": "taylor"}, "jet mode must be 'analytic' or 'fd', got 'taylor'"),
            ({"exprs": sp.Matrix([0, 0, 0])}, "expressions or a formula, not both"),
            ({"formula": None, "exprs": sp.Matrix([0, 0, 0])}, "expressions need their symbols"),
            ({"formula": None}, "needs a formula, expressions or an evaluator"),
            ({"formula": None, "eval_fn": np.asarray}, "analytic jets require a formula"),
        ],
        ids=["domain", "ambient", "jet-mode", "both", "no-symbols", "no-source", "analytic-evaluator"],
    )
    def test_invalid_chart_constructions(self, changes, fragment):
        args = {"name": "plane", "m": 2, "ambient": _FLAT_3, "domain": _SQUARE, "formula": _plane}
        with pytest.raises(ValidationError, match=fragment):
            ImmersionChart(**{**args, **changes})

    def test_symbolic_power_has_no_taylor_jet(self):
        u = sp.symbols("u0:2")
        chart = ImmersionChart(
            "power", 2, _FLAT_3, Box((0.5, 0.5), (1.0, 1.0)),
            exprs=sp.Matrix([u[0] ** u[1] / 4, u[0], u[1]]), syms=u,
        )
        with pytest.raises(ValidationError, match="do not support the power"):
            chart.jet(np.array([[0.7, 0.7]]), 2)

    @pytest.mark.parametrize("order", [None, 2], ids=["eval", "jet"])
    def test_vanishing_guard_denominator(self, order):
        chart = ImmersionChart("plane", 2, _FLAT_3, _SQUARE, formula=_plane)
        U = np.array([[0.5, 0.5], [0.5, 0.0]])
        with pytest.raises(ChartDomainError, match="denominator 'u1' vanishes"):
            chart.eval(U) if order is None else chart.jet(U, order)

    def test_points_of_the_wrong_dimension(self):
        chart = ImmersionChart("plane", 2, _FLAT_3, _SQUARE, formula=_plane)
        with pytest.raises(DimensionMismatchError, match="points have 3 coords, chart expects 2"):
            chart.eval(np.zeros((1, 3)))

    def test_evaluator_chart_is_not_reparametrized(self):
        chart = fd_chart_from(lambda U: np.zeros((U.shape[0], 3)), 2, _FLAT_3, _SQUARE)
        with pytest.raises(ValidationError, match="reparametrization requires a formula"):
            chart.reparametrized(np.eye(2), np.zeros(2))
