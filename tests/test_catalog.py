import math

import numpy as np
import pytest
import sympy as sp

from confgeo.catalog import (
    DEFAULT_INSTANCES,
    CoreHypersurface,
    build_instance,
    hyperbolic_components,
    make_example,
    make_hxh,
    make_hxr,
    make_sxh,
    make_wp,
    verify_core,
)
from confgeo.chart import (
    AmbientForm,
    Box,
    ImmersionChart,
    chart_from_dict,
    chart_to_dict,
    grid_points,
    shape_batch,
)
from confgeo.conformal_atlas import lift_chart
from confgeo.errors import ConstructionError, ValidationError
from confgeo.invariants import evaluate_field


# hand-derived spectra (A ascending; |B| ascending, orientation-free)
FROZEN = {
    "sxh": {
        "A": sorted([-7 / 9, 5 / 9, 5 / 9]),
        "B_abs": sorted([2 / 3, 1 / 3, 1 / 3]),
        "rho2": 0.5,
    },
    "hxr": {
        "A": sorted([-5 / 18, 1 / 18, 1 / 18]),
        "B_abs": sorted([2 / 3, 1 / 3, 1 / 3]),
        "rho2": 1.0,
    },
    "hxh": {
        "A": sorted([-22 / 225, -28 / 225, -28 / 225]),
        "B_abs": sorted([2 / 3, 1 / 3, 1 / 3]),
        "rho2": 625 / 144,
    },
    "wp": {
        "A": sorted([17 / 544, 73 / 544, -143 / 544, -143 / 544]),
        "B_abs": sorted([9, 5, 7, 7]) and sorted(v / (4 * math.sqrt(17)) for v in (9, 5, 7, 7)),
    },
    "ex33": {
        "A": sorted([-3 / 16, -3 / 16, 3 / 16, 3 / 16]),
        "B_abs": sorted([math.sqrt(3 / 8), math.sqrt(3 / 8), 0, 0]),
    },
}


class TestParameterValidation:
    def test_hxh_boundary(self):
        with pytest.raises(ValidationError, match="0 < a < 1"):
            make_hxh(3, 1, 1.0)

    def test_sxh_radius(self):
        with pytest.raises(ValidationError, match="a > 1"):
            make_sxh(3, 1, 1.0)

    def test_hxr_k_range(self):
        with pytest.raises(ValidationError, match="1 <= k <= m-1"):
            make_hxr(3, 3)

    @pytest.mark.parametrize(
        "family,build",
        [("hxr", make_hxr), ("sxh", lambda m, k: make_sxh(m, k, 2.0)), ("hxh", lambda m, k: make_hxh(m, k, 0.6))],
    )
    def test_split_product_range_names_the_family(self, family, build):
        with pytest.raises(ValidationError, match=f"^{family} requires m >= 2, got m=1$"):
            build(1, 1)
        for k in (0, 3):
            with pytest.raises(ValidationError, match=f"^{family} requires 1 <= k <= m-1, got k={k}, m=3$"):
                build(3, k)

    def test_split_product_names_a_as_passed(self):
        # the chart name shows a as the caller wrote it, params hold a float
        sxh, hxh, hxr = make_sxh(3, 1, 2), make_hxh(4, 2, 0.5), make_hxr(4, 3)
        assert (sxh.name, sxh.params) == ("sxh(m=3,k=1,a=2)", {"k": 1, "a": 2.0})
        assert type(sxh.params["a"]) is float
        assert (hxh.name, hxh.params) == ("hxh(m=4,k=2,a=0.5)", {"k": 2, "a": 0.5})
        assert (hxr.name, hxr.params) == ("hxr(m=4,k=3)", {"k": 3})

    def test_wp_dimension_bound(self):
        with pytest.raises(ValidationError, match="p \\+ q < m"):
            make_wp(3, 2, 1, 2.0)

    def test_example_k_bound(self):
        with pytest.raises(ValidationError, match="2 <= K <= m-1"):
            make_example("ex33", 3, 3)

    def test_example_split_bound(self):
        with pytest.raises(ValidationError, match="split"):
            make_example("ex33", 4, 2, split=2)

    @pytest.mark.parametrize("a", [math.inf, 1e200])
    def test_warp_radius_must_be_finite(self, a):
        with pytest.raises(ValidationError, match="finite sqrt\\(a\\^2 - 1\\), got a="):
            make_sxh(3, 1, a)
        with pytest.raises(ValidationError, match="finite sqrt\\(a\\^2 - 1\\), got a="):
            make_wp(4, 1, 1, a)


class TestFrozenSpectra:
    def _spectra(self, chart):
        work = chart if chart.ambient.kind == "de_sitter" else lift_chart(chart, "psi1")
        U = grid_points(work.domain, [3], margin=0.05)
        f = evaluate_field(work, U, derivatives=False, curvature=False)
        return f

    @pytest.mark.parametrize("name", ["sxh", "hxr", "hxh", "wp", "ex33"])
    def test_invariant_eigenvalues(self, name):
        chart = build_instance(name)
        f = self._spectra(chart)
        expected = FROZEN[name]
        assert np.allclose(f.A_eigs(), expected["A"], atol=2e-8), f.A_eigs()[0]
        B_abs = np.sort(np.abs(f.B_eigs()), axis=1)
        assert np.allclose(B_abs, sorted(expected["B_abs"]), atol=2e-8)

    @pytest.mark.parametrize("name", ["sxh", "hxr", "hxh"])
    def test_constant_conformal_factor(self, name):
        chart = build_instance(name)
        U = grid_points(chart.domain, [3], margin=0.05)
        rho2 = shape_batch(chart, U).rho2.value
        assert np.allclose(rho2, FROZEN[name]["rho2"], atol=1e-10)
        assert np.ptp(np.sqrt(rho2)) <= 1e-10

    def test_wp_three_distinct_b_clusters(self):
        f = self._spectra(build_instance("wp"))
        from confgeo.pseudo_linalg import cluster_eigenvalues

        for row in f.B_eigs():
            clusters = cluster_eigenvalues(row, 1e-6)
            assert len(clusters) == 3

    def test_product_invariants_constant_over_patch(self, sxh_field):
        assert np.ptp(sxh_field.A_eigs(), axis=0).max() <= 1e-8
        assert np.ptp(sxh_field.B_eigs(), axis=0).max() <= 1e-8
        assert np.ptp(sxh_field.rho) <= 1e-8

    def test_phi_vanishes_on_catalog(self, sxh_field, wp_field, ex33_field):
        for f in (sxh_field, wp_field, ex33_field):
            assert np.max(f.phi_norm()) <= 1e-6


class TestAssembledExample:
    def test_core_radius_solved(self, ex33_chart):
        m, K = 4, 2
        assert ex33_chart.params["r"] == pytest.approx(math.sqrt(m * K / (m - 1)), abs=1e-10)

    @pytest.mark.parametrize("m, K, j", [(4, 2, 1), (5, 3, 1), (5, 3, 2), (6, 4, 2)])
    def test_core_radius_closed_form(self, m, K, j):
        # the maximal cylinder has |h|^2 = K / r^2, which is (m-1)/m here
        core = make_example("ex33", m, K, split=j).core
        assert core.r == math.sqrt(m * K / (m - 1))
        assert abs(K / core.r**2 - (m - 1) / m) <= 4 * np.finfo(float).eps

    def test_core_h2_at_roundoff(self, ex33_chart):
        assert ex33_chart.params["r"] == 1.632993161855452  # sqrt(8/3), correctly rounded
        assert verify_core(ex33_chart.core).h2_deviation <= 1e-14

    def test_copies_keep_the_core(self, ex33_chart):
        fd = ex33_chart.with_jet_mode("fd")
        loaded = chart_from_dict(chart_to_dict(ex33_chart))
        assert fd.core is ex33_chart.core
        assert loaded.core.r == ex33_chart.core.r
        assert loaded.core.chart.name == ex33_chart.core.chart.name

    def test_core_requirements(self, ex33_chart):
        rep = verify_core(ex33_chart.core)
        assert rep.mean_curvature_residual <= 1e-10
        assert rep.h2_deviation <= 1e-8
        assert rep.scalar_curvature_deviation <= 1e-6

    def test_explicit_consistent_radius_accepted(self):
        r = math.sqrt(8 / 3)
        chart = make_example("ex33", 4, 2, split=1, r=r)
        assert chart.params["r"] == pytest.approx(r)

    def test_explicit_inconsistent_radius_rejected(self):
        with pytest.raises(ValidationError, match="squared-norm constraint"):
            make_example("ex33", 4, 2, split=1, r=1.0)

    def test_totally_geodesic_core_rejected(self):
        # slice of the anti-de Sitter quadric: h = 0 so |h|^2 never matches
        K, r = 2, math.sqrt(8 / 3)
        t = list(sp.symbols("t0:2"))
        w = hyperbolic_components(sp.Float(r), t)
        comps = [w[0], sp.Integer(0), *w[1:]]
        chart = ImmersionChart(
            "geodesic-core",
            K,
            AmbientForm("anti_de_sitter", K + 1, r),
            Box((0.3, 0.2), (0.9, 1.0)),  # polar-type coordinates: avoid the pole
            exprs=sp.Matrix(comps),
            syms=tuple(t),
        )
        core = CoreHypersurface(K, r, r, r, chart, target_h2=3 / 4)
        rep = verify_core(core)
        assert not np.isfinite(rep.scalar_curvature_deviation) or rep.h2_deviation > 0.5

    def test_ds_core_family_infeasible(self):
        with pytest.raises(ConstructionError, match="never zero"):
            make_example("ex32", 4, 2)

    def test_ds_core_k2_obstruction_documented(self):
        with pytest.raises(ConstructionError, match="flat induced metric"):
            make_example("ex32", 4, 2)

    def test_ds_core_k2_obstruction_note(self):
        with pytest.raises(ConstructionError) as exc:
            make_example("ex32", 4, 2)
        assert str(exc.value) == (
            "ex32 core construction infeasible: minimal attainable |H| over the "
            "cylinder family is 1 (at r=1 scale), never zero: both curvature groups "
            "share a sign inside a de Sitter quadric. For K=2 the required core cannot "
            "exist at all: tr h = 0 and |h|^2 = (m-1)/m force constant principal "
            "curvatures +-c, the Codazzi equations then force a flat induced metric, "
            "and the Gauss equation gives the contradiction 1/r^2 + c^2 = 0."
        )

    @pytest.mark.parametrize("K, j", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)])
    def test_ds_core_obstruction_bound(self, K, j):
        # |H| of H^j x S^{K-j} in the unit de Sitter quadric over a fine scan
        # of the radius split, b2^2 = 1 + b1^2
        b1 = np.exp(np.linspace(-12.0, 12.0, 240_001))
        b2 = np.hypot(1.0, b1)
        scan = float(np.min((j * b2 / b1 + (K - j) * b1 / b2) / K))
        bound = 2 * math.sqrt(j * (K - j)) / K if j <= K - j else 1.0
        assert bound - 1e-12 <= scan <= bound + 1e-7
        with pytest.raises(ConstructionError) as exc:
            make_example("ex32", K + 1, K, split=j)
        assert f"over the cylinder family is {bound:.6g} (at r=1 scale)" in str(exc.value)

    @pytest.mark.parametrize("j", [1, 2])
    def test_polar_core_factor_off_the_pole(self, j):
        # at K = 3 one core factor is H^2, whose first coordinate is polar:
        # its box leaves out the pole, where the core's metric degenerates
        core = make_example("ex33", 5, 3, split=j).core
        rep = verify_core(core)
        assert rep.mean_curvature_residual <= 1e-10
        assert rep.h2_deviation <= 1e-8

    def test_hyperbola_core_factors_keep_their_box(self, ex33_chart):
        assert ex33_chart.domain.lo[:2] == (-0.45, -0.45)
        assert ex33_chart.domain.hi[:2] == (0.45, 0.45)

    def test_assembled_b_is_parallel_for_cylinder_cores(self, ex33_field):
        # the only closed-form cores are isoparametric cylinders, whose
        # assembled second fundamental form is parallel; exhibited, not hidden
        assert np.abs(ex33_field.dB).max() <= 1e-8
        assert np.abs(ex33_field.dA).max() <= 1e-5


class TestRegularityOfCatalog:
    @pytest.mark.parametrize("name", ["sxh", "hxr", "hxh", "wp", "ex33"])
    def test_default_instances_regular(self, name):
        from confgeo.chart import validate_regularity

        chart = build_instance(name)
        work = chart if chart.ambient.kind == "de_sitter" else lift_chart(chart, "psi1")
        U = grid_points(work.domain, [3], margin=0.05)
        assert validate_regularity(work, U).regular


class TestFormulas:
    @pytest.mark.parametrize("name", ["hxr", "sxh", "hxh", "wp", "ex33"])
    def test_eval_matches_symbolic_components(self, name):
        # the on-demand expressions run the chart's formula on sympy
        # symbols; lambdified to plain numpy they give the chart's values
        chart = build_instance(name)
        U = grid_points(chart.domain, [3])
        ref = sp.lambdify(chart.syms, list(chart.exprs), "numpy")(*U.T)
        ref = np.stack([np.broadcast_to(np.asarray(v, float), (len(U),)) for v in ref], axis=1)
        assert np.max(np.abs(chart.eval(U) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_reparametrized_formula_composes_the_affine_map(self, sxh_chart, rng):
        A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
        b = 0.05 * rng.normal(size=3)
        re = sxh_chart.reparametrized(A, b)
        V = grid_points(re.domain, [3])
        assert np.max(np.abs(re.eval(V) - sxh_chart.eval(V @ A.T + b))) <= 1e-14
        u = sp.symbols("u0:3")
        shifted = [sum(A[i, j] * u[j] for j in range(3)) + b[i] for i in range(3)]
        expected = sxh_chart.exprs.subs(dict(zip(sxh_chart.syms, shifted)), simultaneous=True)
        assert sp.simplify(re.exprs - expected) == sp.zeros(5, 1)


class TestBuildInstance:
    def test_unknown_name_lists_available(self):
        with pytest.raises(ValidationError) as exc:
            build_instance("nope")
        for name in DEFAULT_INSTANCES:
            assert repr(name) in str(exc.value)

    @pytest.mark.parametrize("name", sorted(DEFAULT_INSTANCES))
    def test_default_names_resolve_through_registry(self, name):
        if name == "ex32":
            with pytest.raises(ConstructionError):
                build_instance(name)
        else:
            assert build_instance(name).template == name

    @pytest.mark.parametrize(
        "name,overrides,key,kind",
        [
            ("sxh", {"k": 1.5}, "k", "an integer"),
            ("wp", {"m": 4.9}, "m", "an integer"),
            ("wp", {"p": True}, "p", "an integer"),
            ("ex33", {"K": 2.7}, "K", "an integer"),
            ("hxr", {"k": "1"}, "k", "an integer"),
            ("hxr", {"m": math.nan}, "m", "an integer"),
            ("sxh", {"m": math.inf}, "m", "an integer"),
            ("sxh", {"a": True}, "a", "a double-precision number"),
            ("hxh", {"a": "0.5"}, "a", "a double-precision number"),
            ("wp", {"a": 10**300}, "a", "a double-precision number"),
            ("ex33", {"r": [2.0]}, "r", "a double-precision number"),
        ],
    )
    def test_parameter_of_the_wrong_type_is_refused(self, name, overrides, key, kind):
        # a value is never truncated: the refusal names the family and the parameter
        with pytest.raises(ValidationError, match=f"^{name} parameter '{key}' must be {kind}, got "):
            build_instance(name, **overrides)

    def test_integral_values_become_ints_and_floats_pass_as_given(self):
        chart = build_instance("sxh", m=4.0, k=np.int64(2), a=2)
        assert chart.name == "sxh(m=4,k=2,a=2)" and chart.m == 4
        assert type(chart.params["k"]) is int
        assert build_instance("wp", a=2.5).name == "wp(m=4,p=1,q=1,a=2.5)"

    @pytest.mark.parametrize("r", [1e200, 1e-200, 10**15])
    def test_extreme_core_radius_is_refused(self, r):
        # K / r^2 neither overflows nor divides by zero on the way
        with pytest.raises(ValidationError, match="squared-norm constraint"):
            build_instance("ex33", r=r)
