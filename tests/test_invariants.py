import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confgeo import invariants
from confgeo.catalog import build_instance
from confgeo.chart import grid_points, shape_batch, shape_data
from confgeo.config import DEFAULT, FDConfig
from confgeo.conformal_atlas import LiftedChart, lift_chart
from confgeo.errors import ConsistencyError, ValidationError
from confgeo.invariants import (
    blaschke_and_b,
    conformal_frame,
    conformal_metric,
    conformal_position,
    covariant_derivatives,
    curvature_of_g,
    evaluate_field,
    field_report,
    field_report_csv,
    FD_ESTIMATE,
    frame_route,
    gauss_residual_with_b,
    grid_margin,
    identity_residuals,
    run_cross_check,
)
from confgeo.pseudo_linalg import Signature, is_lightlike, pseudo_dot


class TestConformalPosition:
    def test_unit_factor_slot_order(self):
        # rho = 1, x = (0, ..., 0, 1): lift is (1, 0, ..., 0, 1), null
        from confgeo.chart import ShapeData

        m = 3
        x = np.zeros(m + 2)
        x[-1] = 1.0
        stub = ShapeData(
            u=np.zeros(m),
            x=x,
            induced_metric=np.eye(m),
            normal=np.zeros(m + 2),
            h=np.zeros((m, m)),
            h_frame=np.zeros((m, m)),
            H=0.0,
            rho=1.0,
            frame=np.eye(m),
            coframe=np.eye(m),
        )
        Y = conformal_position(stub)
        expected = np.zeros(m + 3)
        expected[0] = 1.0
        expected[-1] = 1.0
        assert np.array_equal(Y.coords, expected)
        assert is_lightlike(Y)

    def test_unit_point(self, sxh_chart):
        s = shape_data(sxh_chart, np.array([0.5, 1.2, 0.6]))
        Y = conformal_position(s)
        assert Y.coords[0] == pytest.approx(s.rho)
        assert is_lightlike(Y, 1e-12)

    def test_lightlike_on_wp(self, wp_lifted, rng):
        lo, hi = wp_lifted.domain.arrays()
        for u in rng.uniform(lo + 0.1, hi - 0.1, size=(5, wp_lifted.m)):
            Y = conformal_position(shape_data(wp_lifted, u))
            val = pseudo_dot(Y.coords[None], Y.coords[None], Y.sig.signs)[0]
            assert abs(val) <= 1e-9

    def test_assembled_chart_lift_is_the_assembly(self, ex33_chart):
        # Y = rho (1, x) must reproduce the assembled light-cone immersion
        # (core coordinates followed by the sphere factor)
        U = grid_points(ex33_chart.domain, [3], margin=0.04)
        sb = shape_batch(ex33_chart, U)
        Y = np.concatenate([sb.rho[:, None], sb.rho[:, None] * sb.x], axis=1)
        core = ex33_chart.core
        core_pts = core.chart.eval(U[:, : core.K])
        r = core.r
        th1, th2 = U[:, 2], U[:, 3]
        sphere = np.stack(
            [r * np.cos(th1), r * np.sin(th1) * np.cos(th2), r * np.sin(th1) * np.sin(th2)],
            axis=1,
        )
        assembled = np.concatenate([core_pts, sphere], axis=1)
        assert np.allclose(Y, assembled, atol=1e-9)


class TestConformalMetric:
    def test_constant_factor_scales_metric(self, sxh_chart):
        s = shape_data(sxh_chart, np.array([0.5, 1.2, 0.6]))
        g, frame, coframe = conformal_metric(s)
        assert np.allclose(g, s.rho**2 * s.induced_metric)
        assert np.allclose(frame.T @ g @ frame, np.eye(3), atol=1e-12)
        assert np.allclose(coframe @ frame, np.eye(3), atol=1e-12)

    def test_assembled_chart_product_metric(self, ex33_chart):
        # conformal metric = flat core block (b1^2, b2^2) + round sphere block
        U = grid_points(ex33_chart.domain, [3], margin=0.04)
        sb = shape_batch(ex33_chart, U)
        g = sb.rho[:, None, None] ** 2 * sb.metric
        r2 = ex33_chart.params["r"] ** 2
        for n in range(U.shape[0]):
            th1 = U[n, 2]
            expected = np.diag([r2 / 2, r2 / 2, r2, r2 * math.sin(th1) ** 2])
            assert np.allclose(g[n], expected, atol=1e-9)


class TestInvariantTensors:
    def test_trace_identities_at_point(self, ex33_chart):
        t = blaschke_and_b(ex33_chart, np.array([0.1, 0.2, 1.2, 0.6]))
        m = 4
        assert np.trace(t.B) == pytest.approx(0.0, abs=1e-10)
        assert np.sum(t.B**2) == pytest.approx((m - 1) / m, abs=1e-10)
        assert np.trace(t.A) == pytest.approx((m**2 * t.kappa - 1) / (2 * m), abs=1e-8)

    def test_frame_rotation_invariance(self, sxh_field, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A, B = sxh_field.A[0], sxh_field.B[0]
        wA = np.linalg.eigvalsh(A)
        wB = np.linalg.eigvalsh(B)
        assert np.allclose(np.linalg.eigvalsh(Q.T @ A @ Q), wA, atol=1e-8)
        assert np.allclose(np.linalg.eigvalsh(Q.T @ B @ Q), wB, atol=1e-8)

    def test_cross_check_routes_agree(self, sxh_field):
        diff = run_cross_check(sxh_field)
        assert diff["cross_a"] <= 1e-12
        assert diff["cross_b"] <= 1e-12

    @pytest.mark.parametrize("derivatives", [True, False])
    def test_cross_check_reuses_the_jet(self, derivatives):
        # one jet call of the batch's points feeds both routes
        chart = build_instance("sxh")
        calls = []
        jet = chart.jet

        def recording(U, order):
            calls.append((np.atleast_2d(U).shape[0], order))
            return jet(U, order)

        chart.jet = recording
        U = grid_points(chart.domain, [3], margin=0.06)[:5]
        f = evaluate_field(chart, U, derivatives=derivatives, curvature=True, cross_check=True)
        assert calls == [(5, 5 if derivatives else 4)]
        assert f.residuals["cross_a"] <= 1e-12

    def test_cross_check_flags_route_disagreement(self, sxh_chart):
        U = grid_points(sxh_chart.domain, [3], margin=0.06)[:2]
        f = evaluate_field(sxh_chart, U, derivatives=False, curvature=False)
        f.A = f.A + 0.05  # simulate a broken formula route
        with pytest.raises(ConsistencyError, match="routes disagree"):
            run_cross_check(f)

    def test_cross_check_flags_phi_disagreement(self, graph_lifted):
        U = grid_points(graph_lifted.domain, [3], margin=0.05)[:2]
        f = evaluate_field(graph_lifted, U, derivatives=False, curvature=False)
        f.Phi = -f.Phi  # Phi in the opposite sign convention
        with pytest.raises(ConsistencyError, match="routes disagree"):
            run_cross_check(f)

    def test_requires_de_sitter_picture(self, hxr_chart):
        with pytest.raises(ValidationError, match="lift"):
            evaluate_field(hxr_chart, np.array([[0.5, 0.9, 0.9]]))


class TestCurvature:
    def test_product_scalar_curvatures(self, sxh_field, wp_field, ex33_field):
        assert np.allclose(sxh_field.kappa, 1 / 3, rtol=0, atol=1e-12)
        assert np.allclose(wp_field.kappa, -2 / 17, rtol=0, atol=1e-12)
        assert np.allclose(ex33_field.kappa, 1 / 16, rtol=0, atol=1e-12)

    def test_flat_catalog_block(self, hxr_chart):
        # H^1 x R^2 lifts with unit conformal factor: the conformal metric is flat
        lifted = lift_chart(hxr_chart, "psi1")
        R, ric, kappa = curvature_of_g(lifted, np.array([0.6, 0.9, 0.9]))
        assert abs(kappa) <= 1e-11
        assert np.max(np.abs(R)) <= 1e-11

    def test_sphere_block_sectional_curvature(self, ex33_field):
        # round factor of radius r: sectional curvature 1/r^2 = 3/8 in the
        # conformal metric, visible in the frame components of the curvature
        R = ex33_field.riemann
        # frame ordering puts the sphere directions last (triangular frame)
        K = R[:, 2, 3, 3, 2]
        assert np.allclose(K, 3 / 8, rtol=0, atol=1e-12)

    def test_gauss_identity_residual(self, sxh_field, wp_field, ex33_field):
        for f in (sxh_field, wp_field, ex33_field):
            assert f.residuals["gauss_conformal"] <= 1e-11


class TestCovariantDerivatives:
    def test_parallel_tensors_on_wp(self, wp_field):
        assert np.abs(wp_field.dA).max() <= 1e-11
        assert np.abs(wp_field.dB).max() <= 1e-11

    def test_codazzi_symmetry_residuals(self, sxh_field, ex33_field):
        for f in (sxh_field, ex33_field):
            assert f.residuals["b_codazzi"] <= 1e-11
            assert f.residuals["blaschke_codazzi"] <= 1e-11
            assert f.residuals["phi_codazzi_commutator"] <= 1e-11

    def test_wrapper_returns_components(self, ex33_chart):
        U = grid_points(ex33_chart.domain, [3], margin=0.06)[:2]
        td = covariant_derivatives(ex33_chart, U)
        m = 4
        assert td.A_ijk.shape == (2, m, m, m)
        assert td.B_ijk.shape == (2, m, m, m)
        assert td.Phi_ij.shape == (2, m, m)
        assert set(td.residuals) == {
            "phi_codazzi_commutator",
            "blaschke_codazzi",
            "b_codazzi",
        }


class TestIdentityResiduals:
    def test_full_suite_analytic_tier(self, sxh_chart):
        U = grid_points(sxh_chart.domain, [3], margin=0.06)
        res = identity_residuals(sxh_chart, U)
        for key in (
            "phi_codazzi_commutator",
            "blaschke_codazzi",
            "b_codazzi",
            "gauss_conformal",
            "trace_b",
            "norm_b",
            "trace_a_scalar",
        ):
            assert res[key] <= 1e-11, (key, res[key])

    def test_fd_tier(self, sxh_chart):
        from confgeo.invariants import required_margin

        fd_chart = sxh_chart.with_jet_mode("fd")
        U = grid_points(fd_chart.domain, [3], margin=required_margin(fd_chart))
        res = identity_residuals(fd_chart, U)
        assert max(res.values()) <= 1e-3

    def test_commutator_reduction_when_phi_vanishes(self, sxh_field):
        # with a vanishing conformal form the first Codazzi identity reduces
        # to commutativity of the two invariant tensors
        comm = np.einsum("nik,nkj->nij", sxh_field.B, sxh_field.A) - np.einsum(
            "nik,nkj->nij", sxh_field.A, sxh_field.B
        )
        assert np.max(np.abs(sxh_field.phi_norm())) <= 1e-8
        assert np.max(np.abs(comm)) <= 1e-8

    def test_perturbed_b_breaks_gauss_identity_linearly(self, sxh_field, rng):
        base = sxh_field.residuals["gauss_conformal"]
        S = rng.normal(size=(3, 3))
        S = 0.5 * (S + S.T)
        S -= np.trace(S) / 3 * np.eye(3)
        S /= np.linalg.norm(S)
        resid = []
        deltas = [1e-3, 1e-2]
        for d in deltas:
            B = sxh_field.B + d * S[None, :, :]
            resid.append(gauss_residual_with_b(sxh_field, B))
        assert resid[0] > 50 * base
        ratio = resid[1] / resid[0]
        assert 5 < ratio < 20  # linear response to within the quadratic tail


class TestFrameRoute:
    def test_frame_relations_analytic(self, sxh_chart):
        U = grid_points(sxh_chart.domain, [3], margin=0.06)[:4]
        fr = frame_route(sxh_chart, U)
        assert max(fr.relations.values()) <= 1e-12

    def test_frame_relations_fd_tier(self, sxh_chart):
        from confgeo.invariants import required_margin

        fd_chart = sxh_chart.with_jet_mode("fd")
        U = grid_points(fd_chart.domain, [3], margin=required_margin(fd_chart))[:4]
        fr = frame_route(fd_chart, U)
        assert max(fr.relations.values()) <= 1e-5

    def test_conformal_frame_wrapper(self, sxh_chart):
        cf = conformal_frame(sxh_chart, np.array([0.5, 1.2, 0.6]))
        sig = cf.Y.sig
        assert sig == Signature(2, 6)
        assert max(cf.relations.values()) <= 1e-12

    def test_native_picture_matches_lifted_computation(self, hxr_chart):
        # invariants computed in the flat picture agree with the lifted ones
        U = grid_points(hxr_chart.domain, [3], margin=0.06)[:4]
        fr = frame_route(hxr_chart, U)
        lifted = lift_chart(hxr_chart, "psi1")
        f = evaluate_field(lifted, U, derivatives=False, curvature=False)
        wA_native = np.sort(np.linalg.eigvalsh(fr.A), axis=1)
        assert np.allclose(wA_native, f.A_eigs(), rtol=0, atol=1e-11)
        wB_native = np.sort(np.abs(np.linalg.eigvalsh(fr.B)), axis=1)
        assert np.allclose(wB_native, np.sort(np.abs(f.B_eigs()), axis=1), rtol=0, atol=1e-11)

    def test_fd_jets_match_analytic_jets(self, sxh_chart):
        # the same frame route on the exact series and on the fitted ones
        # agrees at the FD tier
        from confgeo.invariants import required_margin

        fd_chart = sxh_chart.with_jet_mode("fd")
        U = grid_points(fd_chart.domain, [3], margin=required_margin(fd_chart))
        exact, fitted = frame_route(sxh_chart, U), frame_route(fd_chart, U)
        tol = DEFAULT.tier(False)
        for key in ("A", "B", "Phi", "N_vec", "xi"):
            assert np.max(np.abs(getattr(exact, key) - getattr(fitted, key))) <= tol, key


class TestOffCatalog:
    """The graph chart has Phi != 0 and non-commuting A, B, so the identities
    and the cross-check are tested with non-zero right-hand sides."""

    def test_identities_with_nonzero_phi(self, graph_lifted):
        U = grid_points(graph_lifted.domain, [3], margin=0.05)
        f = evaluate_field(graph_lifted, U, derivatives=True, curvature=True, cross_check=True)
        assert np.max(f.phi_norm()) > 1.0
        assert np.max(np.abs(np.einsum("nik,nkj->nij", f.A, f.B) - np.einsum("nik,nkj->nij", f.B, f.A))) > 1.0
        assert "cross_phi" in f.residuals
        for key, value in f.residuals.items():
            assert value <= 1e-12, key


@pytest.mark.parametrize("jet_mode", ["analytic", "fd"])
class TestConnectionAndCurvature:
    """The curvature and the covariant derivatives of the conformal metric on
    the graph chart, whose metric has no symmetry to hide an index slip: the
    algebraic symmetries of the Riemann tensor, and the metric compatibility
    and product rule of the connection.  Each holds up to roundoff."""

    def _series(self, graph_lifted, jet_mode):
        chart = graph_lifted.with_jet_mode(jet_mode)
        U = _fd_grid(chart)
        jet = chart.jet(U, invariants.jet_order(True))
        return invariants._series_invariants(chart, U, jet, DEFAULT, True)[1:]

    def test_riemann_symmetries_and_first_bianchi(self, graph_lifted, jet_mode):
        chart = graph_lifted.with_jet_mode(jet_mode)
        R = evaluate_field(chart, _fd_grid(chart), derivatives=False).riemann
        scale = float(np.max(np.abs(R)))
        assert scale > 0.1
        for name, other in (
            ("antisymmetry in the first pair", -np.einsum("nbacd->nabcd", R)),
            ("antisymmetry in the second pair", -np.einsum("nabdc->nabcd", R)),
            ("pair symmetry", np.einsum("ncdab->nabcd", R)),
            ("first Bianchi identity", -np.einsum("nbcad->nabcd", R) - np.einsum("ncabd->nabcd", R)),
        ):
            assert np.max(np.abs(R - other)) <= 1e-12 * scale, name

    def test_metric_compatibility(self, graph_lifted, jet_mode):
        _, _, _, g, Gam = self._series(graph_lifted, jet_mode)
        scale = float(np.max(np.abs(g.grad().value)))
        assert scale > 0.1
        assert np.max(np.abs(invariants._covariant(g, Gam.value))) <= 1e-12 * scale

    def test_product_rule(self, graph_lifted, jet_mode):
        # A (x) Phi has no index symmetry, so each Christoffel term must sit
        # on its own axis
        A, _, Phi, _, Gam = self._series(graph_lifted, jet_mode)
        G = Gam.value
        lhs = invariants._covariant(invariants.einsum("nab,nc->nabc", A, Phi), G)
        rhs = np.einsum("nabd,nc->nabcd", invariants._covariant(A, G), Phi.value) + np.einsum(
            "nab,ncd->nabcd", A.value, invariants._covariant(Phi, G)
        )
        scale = float(np.max(np.abs(rhs)))
        assert scale > 0.1
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


FD_CHARTS = ("sxh_chart", "hxr_lifted", "hxh_lifted", "wp_lifted", "ex33_chart", "graph_lifted")
FIELD_KEYS = ("A", "B", "Phi", "dA", "dB", "dPhi", "riemann")


def _fd_grid(chart):
    return grid_points(chart.domain, [3], margin=grid_margin(chart))


class TestPointBookkeeping:
    """Each point's invariants depend on that point's jet alone, whatever its
    place in the batch; this guards the point-axis moves of the series
    kernels.  The jets come from one batch: an FD fit rounds by the batch
    (BLAS picks its kernel and its thread split by the column count), which
    the fit's reach^-5 lifts to 2e-8 of scale."""

    @pytest.mark.parametrize(
        "name,jet_mode",
        [("sxh_chart", "analytic"), ("ex33_chart", "analytic"), ("sxh_chart", "fd"), ("hxr_lifted", "fd")],
    )
    def test_points_are_independent(self, request, name, jet_mode):
        chart = request.getfixturevalue(name).with_jet_mode(jet_mode)
        U = grid_points(chart.domain, [3], margin=max(0.06, grid_margin(chart)))
        U = U[:: len(U) // 12][:12]
        jet = chart.jet(U, invariants.jet_order(True))
        f = invariants.field_from_jet(chart, U, jet)
        back = invariants.field_from_jet(chart, U[::-1], jet[::-1])
        alone = invariants.field_from_jet(chart, U[5:6], jet[5:6])
        for key in FIELD_KEYS:
            assert np.array_equal(getattr(back, key), getattr(f, key)[::-1]), key
            ref = getattr(f, key)[5:6]
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(getattr(alone, key) - ref)) <= 1e-12 * scale, key


class TestFDErrorEstimate:
    """FD charts: the identities hold exactly on the fitted surface, so the
    FD check rests on the two-fit error estimate."""

    @pytest.mark.parametrize("name", FD_CHARTS)
    def test_estimate_bounds_the_error(self, request, name):
        chart = request.getfixturevalue(name)
        fd = chart.with_jet_mode("fd")
        U = _fd_grid(fd)
        f, exact = evaluate_field(fd, U), evaluate_field(chart, U)
        error = max(float(np.max(np.abs(getattr(f, k) - getattr(exact, k)))) for k in FIELD_KEYS)
        assert f.residuals[FD_ESTIMATE] >= 0.5 * error
        assert f.residual_fields[FD_ESTIMATE].shape == (U.shape[0],)
        assert FD_ESTIMATE not in exact.residuals

    @pytest.mark.parametrize("name", ["sxh_chart", "graph_lifted"])
    def test_gate_catches_a_roundoff_bound_fit(self, request, name):
        # at a reach of 0.01 the fit amplifies roundoff into errors of
        # 0.01-1, while every identity still holds on the fitted surface
        chart = request.getfixturevalue(name)
        fd = chart.with_jet_mode("fd", FDConfig(step=0.01))
        f = evaluate_field(fd, _fd_grid(chart.with_jet_mode("fd")))
        assert f.residuals[FD_ESTIMATE] > DEFAULT.residual_tol_fd
        for key, value in f.residuals.items():
            if key != FD_ESTIMATE:
                assert value <= 1e-8, key

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_one_pass_for_both_fits(self, graph_lifted, monkeypatch, cross_check):
        # the fit and its companion fit run through the pipeline as one
        # stacked batch, which gives what one pass per fit gives
        fd = graph_lifted.with_jet_mode("fd")
        U = _fd_grid(fd)[::2]
        K = invariants.jet_order(True)
        companion = fd.with_jet_mode("fd", FDConfig(step=invariants.COMPANION_REACH * fd.fd_margin()))
        two, shape = invariants._invariant_field(fd, U, fd.jet(U, K), DEFAULT, True, True)
        other, _ = invariants._invariant_field(fd, U, companion.jet(U, K), DEFAULT, True, True)
        invariants._attach_residuals(two)
        invariants._attach_fd_estimate(two, other)
        if cross_check:
            invariants.run_cross_check(two, shape)

        passes = []
        series = invariants._series_invariants
        monkeypatch.setattr(
            invariants, "_series_invariants", lambda *args: passes.append(args[1].shape[0]) or series(*args)
        )
        f = evaluate_field(fd, U, cross_check=cross_check)
        assert passes == [2 * U.shape[0]]
        for key in FIELD_KEYS + ("rho", "H", "x", "normal", "metric0", "metric", "frame", "ricci", "kappa"):
            ref = getattr(two, key)
            assert getattr(f, key).shape == ref.shape, key
            assert np.max(np.abs(getattr(f, key) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), key
        assert f.residual_fields.keys() == two.residual_fields.keys()
        estimate = two.residual_fields[FD_ESTIMATE]
        assert np.all(np.abs(f.residual_fields[FD_ESTIMATE] - estimate) <= 1e-12 * estimate)
        assert f.residuals.keys() == two.residuals.keys()
        assert ("cross_phi" in f.residuals) == cross_check
        for key, value in two.residuals.items():
            assert abs(f.residuals[key] - value) <= 1e-12 * max(1.0, abs(value)), key

    def test_warm_fd_field_compiles_nothing(self, graph_lifted, monkeypatch):
        # the companion fit is a copy of the sympy-built graph chart with
        # another reach; it keeps the chart's compiled formula
        import sympy

        fd = graph_lifted.with_jet_mode("fd")
        U = _fd_grid(fd)
        evaluate_field(fd, U)
        calls = []
        lambdify = sympy.lambdify
        monkeypatch.setattr(sympy, "lambdify", lambda *a, **k: calls.append(a) or lambdify(*a, **k))
        evaluate_field(fd, U)
        assert calls == []

    def test_off_catalog_chart_meets_the_fd_tier(self, graph_lifted):
        fd = graph_lifted.with_jet_mode("fd")
        U = _fd_grid(fd)
        f = evaluate_field(fd, U, cross_check=True)
        cfg = DEFAULT
        for key, value in f.residuals.items():
            if key in ("trace_b", "norm_b"):
                tol = cfg.fd_tol
            elif key == "trace_a_scalar":
                tol = max(cfg.trace_a_tol, cfg.fd_tol)
            elif key.startswith("cross_"):
                tol = cfg.crosscheck_factor * cfg.fd_tol
            else:
                tol = cfg.residual_tol_fd
            assert value <= tol, key
        # |grad A| reaches 136 here; measured FD - series error 1.3e-7
        exact = evaluate_field(graph_lifted, U)
        assert np.max(np.abs(exact.dA)) > 100.0
        assert np.max(np.abs(f.dA - exact.dA)) <= 1e-6


def _rotation(d: int, i: int, j: int, angle: float) -> np.ndarray:
    T = np.eye(d)
    T[[i, j], [i, j]] = math.cos(angle)
    T[i, j], T[j, i] = -math.sin(angle), math.sin(angle)
    return T


def _boost(d: int, i: int, j: int, rapidity: float) -> np.ndarray:
    T = np.eye(d)
    T[[i, j], [i, j]] = math.cosh(rapidity)
    T[i, j] = T[j, i] = math.sinh(rapidity)
    return T


def _conformal_move(d, turn, rapidities, slots, spin) -> np.ndarray:
    """An element of O(m+1, 2), time slots first: a rotation of the two time
    slots, a boost of each time slot with a space slot and a rotation of two
    space slots."""
    space = [2 + k % (d - 2) for k in slots]
    T = _rotation(d, 0, 1, turn) @ _boost(d, 0, space[0], rapidities[0])
    T = T @ _boost(d, 1, space[1], rapidities[1])
    return T @ _rotation(d, space[2], 2 + (space[2] - 1) % (d - 2), spin)


class TestConformalInvariance:
    """The conformal group O(m+1, 2) acts linearly on the light-cone lift:
    the chart x -> psi1(T P sigma(x)) is conformally equivalent to
    psi1(P sigma(x)), so g, A, grad A and, up to the orientation of the
    normal, B and Phi agree in frame components."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        turn=st.floats(-0.2, 0.2),
        rapidities=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
        slots=st.tuples(*[st.integers(0, 4)] * 3),
        spin=st.floats(-math.pi, math.pi),
        where=arrays(float, (2, 4), elements=st.floats(0.05, 0.95)),
    )
    def test_invariants_unchanged(self, sxh_chart, ex33_chart, graph_chart, turn, rapidities, slots, spin, where):
        for chart in (sxh_chart, ex33_chart, graph_chart):
            d = chart.m + 3
            T = _conformal_move(d, turn, rapidities, slots, spin)
            signs = np.diag(Signature(2, d).signs)
            assert np.allclose(T.T @ signs @ T, signs, rtol=0, atol=1e-14)
            ref = lift_chart(chart, "psi1")
            moved = LiftedChart(chart, T @ ref.M, 1)
            lo, hi = chart.domain.arrays()
            U = lo + (hi - lo) * where[:, : chart.m]
            f0 = evaluate_field(ref, U, derivatives=True, curvature=False)
            f1 = evaluate_field(moved, U, derivatives=True, curvature=False)
            orientation = np.sign(np.einsum("nij,nij->n", f0.B, f1.B))
            pairs = {
                "g": (f0.metric, f1.metric),
                "A": (f0.A, f1.A),
                "grad A": (f0.dA, f1.dA),
                "B": (f0.B, orientation[:, None, None] * f1.B),
                "Phi": (f0.Phi, orientation[:, None] * f1.Phi),
            }
            for key, (a, b) in pairs.items():
                assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(a))), (chart.name, key)


class TestReports:
    def test_json_schema(self, sxh_field):
        rep = field_report(sxh_field)
        assert rep["chart"].startswith("sxh")
        point = rep["points"][0]
        assert set(point) == {"u", "rho", "H", "A_eigs", "B_eigs", "Phi_norm", "residuals"}
        assert set(rep["maxima"]) == set(point["residuals"])

    def test_csv_schema(self, sxh_field):
        text = field_report_csv(sxh_field)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + sxh_field.U.shape[0]
        header = lines[0].split(",")
        assert header[:3] == ["u_0", "u_1", "u_2"]
        assert "Phi_norm" in header
