import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from confgeo.catalog import build_instance, sphere_components
from confgeo.chart import AmbientForm, Box, ImmersionChart
from confgeo.classifier import (
    BRANCH_INCONCLUSIVE,
    BRANCH_ISOTROPIC,
    BRANCH_NEGATIVE,
    BRANCH_NOT_PARALLEL_A,
    BRANCH_PARALLEL_B,
    BRANCH_POSITIVE,
    check_bibj,
    classify,
    classify_field,
    eigen_structure,
    gate_parallel,
    gate_phi,
    zero_block_sectional_curvature,
)
from confgeo.config import DEFAULT
from confgeo.invariants import InvariantField


def synthetic_field(A_diag, B_diag, m=4, N=6, dA=0.0, dB=0.0, phi=0.0, riemann=None):
    """Constant diagonal invariant data on a fake grid."""
    A = np.tile(np.diag(A_diag), (N, 1, 1))
    B = np.tile(np.diag(B_diag), (N, 1, 1))
    chart = SimpleNamespace(name="synthetic", jet_mode="analytic", m=m)
    f = InvariantField(
        chart=chart,
        U=np.linspace(0, 1, N * m).reshape(N, m),
        cfg=DEFAULT,
        rho=np.ones(N),
        H=np.zeros(N),
        x=np.zeros((N, m + 2)),
        normal=np.zeros((N, m + 2)),
        metric0=np.tile(np.eye(m), (N, 1, 1)),
        metric=np.tile(np.eye(m), (N, 1, 1)),
        frame=np.tile(np.eye(m), (N, 1, 1)),
        A=A,
        B=B,
        Phi=np.full((N, m), phi),
        riemann=riemann,
    )
    f.dA = np.full((N, m, m, m), dA)
    f.dB = np.full((N, m, m, m), dB)
    f.dPhi = np.zeros((N, m, m))
    return f


C = math.sqrt(3.0 / 8.0)  # traceless 2-block value with |B|^2 = 3/4


class TestGates:
    def test_gate_phi_passes_on_assembled_chart(self, ex33_field):
        ok, norm = gate_phi(ex33_field, DEFAULT.classify_tol)
        assert ok and norm <= 1e-6

    def test_gate_phi_fails_on_perturbed_form(self, ex33_field):
        f = synthetic_field([0.1] * 4, [C, -C, 0, 0], phi=1e-2)
        ok, norm = gate_phi(f, DEFAULT.classify_tol)
        assert not ok
        assert norm == pytest.approx(2e-2, rel=0.01)

    def test_gate_phi_passes_on_product(self, sxh_field):
        ok, _ = gate_phi(sxh_field, DEFAULT.classify_tol)
        assert ok

    def test_gate_parallel_on_catalog(self, ex33_field, wp_field):
        assert gate_parallel(ex33_field.dA, ex33_field.A, DEFAULT.classify_tol)[0]
        assert gate_parallel(ex33_field.dB, ex33_field.B, DEFAULT.classify_tol)[0]
        assert gate_parallel(wp_field.dB, wp_field.B, DEFAULT.classify_tol)[0]

    def test_gate_parallel_fails_on_gradient(self):
        f = synthetic_field([0.1] * 4, [C, -C, 0, 0], dB=0.05)
        ok, grad = gate_parallel(f.dB, f.B, DEFAULT.classify_tol)
        assert not ok and grad > 0.01


class TestEigenStructure:
    def test_assembled_chart_structure(self, ex33_field):
        es = eigen_structure(ex33_field, DEFAULT.classify_tol)
        assert es.t == 2
        assert es.multiplicities == [2, 2]
        assert es.eigenvalues[0] == pytest.approx(-3 / 16, abs=1e-8)
        assert es.eigenvalues[1] == pytest.approx(3 / 16, abs=1e-8)
        assert es.zero_block == 1
        assert es.commutator_norm <= 1e-8

    def test_warped_product_structure(self, wp_field):
        es = eigen_structure(wp_field, DEFAULT.classify_tol)
        assert es.t == 3
        assert sorted(es.multiplicities) == [1, 1, 2]
        # within-block B values are equal (here blocks of size two carry a
        # double eigenvalue), so the block spread stays at tolerance level
        assert es.block_b_spread <= 1e-6
        flat_b = sorted(abs(v) for vals in es.b_values for v in vals)
        s17 = 4 * math.sqrt(17)
        assert np.allclose(flat_b, sorted([5 / s17, 9 / s17, 7 / s17, 7 / s17]), atol=1e-8)

    def test_isotropic_single_cluster(self):
        f = synthetic_field([0.25] * 4, [C, -C, 0, 0])
        es = eigen_structure(f, DEFAULT.classify_tol)
        assert es.t == 1
        assert es.multiplicities == [4]

    def test_nonconstant_spectrum_rejected(self, ex33_field):
        from confgeo.errors import ConsistencyError

        f = synthetic_field([0.1, 0.1, -0.1, -0.1], [C, -C, 0, 0])
        f.A[0, 0, 0] = 0.2  # one point deviates
        with pytest.raises(ConsistencyError):
            eigen_structure(f, DEFAULT.classify_tol)


class TestBiBj:
    def test_assembled_chart_relation(self, ex33_field):
        es = eigen_structure(ex33_field, DEFAULT.classify_tol)
        assert check_bibj(es) <= 1e-8

    def test_warped_product_relation(self, wp_field):
        es = eigen_structure(wp_field, DEFAULT.classify_tol)
        assert check_bibj(es) <= 1e-5

    def test_violating_spectrum_reports_residual(self):
        f = synthetic_field([0.3, 0.3, -0.1, -0.1], [C, -C, 0, 0])
        es = eigen_structure(f, DEFAULT.classify_tol)
        assert check_bibj(es) > 0.1


class TestZeroBlockCurvature:
    def test_assembled_chart_block_curvature(self, ex33_field):
        es = eigen_structure(ex33_field, DEFAULT.classify_tol)
        out = zero_block_sectional_curvature(ex33_field, es, DEFAULT.classify_tol)
        assert out is not None
        mean, dev = out
        lam_nonzero = es.eigenvalues[1 - es.zero_block]
        assert mean == pytest.approx(-2 * lam_nonzero, abs=1e-4)
        assert dev <= 1e-6


class TestSyntheticBranches:
    def test_isotropic(self):
        f = synthetic_field([0.25] * 4, [C, -C, 0, 0], dB=0.02)
        rep = classify_field(f)
        assert rep.branch == BRANCH_ISOTROPIC

    def test_positive(self):
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, 0, 0], dB=0.02)
        rep = classify_field(f)
        assert rep.branch == BRANCH_POSITIVE
        assert "zero B-block is cluster" in " ".join(rep.notes)

    def test_negative(self):
        f = synthetic_field([-0.2, -0.2, 0.2, 0.2], [C, -C, 0, 0], dB=0.02)
        rep = classify_field(f)
        assert rep.branch == BRANCH_NEGATIVE

    def test_not_parallel_a(self):
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, 0, 0], dA=0.05)
        rep = classify_field(f)
        assert rep.branch == BRANCH_NOT_PARALLEL_A

    def test_phi_contradiction_is_inconclusive(self):
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, 0, 0], phi=0.05)
        rep = classify_field(f)
        assert rep.branch == BRANCH_INCONCLUSIVE
        assert rep.failing_gate == "conformal_form"

    def test_missing_zero_block_is_inconclusive(self):
        d = 0.05
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, d, -d], dB=0.02)
        rep = classify_field(f)
        assert rep.branch == BRANCH_INCONCLUSIVE
        assert rep.failing_gate == "zero_block"

    def test_unbalanced_eigenvalues_inconclusive(self):
        f = synthetic_field([0.3, 0.3, -0.1, -0.1], [C, -C, 0, 0], dB=0.02)
        rep = classify_field(f)
        assert rep.branch == BRANCH_INCONCLUSIVE


class TestClassifyPipeline:
    @pytest.mark.parametrize("name", ["hxr", "sxh", "hxh", "wp", "ex33"])
    def test_catalog_branches(self, name):
        rep = classify(build_instance(name))
        assert rep.branch == BRANCH_PARALLEL_B

    def test_t3_implies_parallel_b(self, wp_field):
        # with three or more clusters and a parallel Blaschke tensor, B must
        # come out parallel as well
        es = eigen_structure(wp_field, DEFAULT.classify_tol)
        assert es.t == 3
        assert gate_parallel(wp_field.dB, wp_field.B, DEFAULT.classify_tol)[0]

    def test_umbilic_chart_inconclusive_regularity(self):
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
        rep = classify(chart)
        assert rep.branch == BRANCH_INCONCLUSIVE
        assert rep.failing_gate == "regularity"

    @pytest.mark.parametrize("name", ["sxh", "hxr"])
    def test_one_jet_per_point(self, monkeypatch, name):
        # regularity and the invariants share one jet; lifted charts take
        # theirs through the base chart
        calls = []
        jet = ImmersionChart.jet

        def counted(self, U, order):
            calls.append((U.shape[0], order))
            return jet(self, U, order)

        monkeypatch.setattr(ImmersionChart, "jet", counted)
        rep = classify(build_instance(name))
        assert rep.branch == BRANCH_PARALLEL_B
        assert calls == [(27, 5)]

    def test_grid_refinement_stability(self, sxh_chart):
        a = classify(sxh_chart, counts=3)
        b = classify(sxh_chart, counts=6)
        assert a.branch == b.branch == BRANCH_PARALLEL_B

    def test_lift_switch_stability(self, hxh_chart):
        a = classify(hxh_chart, lift="psi1")
        b = classify(hxh_chart, lift="psi2")
        assert a.branch == b.branch
        ea = sorted(a.eigen.eigenvalues)
        eb = sorted(b.eigen.eigenvalues)
        assert np.allclose(ea, eb, atol=1e-6)

    def test_parameter_rotation_stability(self, sxh_chart, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = sxh_chart.reparametrized(0.5 * Q, np.array([0.6, 1.2, 0.7]))
        a = classify(sxh_chart)
        b = classify(rotated)
        assert a.branch == b.branch
        assert np.allclose(sorted(a.eigen.eigenvalues), sorted(b.eigen.eigenvalues), atol=1e-6)

    def test_report_schema(self, sxh_chart):
        rep = classify(sxh_chart)
        d = rep.to_dict()
        assert set(d) == {
            "chart",
            "branch",
            "anchor",
            "residuals",
            "eigenstructure",
            "tolerances",
            "grid",
            "failing_gate",
            "notes",
        }


# Fields that fail their own accuracy gates, yet classify as NotParallelA;
# the paper's product and warped-product families have parallel A for every
# parameter.  The comments give grad_a_norm at grid 3 and the failed check;
# grad_a_norm is mostly roundoff here: it moves with summation order and
# with the BLAS thread count.
UNRESOLVED_FIELDS = [
    pytest.param("sxh", 50.0, "analytic", id="sxh-a50-analytic"),  # 8-9; blaschke_codazzi above the analytic tier
    pytest.param("sxh", 50.0, "fd", id="sxh-a50-fd"),  # 2e2; fd_error_estimate above the FD tier
    pytest.param("hxh", 0.001, "fd", id="hxh-a0.001-fd"),  # 1-3e-2; fd_error_estimate above the FD tier
    pytest.param("wp", 100.0, "fd", id="wp-a100-fd"),  # 5-7e-4; fd_error_estimate above the FD tier
]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: classify does not yet gate a field on its own accuracy checks "
    "before it picks a branch, so it returns NotParallelA here",
)
@pytest.mark.parametrize("name,a,jet_mode", UNRESOLVED_FIELDS)
def test_unresolved_field_is_not_not_parallel_a(name, a, jet_mode):
    rep = classify(build_instance(name, a=a).with_jet_mode(jet_mode))
    assert rep.branch != BRANCH_NOT_PARALLEL_A
