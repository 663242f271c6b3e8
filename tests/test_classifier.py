import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from confgeo.catalog import build_instance, sphere_components
from confgeo.chart import AmbientForm, Box, ImmersionChart
from confgeo.classifier import (
    ANCHORS,
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
from confgeo.errors import ComputationError, ValidationError
from confgeo.invariants import InvariantField


def synthetic_field(A_diag, B_diag, m=4, N=6, dA=0.0, dB=0.0, phi=0.0, riemann=None):
    """Constant diagonal invariant data on a fake grid."""
    A = np.tile(np.diag(A_diag), (N, 1, 1))
    B = np.tile(np.diag(B_diag), (N, 1, 1))
    chart = SimpleNamespace(name="synthetic", jet_mode="analytic", m=m)
    f = InvariantField(
        chart=chart,
        U=np.linspace(0, 1, N * m).reshape(N, m),
        rho=np.ones(N),
        H=np.zeros(N),
        metric=np.tile(np.eye(m), (N, 1, 1)),
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


def rotated_field(A_diag, B_diag, S_diag, rng, N=6):
    """synthetic_field turned by a random orthogonal Q per point.  The
    curvature R_abcd = S_ad S_bc - S_ac S_bd of S = Q diag(S_diag) Q^T has
    sectional curvature s_i s_j on the plane of the turned axes i, j."""
    f = synthetic_field(A_diag, B_diag, N=N)
    m = len(A_diag)
    Q = np.stack([np.linalg.qr(rng.normal(size=(m, m)))[0] for _ in range(N)])

    def turn(d):
        return np.einsum("nai,i,nbi->nab", Q, np.asarray(d, dtype=float), Q)

    f.A, f.B, S = turn(A_diag), turn(B_diag), turn(S_diag)
    f.riemann = np.einsum("nad,nbc->nabcd", S, S) - np.einsum("nac,nbd->nabcd", S, S)
    return f


def sym_eigen(M):
    """Eigenvalues (ascending) and orthonormal eigenbasis of a symmetric
    matrix, one point at a time.

    Deterministic: each eigenvector's entry of largest magnitude (first such
    index on ties) is made positive.
    """
    A = np.asarray(M, dtype=float)
    A = 0.5 * (A + A.T)
    w, Q = np.linalg.eigh(A)
    for k in range(Q.shape[1]):
        col = Q[:, k]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            Q[:, k] = -col
    return w, Q


class TestSymEigen:
    def test_diagonal(self):
        w, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])

    def test_offdiagonal(self):
        w, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1, 1])

    def test_reconstruction(self, rng):
        M = rng.normal(size=(5, 5))
        M = M + M.T
        w, Q = sym_eigen(M)
        assert np.max(np.abs(Q @ np.diag(w) @ Q.T - M)) <= 1e-12 * max(1, np.max(np.abs(M)))
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) <= 1e-12

    def test_conjugation_invariance(self, rng):
        M = rng.normal(size=(4, 4))
        M = M + M.T
        R, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w1, _ = sym_eigen(M)
        w2, _ = sym_eigen(R @ M @ R.T)
        assert np.allclose(w1, w2, atol=1e-12 * max(1, np.max(np.abs(w1))))


def per_point_blocks(f, es, tol):
    """Per-point reference for the batched eigendecomposition: at each point
    and for each cluster, the eigenvectors of sym_eigen whose eigenvalues
    lie within tol of the cluster's."""
    A = 0.5 * (f.A + np.swapaxes(f.A, 1, 2))
    B = 0.5 * (f.B + np.swapaxes(f.B, 1, 2))
    b_values, curvatures = [], []
    for lam, mult in zip(es.eigenvalues, es.multiplicities):
        block_eigs, sections = [], []
        for n in range(A.shape[0]):
            w, Q = sym_eigen(A[n])
            idx = np.where(np.abs(w - lam) <= tol)[0]
            assert idx.size == mult
            Qb = Q[:, idx]
            block_eigs.append(np.sort(np.linalg.eigvalsh(Qb.T @ B[n] @ Qb)))
            Rb = np.einsum("abcd,ai,bj,ck,dl->ijkl", f.riemann[n], Qb, Qb, Qb, Qb)
            sections += [Rb[i, j, j, i] for i in range(mult) for j in range(i + 1, mult)]
        b_values.append(np.mean(block_eigs, axis=0))
        curvatures.append(np.asarray(sections))
    return b_values, curvatures


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


class TestRotatedEigenStructure:
    # A has a double eigenvalue on each block and neither A nor B is
    # diagonal, so the B-blocks depend on which eigenvector columns belong
    # to which cluster
    @pytest.mark.parametrize("B_diag,zero_block", [([C, -C, 0, 0], 1), ([C, -C, 0.05, -0.05], None)])
    def test_blocks_match_per_point_reference(self, rng, B_diag, zero_block):
        f = rotated_field([-0.2, -0.2, 0.2, 0.2], B_diag, [0.3, 0.3, -0.7, -0.7], rng)
        es = eigen_structure(f, DEFAULT.classify_tol)
        assert es.multiplicities == [2, 2]
        assert es.zero_block == zero_block
        ref_b, ref_curv = per_point_blocks(f, es, DEFAULT.classify_tol)
        for got, want in zip(es.b_values, ref_b):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(es.b_values, [sorted(B_diag[:2]), sorted(B_diag[2:])], rtol=0, atol=1e-12)
        assert es.block_b_spread <= 1e-12
        curv = zero_block_sectional_curvature(f, es)
        if zero_block is None:
            assert curv is None
        else:
            sections = ref_curv[zero_block]
            assert curv[0] == pytest.approx(sections.mean(), rel=0, abs=1e-12)
            assert curv[1] == pytest.approx(np.max(np.abs(sections - sections.mean())), rel=0, abs=1e-12)
            # the zero block is the one of S's value -0.7
            assert curv[0] == pytest.approx(0.49, rel=0, abs=1e-12)


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
        out = zero_block_sectional_curvature(ex33_field, es)
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

    # the exits below are pinned before ROADMAP item 1 rewrites the gates

    def test_varying_spectrum_is_inconclusive(self):
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, 0, 0])
        f.A[0] += 1e-2 * np.eye(4)  # one point's spectrum shifted by 1e-2
        rep = classify_field(f)
        assert (rep.branch, rep.failing_gate) == (BRANCH_INCONCLUSIVE, "eigenvalue_constancy")
        assert rep.notes == [
            "Blaschke eigenvalues vary over the grid by 8.333e-03 (allowed 1.000e-04) "
            "although the parallel gate passed"
        ]

    def test_non_commuting_b_is_inconclusive(self):
        f = synthetic_field([-0.1, -0.1, 0.2, 0.2], [C, -C, 0, 0])
        # B turned by 0.3 rad in the plane of axes 1 and 2, one in each A-block
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.eye(4)
        R[1:3, 1:3] = [[c, -s], [s, c]]
        f.B = np.einsum("ab,nbc,dc->nad", R, f.B, R)
        rep = classify_field(f)
        assert (rep.branch, rep.failing_gate) == (BRANCH_INCONCLUSIVE, "commutator")
        assert rep.notes == [
            "[A, B] norm 5.187e-02 exceeds tolerance although the conformal form vanishes"
        ]

    def test_non_parallel_b_with_three_clusters_is_inconclusive(self):
        f = synthetic_field([-0.2, 0.1, 0.3, 0.3], [C, -C, 0, 0], dB=0.1)
        rep = classify_field(f)
        assert (rep.branch, rep.failing_gate) == (BRANCH_INCONCLUSIVE, "two_block_structure")
        assert rep.notes == ["non-parallel B with t=3; the classification admits only t=2 here"]

    def test_negative_checks_the_zero_block_curvature(self, rng):
        # S's value sqrt(0.4) on the zero block gives it curvature 0.4 = -2 lambda
        s = math.sqrt(0.4)
        f = rotated_field([-0.2, -0.2, 0.2, 0.2], [C, -C, 0, 0], [0.3, 0.3, s, s], rng)
        f.dB = np.full_like(f.dB, 0.1)
        rep = classify_field(f)
        assert (rep.branch, rep.failing_gate) == (BRANCH_NEGATIVE, None)
        assert rep.notes == ["zero B-block is cluster 1 (eigenvalue 0.2, multiplicity 2)"]
        assert rep.residuals["zero_block_curvature_vs_minus_2lambda"] <= 1e-14


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

    def test_every_exit_carries_the_same_tolerances_and_grid(self, sxh_chart, monkeypatch):
        th = sp.symbols("th0:3")
        umbilic = ImmersionChart(
            "umbilic-slice",
            3,
            AmbientForm("de_sitter", 4, 1.0),
            Box((0.9, 0.3, 0.3), (1.7, 1.1, 1.1)),
            exprs=sp.Matrix([sp.sinh(1)] + sphere_components(sp.cosh(1), list(th))),
            syms=tuple(th),
        )
        decided = classify(sxh_chart)
        regularity = classify(umbilic)

        def fail(*args, **kwargs):
            raise ComputationError("pipeline failure")

        monkeypatch.setattr("confgeo.classifier.field_from_jet", fail)
        computation = classify(sxh_chart)
        assert decided.branch == BRANCH_PARALLEL_B
        assert regularity.failing_gate == "regularity"
        assert computation.failing_gate == "invariant_computation"
        for rep in (decided, regularity, computation):
            assert set(rep.tolerances) == {"classify_tol", "tier_tol"}
            assert rep.grid == {"n_points": 27, "m": 3, "counts": [3]}
        assert computation.tolerances == decided.tolerances

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

    def test_anchor_follows_the_branch(self, sxh_chart):
        # no exit sets the anchor: it is read from the branch, so none can
        # leave a stale one
        rep = classify(sxh_chart)
        for branch, anchor in ANCHORS.items():
            rep.branch = branch
            assert rep.anchor == rep.to_dict()["anchor"] == anchor
        with pytest.raises(AttributeError):
            rep.anchor = ANCHORS[BRANCH_INCONCLUSIVE]


class TestTolerances:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_classify_tol_refused(self, sxh_chart, tol):
        with pytest.raises(ValidationError, match="classify_tol"):
            replace(DEFAULT, classify_tol=tol)
        with pytest.raises(ValidationError, match="classify_tol must be a finite number > 0"):
            classify(sxh_chart, classify_tol=tol)
        with pytest.raises(ValidationError, match="classify_tol must be a finite number > 0"):
            classify_field(synthetic_field([0.2] * 4, [0.0] * 4), classify_tol=tol)

    def test_classify_field_gates_at_its_config(self):
        # |grad A| = 8e-6, within 1e-4 (1 + |A|) but not within 1e-6 (1 + |A|)
        f = synthetic_field([0.2, 0.2, -0.2, -0.2], [C, -C, 0, 0], dA=1e-6)
        assert classify_field(f).branch == BRANCH_PARALLEL_B
        rep = classify_field(f, classify_tol=1e-6)
        assert rep.branch == BRANCH_NOT_PARALLEL_A
        assert rep.tolerances["classify_tol"] == 1e-6


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
