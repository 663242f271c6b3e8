"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Grids: 5^m points with analytic jets for the trace and residual criteria
(m = 3 product instances, m = 4 for the warped product and the assembled
example), smaller grids for the FD tier and the refinement-stability
checks.  Two sub-criteria are strict expected failures with documented
mathematical obstructions (see the infeasible-construction messages and
the README): the de Sitter-core assembly admits no explicit core, and the
anti-de Sitter-core assembly built from the only closed-form core family
has a parallel second fundamental form.
"""

import math

import numpy as np
import pytest
import sympy as sp

from confgeo.catalog import build_instance, sphere_components
from confgeo.chart import (
    AmbientForm,
    Box,
    ImmersionChart,
    grid_points,
    validate_regularity,
)
from confgeo.classifier import classify
from confgeo.config import DEFAULT
from confgeo.conformal_atlas import (
    MAP_TAGS,
    compose_maps,
    conformality_witness,
    embed,
    lift_chart,
    psi,
    sigma_rep_batch,
)
from confgeo.errors import ChartDomainError
from confgeo.invariants import (
    FD_ESTIMATE,
    _gauss_rhs,
    evaluate_field,
    required_margin,
    run_cross_check,
)
from confgeo.pseudo_linalg import cluster_eigenvalues, form_signs

CATALOG = ("hxr", "sxh", "hxh", "wp", "ex33")
GRID_FOR_M = {3: 5, 4: 5}  # 5^m points per chart


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _lifted(chart):
    return chart if chart.ambient.kind == "de_sitter" else lift_chart(chart, "psi1")


def _field(chart, counts, **kw):
    work = _lifted(chart)
    margin = max(required_margin(work), 0.02)
    U = grid_points(work.domain, [counts], margin=margin)
    return evaluate_field(work, U, **kw)


@pytest.fixture(scope="module")
def fields5():
    out = {}
    for name in CATALOG:
        chart = build_instance(name)
        out[name] = _field(chart, GRID_FOR_M[chart.m], derivatives=True, curvature=True)
    return out


@pytest.fixture(scope="module")
def fd_fields():
    out = {}
    for name in CATALOG:
        chart = build_instance(name).with_jet_mode("fd")
        out[name] = _field(chart, 3, derivatives=True, curvature=True)
    return out


def test_criterion_1_trace_identities(fields5):
    worst = {"trace_b": 0.0, "norm_b": 0.0, "trace_a_scalar": 0.0}
    for name, f in fields5.items():
        assert f.U.shape[0] >= 5**f.m
        for key in worst:
            worst[key] = max(worst[key], f.residuals[key])
    ok = worst["trace_b"] <= 1e-8 and worst["norm_b"] <= 1e-8 and worst["trace_a_scalar"] <= 1e-6
    _emit("1 trace identities", ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert worst["trace_b"] <= 1e-8
    assert worst["norm_b"] <= 1e-8
    assert worst["trace_a_scalar"] <= 1e-6


RESIDUAL_KEYS = (
    "phi_codazzi_commutator",
    "blaschke_codazzi",
    "b_codazzi",
    "gauss_conformal",
)


def test_criterion_2_integrability_residuals_analytic(fields5):
    worst = 0.0
    for name, f in fields5.items():
        for key in RESIDUAL_KEYS:
            worst = max(worst, f.residuals[key])
    _emit("2 integrability residuals (analytic jets)", worst <= 1e-5, f"worst={worst:.2e}")
    assert worst <= 1e-5


def test_criterion_2_integrability_residuals_fd(fd_fields):
    # the identities hold exactly on the fitted surface: the FD error
    # estimate is what measures the fit
    worst = 0.0
    for name, f in fd_fields.items():
        for key in RESIDUAL_KEYS + (FD_ESTIMATE,):
            worst = max(worst, f.residuals[key])
    _emit("2 integrability residuals (FD jets)", worst <= 1e-3, f"worst={worst:.2e}")
    assert worst <= 1e-3


def test_criterion_3_blaschke_eigenvalues_ads_core(fields5):
    f = fields5["ex33"]
    r2 = build_instance("ex33").params["r"] ** 2
    lam = 1.0 / (2.0 * r2)
    expected = np.array([-lam, -lam, lam, lam])
    dev = float(np.max(np.abs(f.A_eigs() - expected))) / lam
    # the negative eigenvalue sits on the core block (the one carrying B)
    from confgeo.classifier import eigen_structure

    es, _ = eigen_structure(f, DEFAULT.classify_tol)
    nonzero = 1 - es.zero_block
    arrangement_ok = es.eigenvalues[nonzero] == pytest.approx(-lam, rel=1e-5)
    ok = dev <= 1e-5 and arrangement_ok
    _emit(
        "3 Blaschke spectrum (anti-de Sitter core)",
        ok,
        f"relative deviation={dev:.2e}, negative eigenvalue on the core block={arrangement_ok}",
    )
    assert dev <= 1e-5
    assert arrangement_ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "no chart exists: a maximal space-like hypersurface of a de Sitter "
        "quadric with the required squared norm of the second fundamental "
        "form does not exist in any closed-form family (the product cores "
        "have same-sign curvature groups, and for a 2-dimensional core the "
        "trace-free Codazzi equations force a flat metric while the Gauss "
        "equation demands curvature 1/r^2 + c^2 > 0); recorded in the "
        "construction error and the README"
    ),
)
def test_criterion_3_blaschke_eigenvalues_ds_core():
    chart = build_instance("ex32")  # raises ConstructionError
    f = _field(chart, 3)
    _emit("3 Blaschke spectrum (de Sitter core)", False, "unreachable")


def test_criterion_4_warped_product_parallel_tensors(fields5):
    f = fields5["wp"]
    clusters_ok = all(
        len(cluster_eigenvalues(row, 1e-6)) == 3 for row in f.B_eigs()
    )
    max_db = float(np.abs(f.dB).max())
    max_da = float(np.abs(f.dA).max())
    ok = clusters_ok and max_db <= 1e-5 and max_da <= 1e-5
    _emit(
        "4 warped product",
        ok,
        f"3 clusters everywhere={clusters_ok}, max|B_ijk|={max_db:.2e}, max|A_ijk|={max_da:.2e}",
    )
    assert clusters_ok
    assert max_db <= 1e-5
    assert max_da <= 1e-5


def test_criterion_5_classification_table_products():
    expected = {"hxr": "ParallelB", "sxh": "ParallelB", "hxh": "ParallelB", "wp": "ParallelB"}
    results = {}
    stable = True
    for name, branch in expected.items():
        chart = build_instance(name)
        coarse = classify(chart, counts=3)
        fine = classify(chart, counts=6)
        results[name] = coarse.branch
        stable = stable and coarse.branch == fine.branch
        assert coarse.branch == branch, f"{name}: {coarse.branch} != {branch}"
        assert fine.branch == branch
    _emit("5 classification table (product rows)", stable, f"{results}, refinement stable={stable}")
    assert stable


@pytest.mark.xfail(
    strict=True,
    reason="the de Sitter-core assembly admits no explicit chart (see the criterion-3 obstruction)",
)
def test_criterion_5_classification_table_ds_core_row():
    chart = build_instance("ex32")
    rep = classify(chart, counts=3)
    assert rep.branch == "ParallelA-NonParallelB-Positive"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "every constructible core of the anti-de Sitter assembly is an "
        "isoparametric cylinder, whose assembled second fundamental form is "
        "parallel; the classifier therefore (correctly) reports ParallelB "
        "instead of the two-block branch; a genuinely non-parallel example "
        "would need a non-isoparametric maximal core, for which no closed "
        "form is known"
    ),
)
def test_criterion_5_classification_table_ads_core_row():
    rep = classify(build_instance("ex33"), counts=3)
    ok = rep.branch == "ParallelA-NonParallelB-Negative"
    _emit("5 classification table (anti-de Sitter core row)", ok, f"branch={rep.branch}")
    assert ok


def test_criterion_5_refinement_stability_assembled():
    chart = build_instance("ex33")
    coarse = classify(chart, counts=3)
    fine = classify(chart, counts=6)
    ok = coarse.branch == fine.branch
    _emit("5 refinement stability (assembled chart)", ok, f"{coarse.branch} == {fine.branch}")
    assert ok


def test_criterion_6_atlas_identities(rng):
    m = 3
    # left inverse at 100 random de Sitter points
    worst_id = 0.0
    for _ in range(100):
        a = rng.uniform(-1.2, 1.2)
        w = rng.normal(size=m + 1)
        w /= np.linalg.norm(w)
        u = np.concatenate([[math.sinh(a)], math.cosh(a) * w])
        out = psi(1, embed(u, "sigma1"))
        worst_id = max(worst_id, float(np.max(np.abs(out - u))))
    # null images of every embedding
    sig2 = form_signs(2, m + 3)
    worst_null = 0.0
    for _ in range(40):
        a = rng.uniform(-1.2, 1.2)
        b = rng.uniform(0, 2 * math.pi)
        w = rng.normal(size=m + 1)
        w /= np.linalg.norm(w)
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        pts = {
            "sigma1": np.concatenate([[math.sinh(a)], math.cosh(a) * w]),
            "sigma-1": np.concatenate(
                [[math.cosh(a) * math.cos(b)], [math.cosh(a) * math.sin(b)], math.sinh(a) * v]
            ),
            "sigma0": rng.normal(size=m + 1),
        }
        for which, u in pts.items():
            c = embed(u, which)
            val = abs(float(np.sum(c * c * sig2))) / float(np.sum(c * c))
            worst_null = max(worst_null, val)
    # conformality witness per map at 20 random points
    worst_conf = 0.0
    tgt = form_signs(1, m + 2)
    for which in ("sigma^1", "sigma^2", "tau^1", "tau^2"):
        tag = MAP_TAGS[which]
        count = 0
        while count < 20:
            if tag.source_kind == "lorentz_flat":
                u = rng.normal(size=m + 1)
            else:
                a, b = rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi)
                w = rng.normal(size=m)
                w /= np.linalg.norm(w)
                u = np.concatenate(
                    [[math.cosh(a) * math.cos(b)], [math.cosh(a) * math.sin(b)], math.sinh(a) * w]
                )
            try:
                _, resid = conformality_witness(
                    lambda x: compose_maps(which, x), tag.source_kind, u, tgt
                )
            except ChartDomainError:
                continue
            worst_conf = max(worst_conf, resid)
            count += 1
    for which, kind in (("sigma1", "de_sitter"), ("sigma-1", "anti_de_sitter"), ("sigma0", "lorentz_flat")):
        count = 0
        while count < 20:
            if kind == "lorentz_flat":
                u = rng.normal(size=m + 1)
            elif kind == "de_sitter":
                a = rng.uniform(-1, 1)
                w = rng.normal(size=m + 1)
                w /= np.linalg.norm(w)
                u = np.concatenate([[math.sinh(a)], math.cosh(a) * w])
            else:
                a, b = rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi)
                w = rng.normal(size=m)
                w /= np.linalg.norm(w)
                u = np.concatenate(
                    [[math.cosh(a) * math.cos(b)], [math.cosh(a) * math.sin(b)], math.sinh(a) * w]
                )
            _, resid = conformality_witness(
                lambda x, kk=kind: sigma_rep_batch(kk, x[None, :])[0], kind, u, sig2
            )
            worst_conf = max(worst_conf, resid)
            count += 1
    ok = worst_id <= 1e-12 and worst_null <= 1e-12 and worst_conf <= 1e-8
    _emit(
        "6 atlas identities",
        ok,
        f"left inverse={worst_id:.2e}, null={worst_null:.2e}, conformality={worst_conf:.2e}",
    )
    assert worst_id <= 1e-12
    assert worst_null <= 1e-12
    assert worst_conf <= 1e-8


def test_criterion_7_invariant_transfer_between_lifts():
    worst = 0.0
    for name in ("hxh", "hxr"):
        chart = build_instance(name)
        l1 = lift_chart(chart, "psi1")
        l2 = lift_chart(chart, "psi2")
        margin = max(required_margin(l1), required_margin(l2), 0.02)
        U = grid_points(chart.domain, [3], margin=margin)
        f1 = evaluate_field(l1, U, derivatives=False, curvature=False)
        f2 = evaluate_field(l2, U, derivatives=False, curvature=False)
        worst = max(worst, float(np.max(np.abs(f1.A_eigs() - f2.A_eigs()))))
        b1 = np.sort(np.abs(f1.B_eigs()), axis=1)
        b2 = np.sort(np.abs(f2.B_eigs()), axis=1)
        worst = max(worst, float(np.max(np.abs(b1 - b2))))
    _emit("7 invariant transfer between coordinate maps", worst <= 1e-6, f"worst={worst:.2e}")
    assert worst <= 1e-6


def test_criterion_8_route_cross_checks(fields5, rng):
    worst = 0.0
    for name, f in fields5.items():
        diff = run_cross_check(f)
        worst = max(worst, diff["cross_a"], diff["cross_b"])
    # FD jets against analytic jets on the warped-product chart
    wp = build_instance("wp")
    fd_version = wp.with_jet_mode("fd")
    lo, hi = wp.domain.arrays()
    margin = fd_version.fd_margin() + 0.01
    U = rng.uniform(lo + margin, hi - margin, size=(10, wp.m))
    an = wp.jet(U, 4)
    fd = fd_version.jet(U, 4)
    worst_jet = 0.0
    for r in range(1, 5):
        an, fd = an.grad(), fd.grad()
        an_r, fd_r = an.value, fd.value
        scale = 1.0 + float(np.max(np.abs(an_r)))
        worst_jet = max(worst_jet, float(np.max(np.abs(an_r - fd_r))) / scale)
    ok = worst <= 1e-6 and worst_jet <= 1e-7
    _emit("8 oracle cross-checks", ok, f"route mismatch={worst:.2e}, jet mismatch={worst_jet:.2e}")
    assert worst <= 1e-6
    assert worst_jet <= 1e-7


def test_criterion_9_negative_controls(fields5, rng):
    # totally umbilic chart rejected by the regularity validator
    th = sp.symbols("th0:3")
    comps = [sp.sinh(1)] + sphere_components(sp.cosh(1), list(th))
    umbilic = ImmersionChart(
        "umbilic-slice",
        3,
        AmbientForm("de_sitter", 4, 1.0),
        Box((0.9, 0.3, 0.3), (1.7, 1.1, 1.1)),
        exprs=sp.Matrix(comps),
        syms=tuple(th),
    )
    rep = validate_regularity(umbilic, grid_points(umbilic.domain, [3]))
    rejected = not rep.regular and rep.min_rho2 <= 1e-10

    # perturbing B breaks the curvature identity proportionally
    f = fields5["sxh"]
    S = rng.normal(size=(3, 3))
    S = 0.5 * (S + S.T)
    S -= np.trace(S) / 3.0 * np.eye(3)
    S /= np.linalg.norm(S)
    deltas = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
    resid = np.array(
        [np.max(np.abs(f.riemann - _gauss_rhs(f.A, f.B + d * S[None, :, :], f.m))) for d in deltas]
    )
    slope = np.polyfit(np.log(deltas), np.log(resid), 1)[0]
    slope_ok = abs(slope - 1.0) <= 0.2
    ok = rejected and slope_ok
    _emit(
        "9 negative controls",
        ok,
        f"umbilic rejected={rejected}, perturbation slope={slope:.3f}",
    )
    assert rejected
    assert slope_ok
