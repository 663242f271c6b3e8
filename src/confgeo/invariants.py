"""Conformal invariants of space-like hypersurfaces in the unit de Sitter form.

Two independent computation routes:

* closed formulas in terms of the shape data (the primary route):

      B = rho (h - H g0)                                   as coordinate tensors
      A = -[Hess log rho - dlogrho (x) dlogrho + H h]
          - 1/2 (|grad log rho|^2 - H^2 - 1) g0
      Phi = -rho^{-1} [ (h - H g0)(., grad log rho) + dH ]

  with the Hessian and gradient taken in the induced metric; frame
  components follow by contracting with the conformal-metric orthonormal
  frame E_i (so that B_ij = rho^{-1}(h_ij - H delta_ij) etc.).

* the moving-frame route through the light-cone lift Y = rho * Z(x):
  A_ij = -<Y_ij, N>, B_ij = -<Y_ij, xi>, which works in any of the three
  space-form pictures and doubles as the internal consistency check.

On analytic charts both routes run on truncated Taylor series (taylor.py)
of one jet per point: the shape series (x, the normal, h, H, rho^2, g0)
feed the closed formulas, which give rho, H, the conformal metric with two
derivatives and the partials of A, B and Phi at the points themselves,
and the same series give the frame route the lift Y to order 2 and g, its
frame and xi to order 1.  evaluate_field(cross_check=True) therefore makes
one order-5 jet call per batch (order 4 without covariant derivatives),
and the cross-check compares the two formula routes, exact up to roundoff.
FD charts take parameter derivatives of the derived fields from shared
central stencils: one pass per batch supplies the Hessian of log rho, the
metric jets and the Christoffel symbols (another pass the frame route's
inputs), and an outer stencil of the component fields gives the covariant
derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import taylor
from .chart import (
    DE_SITTER,
    LORENTZ_FLAT,
    ImmersionChart,
    ShapeBatch,
    ShapeData,
    shape_batch,
    shape_from_jet,
)
from .config import DEFAULT, EPS, NumericsConfig
from .conformal_atlas import sigma_rep, sigma_rep_batch
from .errors import ConsistencyError, ValidationError
from .fd import stencil
from .pseudo_linalg import (
    PseudoVector,
    Signature,
    batched_normal,
    form_signs,
    pseudo_dot,
    triangular_frame,
)
from .taylor import einsum


# ---------------------------------------------------------------------------
# shared stencil pass over derived fields
# ---------------------------------------------------------------------------

def _derived_jets(fn, U: np.ndarray, cfg: NumericsConfig, second: tuple[str, ...] = ()):
    """First parameter derivatives of a dict-valued field, and second
    derivatives of the keys in `second`.

    fn maps a batch (N, m) to {key: array(N, ...)}.  Returns (center, d1,
    d2) with the derivative axes appended last.  All fields share stencil
    evaluations: one fn call per offset covers every key, and the centre
    points come first in that call.
    """
    m = U.shape[1]
    N = U.shape[0]
    scale = max(1.0, float(np.max(np.abs(U))))
    h1 = cfg.fd.step_for(1, scale=scale)
    h2 = cfg.fd.step_for(2, scale=scale)
    offs1, w1 = stencil(1, cfg.fd.order)
    offs2, w2 = stencil(2, cfg.fd.order)

    # deduplicated offset table; every target derivative is a weighted sum
    # of field values at these offsets, evaluated in one stacked call
    offset_index: dict[tuple[float, ...], int] = {}
    offset_list: list[np.ndarray] = []

    def oid(du: tuple[float, ...]) -> int:
        idx = offset_index.get(du)
        if idx is None:
            idx = len(offset_list)
            offset_index[du] = idx
            offset_list.append(np.asarray(du))
        return idx

    center_id = oid((0.0,) * m)
    plans_d1: list[tuple[int, list[tuple[int, float]]]] = []
    for a in range(m):
        contribs = []
        for o, w in zip(offs1, w1):
            if w == 0.0:
                continue
            du = [0.0] * m
            du[a] = o * h1
            contribs.append((oid(tuple(du)), w / h1))
        plans_d1.append((a, contribs))
    plans_d2: list[tuple[tuple[int, int], list[tuple[int, float]]]] = []
    for a in range(m):
        contribs = []
        for o, w in zip(offs2, w2):
            du = [0.0] * m
            du[a] = o * h2
            contribs.append((oid(tuple(du)), w / h2**2))
        plans_d2.append(((a, a), contribs))
    for a in range(m):
        for b in range(a + 1, m):
            contribs = []
            for oa, wa in zip(offs1, w1):
                if wa == 0.0:
                    continue
                for ob, wb in zip(offs1, w1):
                    if wb == 0.0:
                        continue
                    du = [0.0] * m
                    du[a] = oa * h2
                    du[b] = ob * h2
                    contribs.append((oid(tuple(du)), wa * wb / h2**2))
            plans_d2.append(((a, b), contribs))

    V_all = np.concatenate([U + off[None, :] for off in offset_list], axis=0)
    vals_all = fn(V_all)
    stacked = {k: v.reshape((len(offset_list), N) + v.shape[1:]) for k, v in vals_all.items()}
    center = {k: v[center_id].copy() for k, v in stacked.items()}
    d1 = {k: np.zeros(center[k].shape + (m,)) for k in stacked}
    for a, contribs in plans_d1:
        for idx, w in contribs:
            for k in stacked:
                d1[k][..., a] += stacked[k][idx] * w
    d2 = {k: np.zeros(center[k].shape + (m, m)) for k in second}
    for (a, b), contribs in plans_d2:
        for idx, w in contribs:
            for k in second:
                d2[k][..., a, b] += stacked[k][idx] * w
        if b != a:
            for k in second:
                d2[k][..., b, a] = d2[k][..., a, b]
    return center, d1, d2


def christoffel(ginv, dg):
    """Christoffel symbols from metric jets (arrays or Taylor series).

    dg[n, i, j, k] = d_k g_ij; output Gam[n, g, j, k] = Gamma^g_{jk}.
    """
    t1 = dg.transpose((0, 1, 3, 2))  # d_j g_lk
    t2 = dg                          # d_k g_lj
    return 0.5 * (
        einsum("ngl,nljk->ngjk", ginv, t1 + t2) - einsum("ngl,njkl->ngjk", ginv, dg)
    )


def _outer_step(chart: ImmersionChart, cfg: NumericsConfig, scale: float) -> float:
    """Step of the covariant-derivative stencil of FD charts.

    It balances truncation against the white part of the component fields:
    roundoff amplified through the jet stencils and then through the inner
    second-derivative stencils.
    """
    h2 = cfg.fd.step_for(2, scale=scale)
    hj2 = chart.fd.step_for(2, scale=scale)
    source_white = 6.0 * EPS / hj2**2
    return (3.0 * (source_white * 6.0 / h2**2)) ** (1.0 / 3.0) * scale


def required_margin(chart: ImmersionChart, cfg: NumericsConfig = DEFAULT) -> float:
    """Distance to the domain boundary consumed by the stencils of a field
    evaluation.

    Only FD charts run stencils.  Their derived-field passes (main route and
    frame route) reach two steps of the second-derivative spacing per axis,
    the covariant-derivative pass adds its outer stencil around them, and
    the jet stencils nest inside every evaluation.  Analytic charts take
    every derivative from Taylor series at the points themselves and need
    no margin.
    """
    if chart.jet_mode == "analytic":
        return 0.0
    scale = chart.domain.scale()
    reach = 2.0 * max(cfg.fd.step_for(1, scale=scale), cfg.fd.step_for(2, scale=scale))
    reach += chart.fd_margin(2)
    reach += 2.0 * _outer_step(chart, cfg, scale)
    return 1.15 * reach


def grid_margin(chart: ImmersionChart, cfg: NumericsConfig = DEFAULT) -> float:
    """Default inset of sample grids: the stencil reach of FD charts, and
    at least 5% of the narrowest side of the domain on every chart."""
    lo, hi = chart.domain.arrays()
    return max(required_margin(chart, cfg), 0.05 * float(np.min(hi - lo)))


# ---------------------------------------------------------------------------
# coordinate-level invariants (one shared pass)
# ---------------------------------------------------------------------------

@dataclass
class _CoordData:
    sb: ShapeBatch
    A: np.ndarray        # (N, m, m) coordinate components
    B: np.ndarray
    Phi: np.ndarray      # (N, m)
    g: np.ndarray        # conformal metric, coords
    ginv: np.ndarray
    dg: np.ndarray       # (N, m, m, m), last axis derivative
    d2g: np.ndarray
    dlogrho: np.ndarray
    dH: np.ndarray
    # partials of A, B, Phi (derivative axis last) when the route supplies them
    partials: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    # the shape series of the Taylor route, which the cross-check reuses
    shape: _ShapeSeries | None = None


def _closed_formulas(h, H, g0, g0inv, rho, dlr, d2lr, dg0, dH):
    """Coordinate components of A, B and Phi from the shape data.

    Works on arrays and on Taylor series alike: d2lr are the plain second
    partials of log rho and dg0[n,i,j,k] = d_k g0_ij.
    """
    gam0 = christoffel(g0inv, dg0)
    hess = d2lr - einsum("ngab,ng->nab", gam0, dlr)
    grad2 = einsum("na,nab,nb->n", dlr, g0inv, dlr)
    A = -(hess - einsum("na,nb->nab", dlr, dlr) + H[:, None, None] * h) - 0.5 * (
        grad2 - H**2 - 1.0
    )[:, None, None] * g0
    B = rho[:, None, None] * (h - H[:, None, None] * g0)
    hmH = h - H[:, None, None] * g0
    Phi = -(1.0 / rho)[:, None] * (einsum("nab,nbc,nc->na", hmH, g0inv, dlr) + dH)
    return A, B, Phi


def _coord_invariants(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig, derivatives: bool = False
) -> _CoordData:
    if chart.ambient.kind != DE_SITTER or abs(chart.ambient.radius - 1.0) > 1e-12:
        raise ValidationError(
            "conformal invariants are computed in the unit de Sitter picture; "
            f"lift chart {chart.name!r} first (conformal_atlas.lift_chart)"
        )
    if chart.jet_mode == "analytic":
        return _series_invariants(chart, U, cfg, derivatives)
    return _stencil_invariants(chart, U, cfg)


@dataclass
class _ShapeSeries:
    """Shape data as Taylor series around the points, all of one order."""

    sb: ShapeBatch          # the checked centre values
    x: taylor.Series
    g0: taylor.Series
    n: taylor.Series
    h: taylor.Series
    g0inv: taylor.Series
    H: taylor.Series
    rho2: taylor.Series


def _shape_series(chart: ImmersionChart, U: np.ndarray, jet, cfg: NumericsConfig) -> _ShapeSeries:
    """Shape data of any ambient form from a jet of order K >= 2.

    h needs the second jet of x, so every series carries order K - 2.  The
    centre values go through shape_from_jet and keep all of its checks.
    """
    sb = shape_from_jet(chart, U, jet, cfg)
    signs = sb.signs
    m = chart.m
    k = jet.series.order - 2
    x = jet.series.truncate(k)
    dx = jet.series.grad()
    d2x = dx.grad()
    dx = dx.truncate(k)
    g0 = einsum("nci,c,ncj->nij", dx, signs, dx)
    rows = dx.transpose((0, 2, 1))
    if chart.ambient.kind != LORENTZ_FLAT:
        rows = taylor.concatenate([rows, x[:, None, :]], axis=1)
    n = taylor.normal(rows, signs, sb.normal)
    h = -einsum("nc,c,ncab->nab", n, signs, d2x)
    g0inv = taylor.inv(g0)
    H = einsum("nab,nab->n", g0inv, h) / m
    h2 = einsum("nab,nag,nbd,ngd->n", h, g0inv, g0inv, h)
    rho2 = m / (m - 1) * (h2 - m * H**2)
    return _ShapeSeries(sb, x, g0, n, h, g0inv, H, rho2)


def _series_invariants(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig, derivatives: bool
) -> _CoordData:
    """The closed formulas over Taylor series from one jet per point.

    Each derivative costs one order.  From a jet of order K the shape data
    carry order K - 2, log rho's Hessian and with it A order K - 4, and
    every series is cut to the order its result needs: K = 5 gives the
    partials of A, B, Phi and K = 4 the values.
    """
    K = 5 if derivatives else 4
    s = _shape_series(chart, U, chart.jet(U, K), cfg)
    dlr = (0.5 * taylor.log(s.rho2)).grad()
    dH = s.H.grad()
    k = K - 4  # the order of A, B and Phi
    A, B, Phi = _closed_formulas(
        s.h.truncate(k), s.H.truncate(k), s.g0.truncate(k), s.g0inv.truncate(k),
        taylor.sqrt(s.rho2.truncate(k)), dlr.truncate(k), dlr.grad(), s.g0.grad().truncate(k),
        dH.truncate(k),
    )
    g = s.rho2.truncate(2)[:, None, None] * s.g0.truncate(2)  # curvature needs two derivatives
    dg = g.grad()
    partials = (A.grad().value, B.grad().value, Phi.grad().value) if derivatives else None
    return _CoordData(
        s.sb, A.value, B.value, Phi.value, g.value, np.linalg.inv(g.value), dg.value,
        dg.grad().value, dlr.value, dH.value, partials, s,
    )


def _stencil_invariants(chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig) -> _CoordData:
    """The closed formulas with derived-field derivatives from one stencil pass."""
    N = U.shape[0]
    cloud: list[ShapeBatch] = []

    def derived(V: np.ndarray) -> dict[str, np.ndarray]:
        s = shape_batch(chart, V, cfg)
        cloud.append(s)
        return {
            "logrho": np.log(s.rho),
            "H": s.H,
            "g": s.rho[:, None, None] ** 2 * s.metric,
        }

    center, d1, d2 = _derived_jets(derived, U, cfg, second=("logrho", "g"))
    # the centre points lead the stencil cloud: copies of its first N rows
    sb = ShapeBatch(chart, U, *(getattr(cloud[0], f.name)[:N].copy() for f in fields(ShapeBatch)[2:]))
    dlr, d2lr = d1["logrho"], d2["logrho"]
    dH = d1["H"]
    g, dg, d2g = center["g"], d1["g"], d2["g"]

    # induced-metric jets from exact 2-jets: d_k g0_ij = <d2x_ki, dx_j> + <dx_i, d2x_kj>
    signs = sb.signs
    dg0 = np.einsum("ncik,c,ncj->nijk", sb.d2x, signs, sb.dx) + np.einsum(
        "nci,c,ncjk->nijk", sb.dx, signs, sb.d2x
    )
    A, B, Phi = _closed_formulas(sb.h, sb.H, sb.metric, sb.metric_inv, sb.rho, dlr, d2lr, dg0, dH)
    ginv = np.linalg.inv(g)
    return _CoordData(sb, A, B, Phi, g, ginv, dg, d2g, dlr, dH)


def _riemann_coords(cd: _CoordData) -> tuple[np.ndarray, np.ndarray]:
    """Curvature tensor of the conformal metric from its jets.

    Index bookkeeping: dg[n,i,j,k] = d_k g_ij and d2g[n,i,j,k,l] =
    d_k d_l g_ij.  Returns (R_low, Gam) with
    R_low[n,a,b,c,d] = <R(d_a, d_b) d_c, d_d>,
    R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].
    """
    g, ginv, dg, d2g = cd.g, cd.ginv, cd.dg, cd.d2g
    Gam = christoffel(ginv, dg)
    dginv = -np.einsum("ndp,npqa,nql->ndla", ginv, dg, ginv)  # d_a g^{dl}
    # dGam[n,d,b,c,a] = d_a Gamma^d_{bc}
    dGam = 0.5 * (
        np.einsum("ndla,nlcb->ndbca", dginv, dg)
        + np.einsum("ndla,nlbc->ndbca", dginv, dg)
        - np.einsum("ndla,nbcl->ndbca", dginv, dg)
        + np.einsum("ndl,nlcab->ndbca", ginv, d2g)
        + np.einsum("ndl,nlbac->ndbca", ginv, d2g)
        - np.einsum("ndl,nbcal->ndbca", ginv, d2g)
    )
    Rup = (
        np.einsum("ndbca->nabcd", dGam)
        - np.einsum("ndacb->nabcd", dGam)
        + np.einsum("ndae,nebc->nabcd", Gam, Gam)
        - np.einsum("ndbe,neac->nabcd", Gam, Gam)
    )
    R_low = np.einsum("nabce,ned->nabcd", Rup, g)
    return R_low, Gam


# ---------------------------------------------------------------------------
# the invariant field
# ---------------------------------------------------------------------------

@dataclass
class InvariantField:
    """Invariants over a batch of points, frame components throughout."""

    chart: ImmersionChart
    U: np.ndarray
    cfg: NumericsConfig
    rho: np.ndarray
    H: np.ndarray
    x: np.ndarray
    normal: np.ndarray
    metric0: np.ndarray
    metric: np.ndarray          # conformal metric, coordinates
    frame: np.ndarray           # conformal orthonormal frame coefficients
    A: np.ndarray               # (N, m, m)
    B: np.ndarray
    Phi: np.ndarray             # (N, m)
    kappa: np.ndarray | None = None
    riemann: np.ndarray | None = None   # (N,m,m,m,m) frame components
    ricci: np.ndarray | None = None
    dA: np.ndarray | None = None        # (N,m,m,m), last index derivative direction
    dB: np.ndarray | None = None
    dPhi: np.ndarray | None = None      # (N,m,m): [i,j] = (nabla_{E_j} Phi)(E_i)
    residuals: dict = dc_field(default_factory=dict)
    residual_fields: dict = dc_field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.chart.m

    def A_eigs(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(0.5 * (self.A + np.swapaxes(self.A, 1, 2))), axis=1)

    def B_eigs(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(0.5 * (self.B + np.swapaxes(self.B, 1, 2))), axis=1)

    def phi_norm(self) -> np.ndarray:
        return np.linalg.norm(self.Phi, axis=1)

    def grad_norm(self, dT: np.ndarray) -> np.ndarray:
        axes = tuple(range(1, dT.ndim))
        return np.sqrt(np.sum(dT**2, axis=axes))


def _in_frame(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Frame components T(E_i, E_j, ...) of a coordinate tensor T (N, m, ..., m).

    One pairwise contraction per axis: each contracts the leading tensor
    axis with the frame and appends the frame index last, so after all of
    them the axes are back in their order.
    """
    for _ in range(T.ndim - 1):
        T = np.einsum("na...,nai->n...i", T, F)
    return T


def _frame_components(cd: _CoordData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    Fg = triangular_frame(cd.g)
    return Fg, _in_frame(cd.A, Fg), _in_frame(cd.B, Fg), _in_frame(cd.Phi, Fg)


def evaluate_field(
    chart: ImmersionChart,
    U: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    derivatives: bool = True,
    curvature: bool = True,
    cross_check: bool = False,
) -> InvariantField:
    """Full invariant computation over a batch of parameter points."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m = chart.m
    cd = _coord_invariants(chart, U, cfg, derivatives)
    Fg, A, B, Phi = _frame_components(cd)
    fieldv = InvariantField(
        chart=chart,
        U=U,
        cfg=cfg,
        rho=cd.sb.rho,
        H=cd.sb.H,
        x=cd.sb.x,
        normal=cd.sb.normal,
        metric0=cd.sb.metric,
        metric=cd.g,
        frame=Fg,
        A=A,
        B=B,
        Phi=Phi,
    )
    Gam = None
    if curvature or derivatives:
        R_low, Gam = _riemann_coords(cd)
    if curvature:
        Rf = _in_frame(R_low, Fg)
        fieldv.riemann = Rf
        ric = np.einsum("nkijk->nij", Rf)
        fieldv.ricci = ric
        scal = np.einsum("nii->n", ric)
        fieldv.kappa = scal / (m * (m - 1))
    if derivatives:
        partials = cd.partials if cd.partials is not None else _stencil_partials(chart, U, cfg)
        dA_c, dB_c, dPhi_c = _coord_derivatives(cd, Gam, *partials)
        fieldv.dA = _in_frame(dA_c, Fg)
        fieldv.dB = _in_frame(dB_c, Fg)
        fieldv.dPhi = _in_frame(dPhi_c, Fg)
    _attach_residuals(fieldv)
    if cross_check:
        run_cross_check(fieldv, cd.shape)
    return fieldv


def _stencil_partials(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain partials of the coordinate components of A, B, Phi on FD charts.

    Fourth-order central differences of the stencil route at the outer
    step: the component fields are smooth and exact up to the inner-stencil
    error, and the larger step keeps the truncation of the deep compositions
    below the residual tier.
    """
    m = chart.m
    h = _outer_step(chart, cfg, max(1.0, float(np.max(np.abs(U)))))
    offs, wts = stencil(1, 4)
    N = U.shape[0]
    pA = np.zeros((N, m, m, m))
    pB = np.zeros((N, m, m, m))
    pPhi = np.zeros((N, m, m))
    for a in range(m):
        for o, w0 in zip(offs, wts):
            if w0 == 0.0:
                continue
            V = U.copy()
            V[:, a] += o * h
            cdo = _stencil_invariants(chart, V, cfg)
            w = w0 / h
            pA[..., a] += w * cdo.A
            pB[..., a] += w * cdo.B
            pPhi[..., a] += w * cdo.Phi
    return pA, pB, pPhi


def _coord_derivatives(
    cd: _CoordData, Gam: np.ndarray, pA: np.ndarray, pB: np.ndarray, pPhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariant derivatives of A, B, Phi in coordinates: the plain partials
    corrected with the conformal Christoffels at the points."""
    corrA = np.einsum("ndca,ndb->nabc", Gam, cd.A) + np.einsum("ndcb,nad->nabc", Gam, cd.A)
    corrB = np.einsum("ndca,ndb->nabc", Gam, cd.B) + np.einsum("ndcb,nad->nabc", Gam, cd.B)
    corrPhi = np.einsum("ndca,nd->nac", Gam, cd.Phi)
    dA = pA - corrA
    dB = pB - corrB
    dPhi = pPhi - corrPhi
    return dA, dB, dPhi


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def _attach_residuals(f: InvariantField) -> None:
    m = f.m
    eye = np.eye(m)
    res_fields: dict[str, np.ndarray] = {}
    res_fields["trace_b"] = np.abs(np.einsum("nii->n", f.B))
    res_fields["norm_b"] = np.abs(np.einsum("nij,nij->n", f.B, f.B) - (m - 1) / m)
    if f.kappa is not None:
        res_fields["trace_a_scalar"] = np.abs(
            np.einsum("nii->n", f.A) - (m**2 * f.kappa - 1.0) / (2 * m)
        )
    if f.dPhi is not None:
        comm = np.einsum("nik,nkj->nij", f.B, f.A) - np.einsum("nik,nkj->nij", f.A, f.B)
        lhs = f.dPhi - np.swapaxes(f.dPhi, 1, 2)
        res_fields["phi_codazzi_commutator"] = np.max(np.abs(lhs - comm), axis=(1, 2))
    if f.dA is not None:
        lhs = f.dA - np.swapaxes(f.dA, 2, 3)
        rhs = np.einsum("nij,nk->nijk", f.B, f.Phi) - np.einsum("nik,nj->nijk", f.B, f.Phi)
        res_fields["blaschke_codazzi"] = np.max(np.abs(lhs - rhs), axis=(1, 2, 3))
    if f.dB is not None:
        lhs = f.dB - np.swapaxes(f.dB, 2, 3)
        rhs = np.einsum("ij,nk->nijk", eye, f.Phi) - np.einsum("ik,nj->nijk", eye, f.Phi)
        res_fields["b_codazzi"] = np.max(np.abs(lhs - rhs), axis=(1, 2, 3))
    if f.riemann is not None:
        rhs = (
            np.einsum("nik,njl->nijkl", f.B, f.B)
            - np.einsum("nil,njk->nijkl", f.B, f.B)
            + np.einsum("nil,jk->nijkl", f.A, eye)
            - np.einsum("nik,jl->nijkl", f.A, eye)
            + np.einsum("njk,il->nijkl", f.A, eye)
            - np.einsum("njl,ik->nijkl", f.A, eye)
        )
        res_fields["gauss_conformal"] = np.max(np.abs(f.riemann - rhs), axis=(1, 2, 3, 4))
    f.residual_fields = res_fields
    f.residuals = {k: float(np.max(v)) for k, v in res_fields.items()}


def identity_residuals(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig = DEFAULT
) -> dict[str, float]:
    """Max residual per structural identity over the batch."""
    return evaluate_field(chart, U, cfg).residuals


def gauss_residual_with_b(f: InvariantField, B: np.ndarray) -> float:
    """Gauss-identity residual with a replacement B field (sensitivity probe)."""
    m = f.m
    eye = np.eye(m)
    rhs = (
        np.einsum("nik,njl->nijkl", B, B)
        - np.einsum("nil,njk->nijkl", B, B)
        + np.einsum("nil,jk->nijkl", f.A, eye)
        - np.einsum("nik,jl->nijkl", f.A, eye)
        + np.einsum("njk,il->nijkl", f.A, eye)
        - np.einsum("njl,ik->nijkl", f.A, eye)
    )
    return float(np.max(np.abs(f.riemann - rhs)))


# ---------------------------------------------------------------------------
# moving-frame route
# ---------------------------------------------------------------------------

def _frame_series_jets(kind: str, s: _ShapeSeries):
    """The frame route's inputs from shape series of order >= 2, as
    (center, d1, d2) in the layout of _derived_jets: the lift Y = rho Z(x)
    to order 2; the conformal metric g, its triangular frame F and, on de
    Sitter charts, xi = -H (1, x) + (0, n) to order 1."""
    x = s.x.truncate(2)
    Z = taylor.stack(sigma_rep(kind, [x[:, i] for i in range(x.shape[1])], isometric=True))
    Y = taylor.sqrt(s.rho2.truncate(2))[:, None] * Z
    g = s.rho2.truncate(1)[:, None, None] * s.g0.truncate(1)
    fields = {"Y": Y, "g": g, "F": taylor.triangular_frame(g, triangular_frame(g.value))}
    if kind == DE_SITTER:
        H = s.H.truncate(1)[:, None]
        fields["xi"] = taylor.concatenate([-H, -H * x.truncate(1) + s.n.truncate(1)], axis=1)
    center = {k: v.value for k, v in fields.items()}
    d1 = {k: v.derivative_stack(1) for k, v in fields.items()}
    return center, d1, {"Y": Y.derivative_stack(2)}


@dataclass
class FrameRoute:
    """Structure-equation computation through the light-cone lift."""

    Y: np.ndarray           # (N, m+3)
    N_vec: np.ndarray
    xi: np.ndarray
    Y_i: np.ndarray         # (N, m+3, m)
    A: np.ndarray           # frame components
    B: np.ndarray
    Phi: np.ndarray | None
    relations: dict[str, float]


def frame_route(
    chart: ImmersionChart,
    U: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    shape: _ShapeSeries | None = None,
) -> FrameRoute:
    """A and B from the frame equations of the light-cone lift.

    Works in the native picture of the chart (any of the three space forms,
    unit radius for the quadrics); the conformal-space machinery is shared,
    only the homogeneous representative differs.  Analytic charts take the
    derivatives of the lift from the shape series of an order-4 jet, or of
    `shape` when the caller already holds them; FD charts from one stencil
    pass over the derived fields.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m = chart.m
    kind = chart.ambient.kind
    if kind != "lorentz_flat" and abs(chart.ambient.radius - 1.0) > 1e-12:
        raise ValidationError("frame route expects unit-radius quadric ambients")
    signs2 = form_signs(2, m + 3)

    if chart.jet_mode == "analytic":
        if shape is None:
            shape = _shape_series(chart, U, chart.jet(U, 4), cfg)
        center, d1, d2 = _frame_series_jets(kind, shape)
    else:
        def derived(V: np.ndarray) -> dict[str, np.ndarray]:
            s = shape_batch(chart, V, cfg)
            Z = sigma_rep_batch(kind, s.x, isometric=True)
            Y = s.rho[:, None] * Z
            g = s.rho[:, None, None] ** 2 * s.metric
            F = triangular_frame(g)
            out = {"Y": Y, "g": g, "F": F}
            if kind == DE_SITTER:
                # xi = -H (1, x) + (0, n); its first derivatives give Phi
                out["xi"] = np.concatenate([-s.H[:, None], -s.H[:, None] * s.x + s.normal], axis=1)
            return out

        center, d1, d2 = _derived_jets(derived, U, cfg, second=("Y",))
    Y = center["Y"]
    g = center["g"]
    F = center["F"]
    dY = d1["Y"]            # (N, m+3, m)
    d2Y = d2["Y"]           # (N, m+3, m, m)
    dF = d1["F"]            # (N, m, m, m): [n, a, i, b] = d_b F^a_i
    dg = d1["g"]
    ginv = np.linalg.inv(g)
    Gam = christoffel(ginv, dg)
    lap = np.einsum("nab,ncab->nc", ginv, d2Y) - np.einsum("nab,ngab,ncg->nc", ginv, Gam, dY)
    lap2 = pseudo_dot(lap, lap, signs2)
    N_vec = -lap / m - (lap2 / (2.0 * m * m))[:, None] * Y

    Y_i = np.einsum("nai,nca->nci", F, dY)
    Y_ij = np.einsum("nbj,naib,nca->ncij", F, dF, dY) + np.einsum(
        "nbj,nai,ncab->ncij", F, F, d2Y
    )

    Phi = None
    if kind == DE_SITTER:
        # dN = sum_i psi_i Y_i + Phi xi with <xi, xi> = -1, and <N, xi> = 0:
        # Phi_i = -<E_i N, xi> = <N, E_i xi>
        xi = center["xi"]
        Exi = np.einsum("nai,nca->nci", F, d1["xi"])
        Phi = np.einsum("nc,c,nci->ni", N_vec, signs2, Exi)
    else:
        rows = np.concatenate(
            [Y[:, None, :], N_vec[:, None, :], np.swapaxes(Y_i, 1, 2)], axis=1
        )
        xi = batched_normal(rows, signs2)

    A = -np.einsum("ncij,c,nc->nij", Y_ij, signs2, N_vec)
    B = -np.einsum("ncij,c,nc->nij", Y_ij, signs2, xi)
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    B = 0.5 * (B + np.swapaxes(B, 1, 2))

    delta = np.eye(m)
    rel = {
        "frame_null_y": float(np.max(np.abs(pseudo_dot(Y, Y, signs2)))),
        "frame_null_n": float(np.max(np.abs(pseudo_dot(N_vec, N_vec, signs2)))),
        "frame_pairing": float(np.max(np.abs(pseudo_dot(Y, N_vec, signs2) - 1.0))),
        "frame_laplacian_pairing": float(np.max(np.abs(pseudo_dot(lap, Y, signs2) + m))),
        "frame_tangent_orthonormal": float(
            np.max(np.abs(np.einsum("nci,c,ncj->nij", Y_i, signs2, Y_i) - delta))
        ),
        "frame_xi_unit": float(np.max(np.abs(pseudo_dot(xi, xi, signs2) + 1.0))),
        "frame_xi_orthogonal": float(
            max(
                np.max(np.abs(pseudo_dot(xi, Y, signs2))),
                np.max(np.abs(pseudo_dot(xi, N_vec, signs2))),
                np.max(np.abs(np.einsum("nc,c,nci->ni", xi, signs2, Y_i))),
            )
        ),
    }
    return FrameRoute(Y, N_vec, xi, Y_i, A, B, Phi, rel)


def run_cross_check(f: InvariantField, shape: _ShapeSeries | None = None) -> dict[str, float]:
    """Compare the closed-formula route against the frame route.

    `shape` passes the Taylor route's shape series on to the frame route,
    which otherwise takes its own jet.  Each of A, B and (on de Sitter
    charts) Phi is compared relative to 1 + its largest closed-route entry;
    raises ConsistencyError when one of them exceeds crosscheck_factor times
    the tier tolerance (signals insufficient jet accuracy).
    """
    fr = frame_route(f.chart, f.U, f.cfg, shape)
    diff = {
        f"cross_{key}": float(np.max(np.abs(frame - closed))) / (1.0 + float(np.max(np.abs(closed))))
        for key, frame, closed in (("a", fr.A, f.A), ("b", fr.B, f.B), ("phi", fr.Phi, f.Phi))
        if frame is not None
    }
    worst = max(diff.values())
    diff["cross_frame_relations"] = max(fr.relations.values())
    tier = f.cfg.tier(f.chart.jet_mode == "analytic")
    if worst > f.cfg.crosscheck_factor * tier:
        raise ConsistencyError(
            f"invariant routes disagree by {worst:.3e} "
            f"(allowed {f.cfg.crosscheck_factor * tier:.3e}); jets too inaccurate"
        )
    f.residuals.update(diff)
    return diff


# ---------------------------------------------------------------------------
# documented per-point operations
# ---------------------------------------------------------------------------

def conformal_position(shape: ShapeData) -> PseudoVector:
    """Light-cone lift (rho, rho x) with two leading time slots."""
    if shape.rho <= 0:
        raise ValidationError("conformal position needs a regular shape (rho > 0)")
    coords = np.concatenate([[shape.rho], shape.rho * shape.x])
    Y = PseudoVector(coords, Signature(2, coords.shape[0]))
    return Y


def conformal_metric(shape: ShapeData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conformal metric rho^2 g0 with its orthonormal frame and coframe."""
    g = shape.rho**2 * shape.induced_metric
    frame = shape.frame / shape.rho
    coframe = shape.coframe * shape.rho
    return g, frame, coframe


@dataclass
class InvariantTensors:
    """Per-point frame components of the three invariants plus curvature data."""

    u: np.ndarray
    frame: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Phi: np.ndarray
    riemann: np.ndarray | None
    ricci: np.ndarray | None
    kappa: float | None


def blaschke_and_b(
    chart: ImmersionChart,
    u: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    cross_check: bool = False,
) -> InvariantTensors:
    """Invariant tensors at one point (frame components)."""
    f = evaluate_field(chart, np.atleast_2d(u), cfg, derivatives=False, curvature=True,
                       cross_check=cross_check)
    return InvariantTensors(
        u=f.U[0],
        frame=f.frame[0],
        A=f.A[0],
        B=f.B[0],
        Phi=f.Phi[0],
        riemann=f.riemann[0] if f.riemann is not None else None,
        ricci=f.ricci[0] if f.ricci is not None else None,
        kappa=float(f.kappa[0]) if f.kappa is not None else None,
    )


def curvature_of_g(
    chart: ImmersionChart, u: np.ndarray, cfg: NumericsConfig = DEFAULT
) -> tuple[np.ndarray, np.ndarray, float]:
    """(R_ijkl, Ricci, kappa) of the conformal metric at one point."""
    f = evaluate_field(chart, np.atleast_2d(u), cfg, derivatives=False, curvature=True)
    return f.riemann[0], f.ricci[0], float(f.kappa[0])


@dataclass
class TensorDerivatives:
    """Frame components of the covariant derivatives and their Codazzi residuals."""

    A_ijk: np.ndarray
    B_ijk: np.ndarray
    Phi_ij: np.ndarray
    residuals: dict[str, float]


def covariant_derivatives(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig = DEFAULT
) -> TensorDerivatives:
    f = evaluate_field(chart, U, cfg, derivatives=True, curvature=True)
    keys = ("phi_codazzi_commutator", "blaschke_codazzi", "b_codazzi")
    return TensorDerivatives(
        A_ijk=f.dA,
        B_ijk=f.dB,
        Phi_ij=f.dPhi,
        residuals={k: f.residuals[k] for k in keys if k in f.residuals},
    )


@dataclass
class ConformalFrame:
    """Moving frame of the light-cone lift at one point."""

    Y: PseudoVector
    N: PseudoVector
    xi: PseudoVector
    Y_i: list[PseudoVector]
    relations: dict[str, float]


def conformal_frame(
    chart: ImmersionChart, u: np.ndarray, cfg: NumericsConfig = DEFAULT
) -> ConformalFrame:
    fr = frame_route(chart, np.atleast_2d(u), cfg)
    m3 = fr.Y.shape[1]
    sig = Signature(2, m3)
    return ConformalFrame(
        Y=PseudoVector(fr.Y[0], sig),
        N=PseudoVector(fr.N_vec[0], sig),
        xi=PseudoVector(fr.xi[0], sig),
        Y_i=[PseudoVector(fr.Y_i[0, :, i], sig) for i in range(chart.m)],
        relations=fr.relations,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def field_report(f: InvariantField) -> dict:
    """Per-point records plus grid maxima (the documented report schema)."""
    A_eigs = f.A_eigs()
    B_eigs = f.B_eigs()
    phin = f.phi_norm()
    points = []
    for n in range(f.U.shape[0]):
        rec = {
            "u": [float(v) for v in f.U[n]],
            "rho": float(f.rho[n]),
            "H": float(f.H[n]),
            "A_eigs": [float(v) for v in A_eigs[n]],
            "B_eigs": [float(v) for v in B_eigs[n]],
            "Phi_norm": float(phin[n]),
            "residuals": {k: float(v[n]) for k, v in f.residual_fields.items()},
        }
        points.append(rec)
    maxima = {k: float(np.max(v)) for k, v in f.residual_fields.items()}
    diagnostics = {k: v for k, v in f.residuals.items() if k not in maxima}
    return {
        "chart": f.chart.name,
        "m": f.m,
        "jet_mode": f.chart.jet_mode,
        "n_points": int(f.U.shape[0]),
        "points": points,
        "maxima": maxima,
        "diagnostics": diagnostics,
    }


def field_report_csv(f: InvariantField) -> str:
    """Flat CSV of the per-point records."""
    m = f.m
    res_keys = sorted(f.residual_fields)
    header = (
        [f"u_{i}" for i in range(m)]
        + ["rho", "H"]
        + [f"A_eig_{i}" for i in range(m)]
        + [f"B_eig_{i}" for i in range(m)]
        + ["Phi_norm"]
        + [f"residual_{k}" for k in res_keys]
    )
    A_eigs = f.A_eigs()
    B_eigs = f.B_eigs()
    phin = f.phi_norm()
    lines = [",".join(header)]
    for n in range(f.U.shape[0]):
        row = (
            [format(v, ".17g") for v in f.U[n]]
            + [format(f.rho[n], ".17g"), format(f.H[n], ".17g")]
            + [format(v, ".17g") for v in A_eigs[n]]
            + [format(v, ".17g") for v in B_eigs[n]]
            + [format(phin[n], ".17g")]
            + [format(f.residual_fields[k][n], ".17g") for k in res_keys]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
