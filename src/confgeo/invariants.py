"""Conformal invariants of space-like hypersurfaces in a unit Lorentzian space form.

Charts in the unit de Sitter, unit anti-de Sitter and flat forms (sectional
curvature c = 1, -1, 0) all take the same two computation routes:

* closed formulas in terms of the shape data (the primary route):

      B = rho (h - H g0)                                   as coordinate tensors
      A = -[Hess log rho - dlogrho (x) dlogrho + H h]
          - 1/2 (|grad log rho|^2 - H^2 - c) g0
      Phi = -rho^{-1} [ (h - H g0)(., grad log rho) + dH ]

  with the Hessian and gradient taken in the induced metric; frame
  components follow by contracting with the conformal-metric orthonormal
  frame E_i (so that B_ij = rho^{-1}(h_ij - H delta_ij) etc.).

* the moving-frame route through the light-cone lift Y = rho Z(x), Z the
  isometric representative of the form: A_ij = -<Y_ij, N>,
  B_ij = -<Y_ij, xi> with xi = dZ_x(n) - H Z, Phi_i = <N, E_i xi>; it
  doubles as the internal consistency check.

Both routes run on truncated Taylor series (taylor.py) of one jet per
point, whatever the jet source: the exact series of formula charts or the
least-squares fit of FD charts (fd.py).  The shape series of that jet
(chart.shape_series: x, the normal, h, H, rho^2, g0, whose order-0
coefficients are the centre values) feed the closed formulas, which give
rho, H and the series of A, B, Phi and of the conformal metric g =
rho^2 g0 to order 1, whose Christoffels follow from those of g0 by the
conformal change (see _series_invariants), so only g0 is inverted.  The
same series give the frame route the lift Y to order 2 and g, its frame
and xi to order 1.  Every derivative of these derived fields -- the
curvature, the covariant derivatives and the frame route's E_i Y,
E_j E_i Y and E_i xi -- is read off with Series.grad at the points
themselves.
evaluate_field(cross_check=True) therefore makes one order-5 jet call per
batch (order 4 without covariant derivatives), and the cross-check
compares the two formula routes, exact up to roundoff.

On FD charts the identities hold exactly on the fitted polynomial surface,
so their residuals say nothing about the fit.  evaluate_field therefore
also fits a companion of COMPANION_REACH times the reach, runs the closed
formulas on both fits in the same pass (the two jets stacked along the
point axis, so the regularity checks cover the companion's points too) and
records, per point, the largest difference of A, B, Phi, their covariant
derivatives and the curvature as the residual FD_ESTIMATE, an estimate of
the FD error gated at the FD residual tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from . import taylor
from .chart import DE_SITTER, ImmersionChart, ShapeSeries, grid_points, shape_series
from .config import DEFAULT, Gate, NumericsConfig, residual_tolerance
from .conformal_atlas import lift_chart, sigma_differential_batch, sigma_rep_batch
from .errors import ComputationError, ConsistencyError, RegularityError, ValidationError
from .pseudo_linalg import form_signs, pseudo_dot, triangular_frame
from .taylor import einsum


def christoffel(ginv, dg):
    """Christoffel symbols from metric jets (arrays or Taylor series).

    dg[n, i, j, k] = d_k g_ij; output Gam[n, g, j, k] = Gamma^g_{jk}.
    """
    t1 = dg.transpose((0, 1, 3, 2))  # d_j g_lk
    t2 = dg                          # d_k g_lj
    return 0.5 * (
        einsum("ngl,nljk->ngjk", ginv, t1 + t2) - einsum("ngl,njkl->ngjk", ginv, dg)
    )


# ---------------------------------------------------------------------------
# FD charts: sample margin and error estimate
# ---------------------------------------------------------------------------

# reach of the companion fit of FD charts, relative to the chart's reach
COMPANION_REACH = 0.7
# residual key of the FD error estimate: it compares two fits, not two routes
FD_ESTIMATE = "fd_error_estimate"


def required_margin(chart: ImmersionChart, cfg: NumericsConfig = DEFAULT) -> float:
    """Distance to the domain boundary that a field evaluation samples.

    FD charts sample their fit's cloud, which reaches chart.fd_margin()
    along each axis; 15% to spare keeps rounded grid points inside.
    Analytic charts take every derivative from Taylor series at the points
    themselves and need no margin.  `cfg` is unused; perfbench/workloads
    passes it until the next benchmark change (ROADMAP item 4).
    """
    return 1.15 * chart.fd_margin()


def grid_margin(chart: ImmersionChart) -> float:
    """Default inset of sample grids: the sampled reach of FD charts, and
    at least 5% of the narrowest side of the domain on every chart."""
    lo, hi = chart.domain.arrays()
    return max(required_margin(chart), 0.05 * float(np.min(hi - lo)))


# ---------------------------------------------------------------------------
# coordinate-level invariants (one shared pass)
# ---------------------------------------------------------------------------

def _closed_formulas(h, H, g0, g0inv, rho, dlr, d2lr, gam0, dH, c):
    """Coordinate components of A, B and Phi from the shape data.

    Works on arrays and on Taylor series alike: d2lr are the plain second
    partials of log rho, gam0 the Christoffels of g0 and c the sectional
    curvature of the ambient form.
    """
    hess = d2lr - einsum("ngab,ng->nab", gam0, dlr)
    grad2 = einsum("na,nab,nb->n", dlr, g0inv, dlr)
    A = -(hess - einsum("na,nb->nab", dlr, dlr) + H[:, None, None] * h) - 0.5 * (
        grad2 - H**2 - c
    )[:, None, None] * g0
    hmH = h - H[:, None, None] * g0
    B = rho[:, None, None] * hmH
    Phi = -(1.0 / rho)[:, None] * (einsum("nab,nbc,nc->na", hmH, g0inv, dlr) + dH)
    return A, B, Phi


def jet_order(derivatives: bool) -> int:
    """Order of the jet a field evaluation takes: from a jet of order K the
    shape data carry order K - 2 and A, B, Phi order K - 4, so K = 5 gives
    their partials and K = 4 their values."""
    return 5 if derivatives else 4


def grid_jet(
    chart: ImmersionChart, counts: list[int], lift: str = "psi1"
) -> tuple[ImmersionChart, np.ndarray, taylor.Series]:
    """The front end of every grid run: (work, U, jet).

    work is the chart, lifted through `lift` unless it is already in the de
    Sitter picture; U is its grid of `counts` inset by grid_margin; jet is
    one jet at U of the order a field with derivatives takes, which the
    regularity check and field_from_jet share.
    """
    work = chart if chart.ambient.kind == DE_SITTER else lift_chart(chart, lift)
    U = grid_points(work.domain, counts, margin=grid_margin(work))
    return work, U, _finite_jet(work, U, jet_order(derivatives=True))


def _finite_jet(chart: ImmersionChart, U: np.ndarray, order: int) -> taylor.Series:
    """chart.jet(U, order), refused with a ComputationError when one of its
    coefficients overflows double precision or is NaN: every later stage
    would compute on it without an error of its own."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = chart.jet(U, order)
    finite = np.isfinite(jet.c)
    if not finite.all():
        bad = ~finite.reshape(finite.shape[0], U.shape[0], -1).all(axis=(0, 2))
        raise ComputationError(
            f"chart {chart.name!r} has a non-finite jet at {int(bad.sum())} of {len(bad)} "
            f"points (first u = {U[bad][0].tolist()}): double precision does not resolve it there"
        )
    return jet


def _refuse_umbilic(rho2: taylor.Series) -> None:
    """Raise RegularityError on the totally umbilic locus rho^2 <=
    regularity_tol, where rho and log rho are undefined."""
    if np.any(rho2.value <= NumericsConfig.regularity_tol):
        raise RegularityError(
            "totally umbilic locus: conformal factor rho^2 = "
            f"{float(np.min(rho2.value)):.3e} is not positive"
        )


def _series_invariants(
    chart: ImmersionChart, jet: taylor.Series, derivatives: bool
) -> tuple[ShapeSeries, taylor.Series, taylor.Series, taylor.Series, taylor.Series, taylor.Series]:
    """The closed formulas over Taylor series from one jet per point.

    Returns the shape series and the series of A, B, Phi, the conformal
    metric g and its Christoffels Gam.  Each derivative costs one order:
    log rho's Hessian and with it A carry order K - 4 (see jet_order), g
    and Gam order 1, and every series is cut to the order its result needs.
    Gam follows from the Christoffels Gam0 of g0 by the conformal change
    g = rho^2 g0:

        Gam^c_ab = Gam0^c_ab + d^c_a dlr_b + d^c_b dlr_a - g0_ab g0^cd dlr_d

    with dlr = d log rho, so g is never inverted.  Raises RegularityError
    on the totally umbilic locus.
    """
    K = jet_order(derivatives)
    if jet.order < K:
        raise ValidationError(f"the field needs a jet of order {K}, got {jet.order}")
    s = shape_series(chart, jet.truncate(K))
    _refuse_umbilic(s.rho2)
    dlr = (0.5 * taylor.log(s.rho2)).grad()
    g0, g0inv = s.g0.truncate(1), s.g0inv.truncate(1)
    gam0 = christoffel(g0inv, s.g0.truncate(2).grad())
    k = K - 4  # the order of A, B and Phi
    A, B, Phi = _closed_formulas(
        s.h.truncate(k), s.H.truncate(k), s.g0.truncate(k), s.g0inv.truncate(k),
        taylor.sqrt(s.rho2.truncate(k)), dlr.truncate(k), dlr.grad(), gam0.truncate(k),
        s.H.grad().truncate(k), chart.ambient.curvature,
    )
    g = s.rho2.truncate(1)[:, None, None] * g0
    d1 = dlr.truncate(1)
    eye = np.eye(chart.m)
    Gam = (
        gam0
        + d1[:, None, None, :] * eye[:, :, None]
        + d1[:, None, :, None] * eye[:, None, :]
        - einsum("nab,nc->ncab", g0, einsum("ncd,nd->nc", g0inv, d1))
    )
    return s, A, B, Phi, g, Gam


def _riemann_coords(g: np.ndarray, Gam: taylor.Series) -> np.ndarray:
    """Curvature tensor R_low[n,a,b,c,d] = <R(d_a, d_b) d_c, d_d> of the
    metric g from its Christoffel series Gam of order >= 1, with
    R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].
    """
    G = Gam.value
    dG = Gam.grad().value  # dG[n,d,b,c,a] = d_a Gamma^d_{bc}
    Rup = (
        np.einsum("ndbca->nabcd", dG)
        - np.einsum("ndacb->nabcd", dG)
        + np.einsum("ndae,nebc->nabcd", G, G)
        - np.einsum("ndbe,neac->nabcd", G, G)
    )
    return np.einsum("nabce,ned->nabcd", Rup, g)


def _covariant(T: taylor.Series, Gam: np.ndarray) -> np.ndarray:
    """Covariant derivative at the points of a covariant tensor T, a series
    of order >= 1 with values (N, m, ..., m), in coordinates with the
    derivative axis last: the partials minus one Christoffel term
    Gamma^d_{a c} T_{..d..} per tensor axis."""
    t = T.value
    out = T.grad().value
    for p in range(1, t.ndim):
        corr = np.einsum("nd...,ndac->n...ac", np.moveaxis(t, p, 1), Gam)
        out = out - np.moveaxis(corr, -2, p)
    return out


# ---------------------------------------------------------------------------
# the invariant field
# ---------------------------------------------------------------------------

@dataclass
class InvariantField:
    """Invariants over a batch of points, frame components throughout."""

    chart: ImmersionChart
    U: np.ndarray
    rho: np.ndarray
    H: np.ndarray
    metric: np.ndarray          # conformal metric, coordinates
    A: np.ndarray               # (N, m, m)
    B: np.ndarray
    Phi: np.ndarray             # (N, m)
    cfg: NumericsConfig = DEFAULT   # always DEFAULT; only perfbench reads it (ROADMAP item 4)
    kappa: np.ndarray | None = None
    riemann: np.ndarray | None = None   # (N,m,m,m,m) frame components
    dA: np.ndarray | None = None        # (N,m,m,m), last index derivative direction
    dB: np.ndarray | None = None
    dPhi: np.ndarray | None = None      # (N,m,m): [i,j] = (nabla_{E_j} Phi)(E_i)
    residuals: dict = dc_field(default_factory=dict)
    residual_fields: dict = dc_field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.chart.m

    def A_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.A + np.swapaxes(self.A, 1, 2)))

    def B_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.B + np.swapaxes(self.B, 1, 2)))

    def phi_norm(self) -> np.ndarray:
        return np.linalg.norm(self.Phi, axis=1)


def _in_frame(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Frame components T(E_i, E_j, ...) of a coordinate tensor T (N, m, ..., m).

    One pairwise contraction per axis: each contracts the leading tensor
    axis with the frame and appends the frame index last, so after all of
    them the axes are back in their order.
    """
    for _ in range(T.ndim - 1):
        T = np.einsum("na...,nai->n...i", T, F)
    return T


def evaluate_field(
    chart: ImmersionChart,
    U: np.ndarray,
    derivatives: bool = True,
    curvature: bool = True,
    cross_check: bool = False,
) -> InvariantField:
    """Full invariant computation over a batch of parameter points.

    FD charts also get the residual FD_ESTIMATE from a companion fit (see
    the module docstring).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    chart.ambient.check_unit(chart.name)
    jet = _finite_jet(chart, U, jet_order(derivatives))
    return field_from_jet(chart, U, jet, derivatives, curvature, cross_check)


def field_from_jet(
    chart: ImmersionChart,
    U: np.ndarray,
    jet: taylor.Series,
    derivatives: bool = True,
    curvature: bool = True,
    cross_check: bool = False,
) -> InvariantField:
    """evaluate_field from an already evaluated jet of order >=
    jet_order(derivatives)."""
    chart.ambient.check_unit(chart.name)
    if chart.jet_mode != "fd":
        fieldv, shape = _invariant_field(chart, U, jet, derivatives, curvature)
        _attach_residuals(fieldv)
    else:
        # the fit and its companion fit go through the pipeline as one batch
        companion = chart.with_jet_mode("fd", fd_step=COMPANION_REACH * chart.fd_margin())
        companion_jet = companion.jet(U, jet_order(derivatives))
        both = taylor.concatenate([jet, companion_jet], 0)
        n = U.shape[0]
        stacked, shape = _invariant_field(chart, np.concatenate([U, U]), both, derivatives, curvature)
        fieldv, shape = _points(stacked, slice(None, n)), _points(shape, slice(None, n))
        _attach_residuals(fieldv)
        _attach_fd_estimate(fieldv, _points(stacked, slice(n, None)))
    if cross_check:
        run_cross_check(fieldv, shape)
    return fieldv


def _points(obj, sel: slice):
    """Copy of a per-point record (InvariantField, ShapeSeries) with every
    array and series cut to the points `sel`."""
    cut = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, (np.ndarray, taylor.Series)):
            cut[f.name] = v[sel]
    return replace(obj, **cut)


def _invariant_field(
    chart: ImmersionChart, U: np.ndarray, jet: taylor.Series, derivatives: bool, curvature: bool
) -> tuple[InvariantField, ShapeSeries]:
    """The invariants in frame components, without residuals, and the shape
    series they came from."""
    m = chart.m
    s, A, B, Phi, g, Gam = _series_invariants(chart, jet, derivatives)
    Fg = triangular_frame(g.value)
    fieldv = InvariantField(
        chart=chart,
        U=U,
        rho=np.sqrt(s.rho2.value),
        H=s.H.value,
        metric=g.value,
        A=_in_frame(A.value, Fg),
        B=_in_frame(B.value, Fg),
        Phi=_in_frame(Phi.value, Fg),
    )
    if curvature:
        Rf = _in_frame(_riemann_coords(g.value, Gam), Fg)
        fieldv.riemann = Rf
        ric = np.einsum("nkijk->nij", Rf)
        scal = np.einsum("nii->n", ric)
        fieldv.kappa = scal / (m * (m - 1))
    if derivatives:
        fieldv.dA, fieldv.dB, fieldv.dPhi = (
            _in_frame(_covariant(T, Gam.value), Fg) for T in (A, B, Phi)
        )
    return fieldv, s


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def _gauss_rhs(A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """Right-hand side B^B + A^I of the conformal Gauss equation, R_ijkl."""
    eye = np.eye(m)
    return (
        np.einsum("nik,njl->nijkl", B, B)
        - np.einsum("nil,njk->nijkl", B, B)
        + np.einsum("nil,jk->nijkl", A, eye)
        - np.einsum("nik,jl->nijkl", A, eye)
        + np.einsum("njk,il->nijkl", A, eye)
        - np.einsum("njl,ik->nijkl", A, eye)
    )


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
        rhs = _gauss_rhs(f.A, f.B, m)
        res_fields["gauss_conformal"] = np.max(np.abs(f.riemann - rhs), axis=(1, 2, 3, 4))
    f.residual_fields = res_fields
    f.residuals = {k: float(np.max(v)) for k, v in res_fields.items()}


def _attach_fd_estimate(f: InvariantField, companion: InvariantField) -> None:
    """FD_ESTIMATE per point: the largest absolute difference between the
    field of the chart's fit and that of its companion fit, over A, B, Phi,
    their covariant derivatives and the curvature tensor."""
    diffs = [
        np.abs(getattr(f, key) - getattr(companion, key)).reshape(f.U.shape[0], -1)
        for key in ("A", "B", "Phi", "dA", "dB", "dPhi", "riemann")
        if getattr(f, key) is not None
    ]
    estimate = np.max(np.concatenate(diffs, axis=1), axis=1)
    f.residual_fields[FD_ESTIMATE] = estimate
    f.residuals[FD_ESTIMATE] = float(np.max(estimate))


# ---------------------------------------------------------------------------
# moving-frame route
# ---------------------------------------------------------------------------

@dataclass
class FrameRoute:
    """Structure-equation computation through the light-cone lift."""

    Y: np.ndarray           # (N, m+3)
    N_vec: np.ndarray
    xi: np.ndarray
    Y_i: np.ndarray         # (N, m+3, m)
    A: np.ndarray           # frame components
    B: np.ndarray
    Phi: np.ndarray
    relations: dict[str, float]


def frame_route(
    chart: ImmersionChart,
    U: np.ndarray,
    *,
    shape: ShapeSeries | None = None,
) -> FrameRoute:
    """A, B and Phi from the frame equations of the light-cone lift.

    Works in the native picture of the chart (any unit space form); the
    conformal-space machinery is shared, only the isometric representative
    Z and its differential differ.  The derivatives of the lift come from
    the shape series of an order-4 jet, or of `shape` when the caller
    already holds them.  Raises RegularityError on the totally umbilic locus.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m = chart.m
    kind = chart.ambient.kind
    chart.ambient.check_unit(chart.name)
    signs2 = form_signs(2, m + 3)
    if shape is None:
        shape = shape_series(chart, chart.jet(U, 4))
    _refuse_umbilic(shape.rho2)
    # the lift Y = rho Z(x) to order 2; g, its frame F and xi to order 1
    x = shape.x.truncate(2)
    Z = sigma_rep_batch(kind, x, isometric=True)
    Ys = taylor.sqrt(shape.rho2.truncate(2))[:, None] * Z
    gs = shape.rho2.truncate(1)[:, None, None] * shape.g0.truncate(1)
    F = taylor.triangular_frame(gs, triangular_frame(gs.value))
    Y = Ys.value
    dY = Ys.grad()          # (N, m+3, m)
    ginv = np.linalg.inv(gs.value)
    Gam = christoffel(ginv, gs.grad().value)
    lap = np.einsum("nab,ncab->nc", ginv, dY.grad().value) - np.einsum(
        "nab,ngab,ncg->nc", ginv, Gam, dY.value
    )
    lap2 = pseudo_dot(lap, lap, signs2)
    N_vec = -lap / m - (lap2 / (2.0 * m * m))[:, None] * Y

    EY = einsum("nai,nca->nci", F, dY)  # E_i Y
    Y_i = EY.value
    Y_ij = np.einsum("nbj,ncib->ncij", F.value, EY.grad().value)  # E_j E_i Y

    # dN = sum_i psi_i Y_i + Phi xi with <xi, xi> = -1, and <N, xi> = 0:
    # Phi_i = -<E_i N, xi> = <N, E_i xi>
    xis = sigma_differential_batch(kind, x, shape.n.truncate(1)) - shape.H.truncate(1)[:, None] * Z
    xi = xis.value
    Exi = np.einsum("nai,nca->nci", F.value, xis.grad().value)
    Phi = np.einsum("nc,c,nci->ni", N_vec, signs2, Exi)

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


def run_cross_check(f: InvariantField, shape: ShapeSeries | None = None) -> dict[str, float]:
    """Compare the closed-formula route against the frame route.

    `shape` passes the Taylor route's shape series on to the frame route,
    which otherwise takes its own jet.  Each of A, B and Phi is compared
    relative to 1 + its largest closed-route entry;
    raises ConsistencyError when one of them exceeds crosscheck_factor times
    the tier tolerance (signals insufficient jet accuracy).
    """
    fr = frame_route(f.chart, f.U, shape=shape)
    diff = {
        f"cross_{key}": float(np.max(np.abs(frame - closed))) / (1.0 + float(np.max(np.abs(closed))))
        for key, frame, closed in (("a", fr.A, f.A), ("b", fr.B, f.B), ("phi", fr.Phi, f.Phi))
    }
    worst = max(diff.values())
    diff["cross_frame_relations"] = max(fr.relations.values())
    allowed = NumericsConfig.crosscheck_factor * NumericsConfig.tier(f.chart.jet_mode == "analytic")
    if worst > allowed:
        raise ConsistencyError(
            f"invariant routes disagree by {worst:.3e} (allowed {allowed:.3e}); jets too inaccurate"
        )
    f.residuals.update(diff)
    return diff


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def residual_gates(f: InvariantField) -> list[Gate]:
    """A row per per-point residual (all but cross_*), at config.residual_tolerance."""
    analytic = f.chart.jet_mode == "analytic"
    return [Gate.worst(k, v, residual_tolerance(k, analytic), f.U) for k, v in f.residual_fields.items()]


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
    """Flat CSV of field_report's per-point records."""
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
    lines = [",".join(header)]
    for rec in field_report(f)["points"]:
        row = [
            *rec["u"], rec["rho"], rec["H"], *rec["A_eigs"], *rec["B_eigs"], rec["Phi_norm"],
            *(rec["residuals"][k] for k in res_keys),
        ]
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"
