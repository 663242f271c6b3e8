"""Parametrized hypersurface patches and their first/second fundamental data.

A chart is a map x: D subset R^m -> ambient space form, either symbolic
(sympy expressions, exact Taylor-series jets) or a bare evaluator (jets by
least-squares polynomial fits, fd.py); conformal_atlas.LiftedChart
composes a chart with a coordinate map of the conformal space.  Every jet is a truncated Taylor
series.  Shape data follows the conventions:

    h(X, Y) = <D_X n, Y>  = -<n, D_X D_Y x>      (time-like unit normal n)
    H       = (1/m) tr_{g0} h
    rho^2   = m/(m-1) (|h|^2 - m H^2)            (norms in the induced metric)

The normal is the generalized cross product of the tangent vectors (and the
position row on quadric ambients), normalized time-like, oriented so that
its first significant component is negative.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import sympy as sp

from .config import FDConfig, NumericsConfig, DEFAULT
from .errors import (
    ChartDomainError,
    DimensionMismatchError,
    DomainError,
    RegularityError,
    ValidationError,
)
from . import taylor
from .fd import default_reach, fit_series
from .pseudo_linalg import (
    Signature,
    batched_normal,
    pseudo_dot,
    triangular_frame,
)

DE_SITTER = "de_sitter"
ANTI_DE_SITTER = "anti_de_sitter"
LORENTZ_FLAT = "lorentz_flat"


@dataclass(frozen=True)
class AmbientForm:
    """Lorentzian space form the chart maps into.

    de_sitter(a):       {<x,x>_1 = +a^2} in R^{dim+1} with 1 time slot
    anti_de_sitter(a):  {<x,x>_2 = -a^2} in R^{dim+1} with 2 time slots
    lorentz_flat:       R^{dim} with 1 time slot, no constraint
    `dim` is the dimension of the space form itself (m+1 for a hypersurface
    chart of dimension m).
    """

    kind: str
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in (DE_SITTER, ANTI_DE_SITTER, LORENTZ_FLAT):
            raise ValidationError(f"unknown ambient kind {self.kind!r}")
        if self.kind != LORENTZ_FLAT and not self.radius > 0:
            raise ValidationError(f"ambient radius must be positive, got {self.radius}")

    @property
    def embedding_dim(self) -> int:
        return self.dim if self.kind == LORENTZ_FLAT else self.dim + 1

    @property
    def signature(self) -> Signature:
        time = 2 if self.kind == ANTI_DE_SITTER else 1
        return Signature(time, self.embedding_dim)

    @property
    def quadric_value(self) -> float | None:
        if self.kind == DE_SITTER:
            return self.radius**2
        if self.kind == ANTI_DE_SITTER:
            return -(self.radius**2)
        return None

    def quadric_residual(self, x: np.ndarray) -> np.ndarray:
        """|<x,x> - quadric constant| per point; zeros for the flat form."""
        if self.kind == LORENTZ_FLAT:
            return np.zeros(x.shape[0])
        signs = self.signature.signs
        return np.abs(pseudo_dot(x, x, signs) - self.quadric_value)


@dataclass(frozen=True)
class Box:
    """Axis-aligned parameter domain."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValidationError("domain lo/hi length mismatch")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValidationError("domain requires lo < hi per axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo), np.asarray(self.hi)

    def contains(self, U: np.ndarray, margin: float = 0.0) -> bool:
        lo, hi = self.arrays()
        return bool(np.all(U >= lo + margin) and np.all(U <= hi - margin))


class Jet:
    """Taylor series of a chart around a batch of points; jet[r] is the stack
    of order-r partials, shape (N, comps) + (m,)*r, formed on first access."""

    def __init__(self, series: taylor.Series):
        self.series = series
        self._stacks: dict[int, np.ndarray] = {}

    def __getitem__(self, r: int) -> np.ndarray:
        if r not in self._stacks:
            self._stacks[r] = self.series.derivative_stack(r)
        return self._stacks[r]


class ImmersionChart:
    """A hypersurface patch with derivative-jet access.

    Symbolic charts carry sympy expressions and give exact Taylor-series
    jets; evaluator charts, and symbolic charts switched to FD jets, fit a
    polynomial to one evaluation on a sample cloud around each point and
    write its coefficients as the same series.  Instances are immutable by
    convention; internal lambdify caches are the only mutable state and are
    safe to rebuild.
    """

    def __init__(
        self,
        name: str,
        m: int,
        ambient: AmbientForm,
        domain: Box,
        exprs: sp.Matrix | None = None,
        syms: tuple[sp.Symbol, ...] | None = None,
        eval_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        jet_mode: str = "analytic",
        fd: FDConfig | None = None,
        params: dict | None = None,
        template: str | None = None,
        guards: list[tuple[str, sp.Expr]] | None = None,
    ):
        if domain.dim != m:
            raise ValidationError(f"domain dimension {domain.dim} != m={m}")
        if ambient.dim != m + 1:
            raise ValidationError(f"ambient dimension {ambient.dim} != m+1={m + 1}")
        if jet_mode not in ("analytic", "fd"):
            raise ValidationError(f"jet mode must be 'analytic' or 'fd', got {jet_mode!r}")
        if exprs is None and eval_fn is None:
            raise ValidationError("chart needs expressions or an evaluator")
        if jet_mode == "analytic" and exprs is None:
            raise ValidationError("analytic jets require symbolic expressions")
        self.name = name
        self.m = m
        self.ambient = ambient
        self.domain = domain
        self.exprs = exprs
        self.syms = tuple(syms) if syms is not None else None
        self._eval_fn = eval_fn
        self.jet_mode = jet_mode
        self.fd = fd or FDConfig()
        self.params = dict(params or {})
        self.template = template
        self.guards = list(guards or [])
        self._x_fn: Callable | None = None
        self._series_fn: Callable | None = None
        self._guard_fns: list[tuple[str, Callable]] | None = None

    # -- evaluation ---------------------------------------------------------

    @property
    def n_comps(self) -> int:
        return self.ambient.embedding_dim

    def _check_guards(self, U: np.ndarray) -> None:
        if not self.guards:
            return
        if self._guard_fns is None:
            self._guard_fns = [
                (name, sp.lambdify(self.syms, expr, "numpy")) for name, expr in self.guards
            ]
        for name, fn in self._guard_fns:
            vals = np.broadcast_to(np.asarray(fn(*[U[:, i] for i in range(self.m)]), float), (U.shape[0],))
            if np.any(np.abs(vals) < 1e-12):
                raise ChartDomainError(
                    f"chart {self.name!r}: denominator {name!r} vanishes at a requested point"
                )

    def eval(self, U: np.ndarray) -> np.ndarray:
        """Evaluate the immersion on a batch U (N, m) -> (N, comps)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.m:
            raise DimensionMismatchError(f"points have {U.shape[1]} coords, chart expects {self.m}")
        if self.exprs is not None:
            self._check_guards(U)
            if self._x_fn is None:
                self._x_fn = sp.lambdify(self.syms, list(self.exprs), "numpy")
            out = self._x_fn(*[U[:, i] for i in range(self.m)])
            cols = [np.broadcast_to(np.asarray(c, dtype=float), (U.shape[0],)) for c in out]
            return np.stack(cols, axis=1)
        return np.asarray(self._eval_fn(U), dtype=float)

    def _taylor_fn(self) -> Callable:
        """The expressions lambdified once over truncated Taylor series."""
        if self._series_fn is None:
            for f in sorted(self.exprs.atoms(sp.core.function.Application), key=str):
                if type(f).__name__ not in taylor.FUNCTIONS:
                    raise ValidationError(
                        f"chart {self.name!r}: Taylor jets do not support the function "
                        f"{type(f).__name__!r}; use FD jets for this chart"
                    )
            for p in self.exprs.atoms(sp.Pow):
                if not p.exp.is_number and not p.base.is_number:
                    raise ValidationError(
                        f"chart {self.name!r}: Taylor jets do not support the power {p}"
                    )
            self._series_fn = sp.lambdify(
                self.syms, list(self.exprs), modules=[taylor.FUNCTIONS, "numpy"], cse=True
            )
        return self._series_fn

    def _taylor_series(self, U: np.ndarray, order: int) -> taylor.Series:
        """Taylor series of x around each point of U, shape (N, comps)."""
        N = U.shape[0]
        out = self._taylor_fn()(*taylor.Series.variables(U, order))
        comps = [
            v if isinstance(v, taylor.Series)
            else taylor.Series.constant(np.broadcast_to(np.asarray(v, float), (N,)), self.m, order)
            for v in out
        ]
        return taylor.stack(comps)

    def fd_margin(self) -> float:
        """Parameter-space reach of the FD sample cloud along each axis (0
        for analytic jets)."""
        if self.jet_mode != "fd":
            return 0.0
        step = self.fd.step
        return step if step is not None and step > 0 else default_reach(self.m)

    # -- jets ---------------------------------------------------------------

    def jet(self, U: np.ndarray, order: int) -> Jet:
        """Taylor series of x up to `order` (<= 5) around each point of U.

        Symbolic charts in analytic mode lambdify their expressions over
        series; FD charts take the coefficients of the least-squares
        polynomial fitted around each point (fd.fit_series).
        """
        if not (0 <= order <= 5):
            raise ValidationError(f"jet order must be within 0..5, got {order}")
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.jet_mode == "analytic":
            self._check_guards(U)
            return Jet(self._taylor_series(U, order))
        margin = self.fd_margin()
        if not self.domain.contains(U, margin=margin):
            raise DomainError(
                f"chart {self.name!r}: FD jets need margin {margin:.3e} inside the domain"
            )
        return Jet(fit_series(self.eval, U, margin, order))

    # -- transforms ---------------------------------------------------------

    def reparametrized(self, A: np.ndarray, b: np.ndarray, name: str | None = None) -> "ImmersionChart":
        """Chart composed with the affine parameter change u = A v + b.

        Only symbolic charts support this.  The new domain is the bounding
        box of the preimage of the old one (a parallelotope), so boundary
        margins are advisory near the corners.
        """
        if self.exprs is None:
            raise ValidationError("reparametrization requires a symbolic chart")
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        v = sp.symbols(f"v0:{self.m}")
        subs = {
            self.syms[i]: sum(sp.Float(A[i, j]) * v[j] for j in range(self.m)) + sp.Float(b[i])
            for i in range(self.m)
        }
        exprs = self.exprs.subs(subs, simultaneous=True)
        guards = [(gname, gexpr.subs(subs, simultaneous=True)) for gname, gexpr in self.guards]
        Ainv = np.linalg.inv(A)
        lo, hi = self.domain.arrays()
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        pre = (corners - b) @ Ainv.T
        dom = Box(tuple(pre.min(axis=0)), tuple(pre.max(axis=0)))
        return self._replace(
            name=name or f"{self.name}~affine", domain=dom, exprs=sp.Matrix(exprs), syms=v,
            eval_fn=None, guards=guards,
        )

    def with_jet_mode(self, jet_mode: str, fd: FDConfig | None = None) -> "ImmersionChart":
        return self._replace(jet_mode=jet_mode, fd=fd or self.fd)

    def _replace(self, **changes) -> "ImmersionChart":
        """The chart rebuilt with some constructor arguments changed."""
        args = dict(
            name=self.name, m=self.m, ambient=self.ambient, domain=self.domain, exprs=self.exprs,
            syms=self.syms, eval_fn=self._eval_fn, jet_mode=self.jet_mode, fd=self.fd,
            params=self.params, template=self.template, guards=self.guards,
        )
        return ImmersionChart(**{**args, **changes})


# ---------------------------------------------------------------------------
# shape data
# ---------------------------------------------------------------------------


@dataclass
class ShapeBatch:
    """First/second fundamental data at a batch of points (coordinate components)."""

    chart: ImmersionChart
    U: np.ndarray       # (N, m)
    x: np.ndarray       # (N, c)
    dx: np.ndarray      # (N, c, m)
    d2x: np.ndarray     # (N, c, m, m)
    metric: np.ndarray  # induced metric g0 (N, m, m)
    metric_inv: np.ndarray
    normal: np.ndarray  # (N, c)
    h: np.ndarray       # scalar second fundamental form, coords (N, m, m)
    H: np.ndarray       # (N,)
    rho: np.ndarray     # (N,)
    frame: np.ndarray   # induced-orthonormal frame coefficients F0 (N, m, m)

    @property
    def signs(self) -> np.ndarray:
        return self.chart.ambient.signature.signs

    def coframe(self) -> np.ndarray:
        return np.linalg.inv(self.frame)

    def h_frame(self) -> np.ndarray:
        return np.einsum("nai,nab,nbj->nij", self.frame, self.h, self.frame)


@dataclass
class ShapeData:
    """Per-point view of ShapeBatch with the documented fields."""

    u: np.ndarray
    x: np.ndarray
    induced_metric: np.ndarray
    normal: np.ndarray
    h: np.ndarray
    h_frame: np.ndarray
    H: float
    rho: float
    frame: np.ndarray
    coframe: np.ndarray


def _second_fundamental(
    chart: ImmersionChart,
    x: np.ndarray,
    dx: np.ndarray,
    d2x: np.ndarray,
    g0: np.ndarray,
    normal_sign: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oriented normal, h, g0^-1, H and rho^2 from the 2-jet and the metric.

    Raises RegularityError when the normal is not time-like or g0 is singular.
    """
    signs = chart.ambient.signature.signs
    rows = np.swapaxes(dx, 1, 2)  # (N, m, c)
    if chart.ambient.kind != LORENTZ_FLAT:
        rows = np.concatenate([rows, x[:, None, :]], axis=1)
    n = batched_normal(rows, signs) * normal_sign
    h = -np.einsum("nc,c,ncab->nab", n, signs, d2x)
    try:
        g0inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"induced metric singular: {exc}") from exc
    H = np.einsum("nab,nab->n", g0inv, h) / chart.m
    P = np.einsum("nab,nbc->nac", g0inv, h)  # |h|^2 = tr(g0^-1 h g0^-1 h)
    h2 = np.einsum("nab,nba->n", P, P)
    rho2 = chart.m / (chart.m - 1) * (h2 - chart.m * H**2)
    return n, h, g0inv, H, rho2


def shape_batch(
    chart: ImmersionChart,
    U: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    normal_sign: float = 1.0,
    check_regular: bool = True,
) -> ShapeBatch:
    """Induced metric, oriented normal, h, H, rho on a batch of points.

    normal_sign = -1 flips the deterministic orientation rule; h and H then
    negate while rho and the metric are unchanged.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return shape_from_jet(chart, U, chart.jet(U, 2), cfg, normal_sign, check_regular)


def shape_from_jet(
    chart: ImmersionChart,
    U: np.ndarray,
    jet: Jet,
    cfg: NumericsConfig = DEFAULT,
    normal_sign: float = 1.0,
    check_regular: bool = True,
) -> ShapeBatch:
    """shape_batch from an already evaluated jet of order >= 2."""
    x, dx, d2x = jet[0], jet[1], jet[2]
    signs = chart.ambient.signature.signs
    g0 = np.einsum("nci,c,ncj->nij", dx, signs, dx)
    n, h, g0inv, H, rho2 = _second_fundamental(chart, x, dx, d2x, g0, normal_sign)
    if check_regular and np.any(rho2 <= cfg.regularity_tol):
        raise RegularityError(
            "totally umbilic locus: conformal factor rho^2 = "
            f"{float(np.min(rho2)):.3e} is not positive"
        )
    rho = np.sqrt(np.maximum(rho2, 0.0))
    frame = triangular_frame(g0)
    return ShapeBatch(chart, U, x, dx, d2x, g0, g0inv, n, h, H, rho, frame)


def shape_data(
    chart: ImmersionChart,
    u: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    normal_sign: float = 1.0,
) -> ShapeData:
    """Single-point shape data (see ShapeBatch for the batched form)."""
    sb = shape_batch(chart, np.atleast_2d(u), cfg, normal_sign=normal_sign)
    return ShapeData(
        u=sb.U[0],
        x=sb.x[0],
        induced_metric=sb.metric[0],
        normal=sb.normal[0],
        h=sb.h[0],
        h_frame=sb.h_frame()[0],
        H=float(sb.H[0]),
        rho=float(sb.rho[0]),
        frame=sb.frame[0],
        coframe=sb.coframe()[0],
    )


@dataclass
class RegularityReport:
    """Grid diagnostics for the two regularity conditions."""

    chart: str
    n_points: int
    min_rho2: float
    min_metric_eig: float
    max_ambient_residual: float
    max_normal_residual: float
    regular: bool

    def to_dict(self) -> dict:
        return {
            "chart": self.chart,
            "n_points": self.n_points,
            "min_rho2": self.min_rho2,
            "min_metric_eig": self.min_metric_eig,
            "max_ambient_residual": self.max_ambient_residual,
            "max_normal_residual": self.max_normal_residual,
            "regular": self.regular,
        }


def validate_regularity(
    chart: ImmersionChart, U: np.ndarray, cfg: NumericsConfig = DEFAULT
) -> RegularityReport:
    """Report min rho^2, min induced-metric eigenvalue and ambient residuals.

    Never raises on degeneracy: the chart is flagged regular iff all sampled
    points pass both conditions (positive conformal factor, space-like and
    nondegenerate tangent frame).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    jet = chart.jet(U, 2)
    x, dx, d2x = jet[0], jet[1], jet[2]
    signs = chart.ambient.signature.signs
    g0 = np.einsum("nci,c,ncj->nij", dx, signs, dx)
    eigs = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, 1, 2)))
    min_eig = float(np.min(eigs))
    ambient = float(np.max(chart.ambient.quadric_residual(x)))
    try:
        n, _, _, _, rho2 = _second_fundamental(chart, x, dx, d2x, g0)
        min_rho2 = float(np.min(rho2))
        normal_resid = float(
            max(
                np.max(np.abs(pseudo_dot(n, n, signs) + 1.0)),
                np.max(np.abs(np.einsum("nc,c,nci->ni", n, signs, dx))),
            )
        )
    except RegularityError:
        min_rho2 = 0.0
        normal_resid = np.inf
    regular = (
        min_rho2 > cfg.regularity_tol
        and min_eig > cfg.regularity_tol
        and ambient <= (cfg.ambient_tol if chart.jet_mode == "analytic" else cfg.fd_tol)
    )
    return RegularityReport(
        chart=chart.name,
        n_points=U.shape[0],
        min_rho2=min_rho2,
        min_metric_eig=min_eig,
        max_ambient_residual=ambient,
        max_normal_residual=normal_resid,
        regular=bool(regular),
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def grid_points(box: Box, counts: Iterable[int], margin: float = 0.0) -> np.ndarray:
    """Cartesian product grid inset from the box boundary by `margin`."""
    counts = list(counts)
    if len(counts) == 1:
        counts = counts * box.dim
    if len(counts) != box.dim:
        raise ValidationError(f"need {box.dim} per-axis counts, got {len(counts)}")
    if any(c < 3 for c in counts):
        raise ValidationError("grid counts must be >= 3 per axis")
    lo, hi = box.arrays()
    if np.any(lo + 2 * margin >= hi):
        raise DomainError(f"margin {margin:.3e} leaves an empty domain")
    axes = [np.linspace(lo[i] + margin, hi[i] - margin, counts[i]) for i in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# chart files
# ---------------------------------------------------------------------------

# populated by the catalog module at import time
TEMPLATES: dict[str, Callable[..., ImmersionChart]] = {}


def register_template(name: str, builder: Callable[..., ImmersionChart]) -> None:
    TEMPLATES[name] = builder


def chart_to_dict(chart: ImmersionChart) -> dict:
    if chart.template is None:
        raise ValidationError(
            f"chart {chart.name!r} has no template name and cannot be serialized"
        )
    a = chart.ambient
    return {
        "name": chart.template,
        "m": chart.m,
        "ambient": {"kind": a.kind, "a": a.radius},
        "params": dict(chart.params),
        "domain": {"lo": list(chart.domain.lo), "hi": list(chart.domain.hi)},
        "jet": chart.jet_mode,
        "fd": {"step": chart.fd.step},
    }


def chart_from_dict(data: dict) -> ImmersionChart:
    """Chart from its file form; `params.lift` lifts the template's chart."""
    try:
        name = data["name"]
        m = int(data["m"])
        params = dict(data.get("params", {}))
        dom = data["domain"]
        jet_mode = data.get("jet", "analytic")
        fd_data = data.get("fd", {})
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed chart definition: {exc}") from exc
    builder = TEMPLATES.get(name)
    if builder is None:
        raise ValidationError(
            f"unknown chart template {name!r}; available: {sorted(TEMPLATES)}"
        )
    lift = params.pop("lift", None)
    chart = builder(m=m, **params)
    box = Box(tuple(float(v) for v in dom["lo"]), tuple(float(v) for v in dom["hi"]))
    # older files also carry the stencil accuracy "order", which the fit does
    # not read; it is still checked, so that a file refused then is refused now
    order = fd_data.get("order", 4)
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValidationError(f"FD accuracy order must be an integer >= 1, got {order!r}")
    fd = FDConfig(step=fd_data.get("step"))
    out = chart._replace(domain=box, jet_mode=jet_mode, fd=fd)
    if lift is not None:
        from .conformal_atlas import lift_chart

        out = lift_chart(out, lift)
    declared = data.get("ambient")
    if declared:
        if declared.get("kind") != out.ambient.kind:
            raise ValidationError(
                f"chart file declares ambient {declared.get('kind')!r} but template "
                f"{name!r} builds {out.ambient.kind!r}"
            )
    return out


def load_chart(path: str | Path) -> ImmersionChart:
    with open(path, "r", encoding="utf-8") as fh:
        return chart_from_dict(json.load(fh))


def save_chart(chart: ImmersionChart, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart_to_dict(chart), fh, indent=2, sort_keys=True)
        fh.write("\n")
