"""Parametrized hypersurface patches and their first/second fundamental data.

A chart is a map x: D subset R^m -> ambient space form, either a formula
(plain arithmetic over the coordinates, or sympy expressions compiled into
one; exact Taylor-series jets) or a bare evaluator (jets by least-squares
polynomial fits, fd.py); conformal_atlas.LiftedChart
composes a chart with a coordinate map of the conformal space.  Every jet
is a truncated Taylor series, and shape data are computed once, as series
of a jet (shape_series): from a jet of order K they carry order K - 2, and
the centre values (ShapeBatch) are their order-0 coefficients, so
shape_batch is that body on a 2-jet.  Shape data follows the conventions:

    h(X, Y) = <D_X n, Y>  = -<n, D_X D_Y x>      (time-like unit normal n)
    H       = (1/m) tr_{g0} h
    rho^2   = m/(m-1) (|h|^2 - m H^2)            (norms in the induced metric)

The centre normal is the generalized cross product of the tangent vectors
(and the position row on quadric ambients), normalized time-like, oriented
so that its first significant component is negative; its higher degrees
follow from it (taylor.normal).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

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
from .taylor import einsum

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


def _float_printer():
    """The printer lambdify picks for ExprFormula, except that it writes a
    sympy Float as the shortest repr of its double; sympy's own writes 15
    significant digits and so rounds constants like Float(sqrt(2))."""
    from sympy.printing.numpy import NumPyPrinter

    class FloatPrinter(NumPyPrinter):
        def _print_Float(self, expr):
            return repr(float(expr))

    return FloatPrinter({
        "fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True,
        "user_functions": {name: name for name in taylor.FUNCTIONS},
    })


class ExprFormula:
    """The formula of a chart given as sympy expressions (see ImmersionChart).

    The expressions and guard denominators are lambdified together on the
    first call into one function over numpy arrays and Taylor series (the
    series versions of the elementary functions come first in its
    namespace); sympy columns are substituted instead.  Copies of a chart
    share this object, so the compile happens once per expression set.
    """

    def __init__(self, name: str, exprs, syms, guards):
        self.name = name
        self.exprs = exprs
        self.syms = tuple(syms)
        self.guards = list(guards or [])
        self._fn: Callable | None = None
        self._series_ok = False

    def __call__(self, *cols) -> tuple[list, dict]:
        if taylor.is_sympy(cols[0]):
            subs = dict(zip(self.syms, cols))
            return (
                list(self.exprs.subs(subs, simultaneous=True)),
                {name: g.subs(subs, simultaneous=True) for name, g in self.guards},
            )
        if isinstance(cols[0], taylor.Series):
            self._check_series()
        if self._fn is None:
            import sympy as sp

            # lambdify gets the numpy module, not the name "numpy": the name
            # runs `from numpy import *`, which imports numpy.testing and f2py
            self._fn = sp.lambdify(
                self.syms,
                [list(self.exprs), [g for _, g in self.guards]],
                modules=[taylor.FUNCTIONS, np],
                printer=_float_printer(),
                cse=True,
            )
        comps, vals = self._fn(*cols)
        return comps, {name: v for (name, _), v in zip(self.guards, vals)}

    def _check_series(self) -> None:
        """Refuse expressions that Taylor series cannot evaluate."""
        if self._series_ok:
            return
        import sympy as sp

        exprs = [*self.exprs, *(g for _, g in self.guards)]
        funcs = set().union(*(e.atoms(sp.core.function.Application) for e in exprs))
        for f in sorted(funcs, key=str):
            if type(f).__name__ not in taylor.FUNCTIONS:
                raise ValidationError(
                    f"chart {self.name!r}: Taylor jets do not support the function "
                    f"{type(f).__name__!r}; use FD jets for this chart"
                )
        for p in set().union(*(e.atoms(sp.Pow) for e in exprs)):
            if not p.exp.is_number and not p.base.is_number:
                raise ValidationError(
                    f"chart {self.name!r}: Taylor jets do not support the power {p}"
                )
        self._series_ok = True


class ImmersionChart:
    """A hypersurface patch with derivative-jet access.

    A chart is given by a formula, by sympy expressions or by a bare
    evaluator.  A formula maps the m coordinate columns to (components,
    guards): the list of ambient components and a dict that names each
    denominator the chart divides by.  It is written with plain arithmetic
    and taylor's elementary functions, so the same callable takes numpy
    arrays (eval), Taylor series (exact analytic jets) and sympy symbols
    (`exprs` and `syms`, formed on access).  Sympy expressions become
    such a formula by lambdify on first use (ExprFormula); that and `exprs`
    are the only places a chart imports sympy.  Evaluator charts, and
    formula charts switched to FD jets, fit a polynomial to one evaluation
    on a sample cloud around each point and write its coefficients as the
    same series.  Instances are immutable by convention; the compiled form
    of sympy expressions is a cache, shared by the copies of a chart.
    """

    def __init__(
        self,
        name: str,
        m: int,
        ambient: AmbientForm,
        domain: Box,
        exprs=None,
        syms=None,
        eval_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        jet_mode: str = "analytic",
        fd: FDConfig | None = None,
        params: dict | None = None,
        template: str | None = None,
        guards: list | None = None,
        formula: Callable[..., tuple[list, dict]] | None = None,
        core=None,
    ):
        if domain.dim != m:
            raise ValidationError(f"domain dimension {domain.dim} != m={m}")
        if ambient.dim != m + 1:
            raise ValidationError(f"ambient dimension {ambient.dim} != m+1={m + 1}")
        if jet_mode not in ("analytic", "fd"):
            raise ValidationError(f"jet mode must be 'analytic' or 'fd', got {jet_mode!r}")
        if exprs is not None:
            if formula is not None:
                raise ValidationError("chart takes expressions or a formula, not both")
            if syms is None:
                raise ValidationError("chart expressions need their symbols")
            formula = ExprFormula(name, exprs, syms, guards)
        if formula is None and eval_fn is None:
            raise ValidationError("chart needs a formula, expressions or an evaluator")
        if jet_mode == "analytic" and formula is None:
            raise ValidationError("analytic jets require a formula or symbolic expressions")
        self.name = name
        self.m = m
        self.ambient = ambient
        self.domain = domain
        self._formula = formula
        self._eval_fn = eval_fn
        self.jet_mode = jet_mode
        self.fd = fd or FDConfig()
        self.params = dict(params or {})
        self.template = template
        # the maximal core of an assembled catalog example (catalog.make_example)
        self.core = core

    # -- evaluation ---------------------------------------------------------

    @property
    def n_comps(self) -> int:
        return self.ambient.embedding_dim

    @property
    def exprs(self):
        """The components as a sympy Matrix; None for evaluator charts."""
        return self._sympy_form()[0]

    @property
    def syms(self) -> tuple | None:
        """The sympy symbols of the coordinates in `exprs`."""
        return self._sympy_form()[1]

    def _sympy_form(self) -> tuple:
        """(exprs, syms); a plain formula is run on sympy symbols each time."""
        if self._formula is None:
            return None, None
        if isinstance(self._formula, ExprFormula):
            return self._formula.exprs, self._formula.syms
        import sympy as sp

        syms = sp.symbols(f"u0:{self.m}")
        return sp.Matrix(self._formula(*syms)[0]), syms

    def _components(self, cols: list) -> list:
        """The formula's components at the columns; raises where a guard
        denominator (its centre value, for series) vanishes."""
        comps, guards = self._formula(*cols)
        for name, g in guards.items():
            centre = g.value if isinstance(g, taylor.Series) else g
            if np.any(np.abs(np.asarray(centre, dtype=float)) < 1e-12):
                raise ChartDomainError(
                    f"chart {self.name!r}: denominator {name!r} vanishes at a requested point"
                )
        return comps

    def eval(self, U: np.ndarray) -> np.ndarray:
        """Evaluate the immersion on a batch U (N, m) -> (N, comps)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.m:
            raise DimensionMismatchError(f"points have {U.shape[1]} coords, chart expects {self.m}")
        if self._formula is None:
            return np.asarray(self._eval_fn(U), dtype=float)
        comps = self._components([U[:, i] for i in range(self.m)])
        return np.stack([np.broadcast_to(np.asarray(c, dtype=float), (U.shape[0],)) for c in comps], axis=1)

    def _taylor_series(self, U: np.ndarray, order: int) -> taylor.Series:
        """Taylor series of x around each point of U, shape (N, comps)."""
        N = U.shape[0]
        out = self._components(taylor.Series.variables(U, order))
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

    def jet(self, U: np.ndarray, order: int) -> taylor.Series:
        """Taylor series of x up to `order` (<= 5) around each point of U.

        Analytic charts run their formula on series; FD charts take the
        coefficients of the least-squares polynomial fitted around each
        point (fd.fit_series).
        """
        if not (0 <= order <= 5):
            raise ValidationError(f"jet order must be within 0..5, got {order}")
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.jet_mode == "analytic":
            return self._taylor_series(U, order)
        margin = self.fd_margin()
        if not self.domain.contains(U, margin=margin):
            raise DomainError(
                f"chart {self.name!r}: FD jets need margin {margin:.3e} inside the domain"
            )
        return fit_series(self.eval, U, margin, order)

    # -- transforms ---------------------------------------------------------

    def reparametrized(self, A: np.ndarray, b: np.ndarray, name: str | None = None) -> "ImmersionChart":
        """Chart composed with the affine parameter change u = A v + b.

        Only charts with a formula support this.  The new domain is the
        bounding box of the preimage of the old one (a parallelotope), so
        boundary margins are advisory near the corners.
        """
        if self._formula is None:
            raise ValidationError("reparametrization requires a formula or symbolic chart")
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        base, rows, shift = self._formula, A.tolist(), b.tolist()

        def formula(*v):
            return base(*(sum((a * vj for a, vj in zip(row, v)), s) for row, s in zip(rows, shift)))

        Ainv = np.linalg.inv(A)
        lo, hi = self.domain.arrays()
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        pre = (corners - b) @ Ainv.T
        dom = Box(tuple(pre.min(axis=0)), tuple(pre.max(axis=0)))
        return self._replace(
            name=name or f"{self.name}~affine", domain=dom, formula=formula, eval_fn=None
        )

    def with_jet_mode(self, jet_mode: str, fd: FDConfig | None = None) -> "ImmersionChart":
        return self._replace(jet_mode=jet_mode, fd=fd or self.fd)

    def _replace(self, **changes) -> "ImmersionChart":
        """The chart rebuilt with some constructor arguments changed; it
        keeps the formula object, and with it any compiled form."""
        args = dict(
            name=self.name, m=self.m, ambient=self.ambient, domain=self.domain,
            formula=self._formula, eval_fn=self._eval_fn, jet_mode=self.jet_mode, fd=self.fd,
            params=self.params, template=self.template, core=self.core,
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


@dataclass
class ShapeSeries:
    """Shape data as Taylor series around the points, all of one order, and
    their centre values as a ShapeBatch."""

    sb: ShapeBatch
    x: taylor.Series
    g0: taylor.Series
    n: taylor.Series
    h: taylor.Series
    g0inv: taylor.Series
    H: taylor.Series
    h2: taylor.Series       # |h|^2 in the induced metric
    rho2: taylor.Series


def shape_series(
    chart: ImmersionChart,
    U: np.ndarray,
    jet: taylor.Series,
    cfg: NumericsConfig = DEFAULT,
    normal_sign: float = 1.0,
    check_regular: bool = True,
) -> ShapeSeries:
    """Shape data of any ambient form from a jet of order K >= 2.

    h needs the second jet of x, so every series carries order K - 2; the
    ShapeBatch holds their order-0 coefficients.  Raises RegularityError
    when the normal is not time-like, when g0 is singular and, with
    `check_regular`, on the totally umbilic locus rho^2 <= regularity_tol.
    """
    signs = chart.ambient.signature.signs
    m = chart.m
    k = jet.order - 2
    dx = jet.grad()
    d2x = dx.grad()
    x, dx = jet.truncate(k), dx.truncate(k)
    g0 = einsum("nci,c,ncj->nij", dx, signs, dx)
    rows = dx.transpose((0, 2, 1))
    if chart.ambient.kind != LORENTZ_FLAT:
        rows = taylor.concatenate([rows, x[:, None, :]], axis=1)
    n = taylor.normal(rows, signs, batched_normal(rows.value, signs) * normal_sign)
    h = -einsum("nc,c,ncab->nab", n, signs, d2x)
    try:
        g0inv = taylor.inv(g0)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"induced metric singular: {exc}") from exc
    P = einsum("nab,nbc->nac", g0inv, h)  # the shape operator
    H = einsum("naa->n", P) / m
    h2 = einsum("nab,nba->n", P, P)
    rho2 = m / (m - 1) * (h2 - m * H**2)
    if check_regular and np.any(rho2.value <= cfg.regularity_tol):
        raise RegularityError(
            "totally umbilic locus: conformal factor rho^2 = "
            f"{float(np.min(rho2.value)):.3e} is not positive"
        )
    sb = ShapeBatch(
        chart, U, x.value, dx.value, d2x.value, g0.value, g0inv.value, n.value, h.value, H.value,
        np.sqrt(np.maximum(rho2.value, 0.0)), triangular_frame(g0.value),
    )
    return ShapeSeries(sb, x, g0, n, h, g0inv, H, h2, rho2)


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
    return shape_series(chart, U, chart.jet(U, 2), cfg, normal_sign, check_regular).sb


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
    return regularity_from_jet(chart, U, chart.jet(U, 2), cfg)


def regularity_from_jet(
    chart: ImmersionChart, U: np.ndarray, jet: taylor.Series, cfg: NumericsConfig = DEFAULT
) -> RegularityReport:
    """validate_regularity from an already evaluated jet of order >= 2."""
    dx = jet.grad().value
    signs = chart.ambient.signature.signs
    g0 = np.einsum("nci,c,ncj->nij", dx, signs, dx)
    eigs = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, 1, 2)))
    min_eig = float(np.min(eigs))
    ambient = float(np.max(chart.ambient.quadric_residual(jet.value)))
    try:
        s = shape_series(chart, U, jet.truncate(2), cfg, check_regular=False)
        n = s.n.value
        min_rho2 = float(np.min(s.rho2.value))
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
    step = fd_data.get("step")
    real = isinstance(step, (int, float)) and not isinstance(step, bool)
    if step is not None and (not real or math.isnan(step)):
        raise ValidationError(f"FD step must be a real number or null, got {step!r}")
    fd = FDConfig(step=step)
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
