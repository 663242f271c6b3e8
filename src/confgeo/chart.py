"""Parametrized hypersurface patches and their first/second fundamental data.

A chart is a map x: D subset R^m -> ambient space form, either a formula
(plain arithmetic over the coordinates, or sympy expressions compiled into
one; exact Taylor-series jets) or a bare evaluator (jets by least-squares
polynomial fits, fd.py); conformal_atlas.LiftedChart
composes a chart with a coordinate map of the conformal space.  Every jet
is a truncated Taylor series, and shape data are computed once, as series
of a jet (shape_series): from a jet of order K they carry order K - 2, and
their order-0 coefficients are the centre values, so shape_batch is that
body on a 2-jet.  Shape data follows the conventions:

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

from .config import GUARD_TOL, UNIT_RADIUS_TOL, NumericsConfig, check_positive
from .errors import (
    ChartDomainError,
    DimensionMismatchError,
    DomainError,
    InputError,
    RegularityError,
    ValidationError,
)
from . import taylor
from .fd import MAX_ORDER, default_reach, fit_series
from .pseudo_linalg import batched_normal, form_signs, pseudo_dot
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

    def check_unit(self, chart_name: str) -> None:
        """Refuse a quadric whose radius is more than UNIT_RADIUS_TOL off 1:
        the invariants, the frame route and the lifts work in unit space
        forms (the flat form has no radius)."""
        if self.kind != LORENTZ_FLAT and abs(self.radius - 1.0) > UNIT_RADIUS_TOL:
            raise ValidationError(
                f"chart {chart_name!r} lies in the {self.kind} form of radius {self.radius!r}; "
                "conformal invariants and lifts need its unit form"
            )

    @property
    def embedding_dim(self) -> int:
        return self.dim if self.kind == LORENTZ_FLAT else self.dim + 1

    @property
    def signs(self) -> np.ndarray:
        """diag of the ambient form on R^{embedding_dim}."""
        return form_signs(2 if self.kind == ANTI_DE_SITTER else 1, self.embedding_dim)

    @property
    def quadric_value(self) -> float | None:
        if self.kind == DE_SITTER:
            return self.radius**2
        if self.kind == ANTI_DE_SITTER:
            return -(self.radius**2)
        return None

    @property
    def curvature(self) -> float:
        """Sectional curvature: 1/quadric_value on a quadric <x,x> = q (the
        position x is normal to it with D_X x = X, so the Gauss equation
        gives <R(X,Y)Y,X> = (<X,X><Y,Y> - <X,Y>^2)/q), 0 on the flat form."""
        q = self.quadric_value
        return 0.0 if q is None else 1.0 / q

    def quadric_residual(self, x: np.ndarray) -> np.ndarray:
        """|<x,x> - quadric constant| per point; zeros for the flat form."""
        if self.kind == LORENTZ_FLAT:
            return np.zeros(x.shape[0])
        return np.abs(pseudo_dot(x, x, self.signs) - self.quadric_value)


@dataclass(frozen=True)
class Box:
    """Axis-aligned parameter domain."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValidationError("domain lo/hi length mismatch")
        if not all(-math.inf < l < h < math.inf for l, h in zip(self.lo, self.hi)):
            raise ValidationError("domain requires finite lo < hi per axis")

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
    same series.  `fd_step` is the reach of that cloud, its largest offset
    along each parameter axis: a finite number > 0 (checked on
    construction), or None for fd.default_reach of the chart's dimension
    (0.1, and 0.15 at m = 4).  Instances are immutable by convention; the
    compiled form of sympy expressions is a cache, shared by the copies of
    a chart.
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
        fd_step: float | None = None,
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
        if fd_step is not None:
            check_positive("FD step", fd_step)
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
        self.fd_step = fd_step
        self.params = dict(params or {})
        self.template = template
        # the maximal core of an assembled catalog example (catalog.make_example)
        self.core = core

    # -- evaluation ---------------------------------------------------------

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
        try:
            import sympy as sp
        except ImportError as exc:
            raise ImportError(
                f"chart {self.name!r}: its expressions need sympy; install confgeo[sympy]"
            ) from exc

        syms = sp.symbols(f"u0:{self.m}")
        return sp.Matrix(self._formula(*syms)[0]), syms

    def _components(self, cols: list) -> list:
        """The formula's components at the columns; raises where a guard
        denominator (its centre value, for series) is below GUARD_TOL in
        absolute value."""
        comps, guards = self._formula(*cols)
        for name, g in guards.items():
            if np.any(np.abs(np.asarray(taylor.centre(g), dtype=float)) < GUARD_TOL):
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
        return default_reach(self.m) if self.fd_step is None else self.fd_step

    # -- jets ---------------------------------------------------------------

    def jet(self, U: np.ndarray, order: int) -> taylor.Series:
        """Taylor series of x up to `order` (<= fd.MAX_ORDER) around each point of U.

        Analytic charts run their formula on series; FD charts take the
        coefficients of the least-squares polynomial fitted around each
        point (fd.fit_series).
        """
        if not (0 <= order <= MAX_ORDER):
            raise ValidationError(f"jet order must be within 0..{MAX_ORDER}, got {order}")
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
        boundary margins are advisory near the corners.  It has no template,
        as a chart file cannot record the affine map.
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
            name=name or f"{self.name}~affine", domain=dom, formula=formula, eval_fn=None, template=None
        )

    def with_jet_mode(self, jet_mode: str, fd_step: float | None = None) -> "ImmersionChart":
        """The chart with another jet mode; fd_step None keeps its step."""
        return self._replace(jet_mode=jet_mode, fd_step=self.fd_step if fd_step is None else fd_step)

    def _replace(self, **changes) -> "ImmersionChart":
        """The chart rebuilt with some constructor arguments changed; it
        keeps the formula object, and with it any compiled form."""
        args = dict(
            name=self.name, m=self.m, ambient=self.ambient, domain=self.domain,
            formula=self._formula, eval_fn=self._eval_fn, jet_mode=self.jet_mode, fd_step=self.fd_step,
            params=self.params, template=self.template, core=self.core,
        )
        return ImmersionChart(**{**args, **changes})


# ---------------------------------------------------------------------------
# shape data
# ---------------------------------------------------------------------------


@dataclass
class ShapeSeries:
    """Shape data as Taylor series around the points, all of one order; the
    centre values are their order-0 coefficients (`.value`)."""

    x: taylor.Series        # (N, c)
    g0: taylor.Series       # induced metric (N, m, m)
    n: taylor.Series        # oriented time-like unit normal (N, c)
    h: taylor.Series        # scalar second fundamental form, coords (N, m, m)
    g0inv: taylor.Series
    H: taylor.Series        # (N,)
    h2: taylor.Series       # |h|^2 in the induced metric
    rho2: taylor.Series


def shape_series(chart: ImmersionChart, jet: taylor.Series) -> ShapeSeries:
    """Shape data of any ambient form from a jet of order K >= 2.

    h needs the second jet of x, so every series carries order K - 2.
    Raises RegularityError when the normal is not time-like or when g0 or
    the normal system is singular.  Shape data exist on the totally umbilic
    locus rho^2 = 0 too; the stages that take rho or log rho refuse it
    (invariants._refuse_umbilic).
    """
    signs = chart.ambient.signs
    m = chart.m
    k = jet.order - 2
    dx = jet.grad()
    d2x = dx.grad()
    x, dx = jet.truncate(k), dx.truncate(k)
    g0 = einsum("nci,c,ncj->nij", dx, signs, dx)
    rows = dx.transpose((0, 2, 1))
    if chart.ambient.kind != LORENTZ_FLAT:
        rows = taylor.concatenate([rows, x[:, None, :]], axis=1)
    try:
        n = taylor.normal(rows, signs, batched_normal(rows.value, signs))
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"normal system singular: {exc}") from exc
    h = -einsum("nc,c,ncab->nab", n, signs, d2x)
    try:
        g0inv = taylor.inv(g0)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"induced metric singular: {exc}") from exc
    P = einsum("nab,nbc->nac", g0inv, h)  # the shape operator
    H = einsum("naa->n", P) / m
    h2 = einsum("nab,nba->n", P, P)
    rho2 = m / (m - 1) * (h2 - m * H**2)
    return ShapeSeries(x, g0, n, h, g0inv, H, h2, rho2)


def shape_batch(chart: ImmersionChart, U: np.ndarray) -> ShapeSeries:
    """Shape data at a batch of points: the order-0 ShapeSeries of a 2-jet,
    whose `.value`s are the induced metric, normal, h, H and rho^2 at U."""
    return shape_series(chart, chart.jet(U, 2))


@dataclass
class RegularityReport:
    """Grid diagnostics for the two regularity conditions."""

    chart: str
    min_rho2: float
    min_metric_eig: float
    max_ambient_residual: float
    regular: bool


def validate_regularity(chart: ImmersionChart, U: np.ndarray) -> RegularityReport:
    """Report min rho^2, min induced-metric eigenvalue and ambient residuals.

    Never raises on degeneracy: the chart is flagged regular iff all sampled
    points pass both conditions (positive conformal factor, space-like and
    nondegenerate tangent frame).
    """
    return regularity_from_jet(chart, chart.jet(U, 2))


def regularity_from_jet(chart: ImmersionChart, jet: taylor.Series) -> RegularityReport:
    """validate_regularity from an already evaluated jet of order >= 2."""
    # the centre tangents are the order-1 coefficients: differentiate only those
    dx = jet.truncate(1).grad().value
    signs = chart.ambient.signs
    g0 = np.einsum("nci,c,ncj->nij", dx, signs, dx)
    eigs = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, 1, 2)))
    min_eig = float(np.min(eigs))
    ambient = float(np.max(chart.ambient.quadric_residual(jet.value)))
    try:
        min_rho2 = float(np.min(shape_series(chart, jet.truncate(2)).rho2.value))
    except RegularityError:
        min_rho2 = 0.0
    reg_tol = NumericsConfig.regularity_tol
    ambient_tol = NumericsConfig.ambient_tol if chart.jet_mode == "analytic" else NumericsConfig.fd_tol
    regular = min_rho2 > reg_tol and min_eig > reg_tol and ambient <= ambient_tol
    return RegularityReport(
        chart=chart.name,
        min_rho2=min_rho2,
        min_metric_eig=min_eig,
        max_ambient_residual=ambient,
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
        "fd": {"step": chart.fd_step},
    }


def _malformed(detail) -> ValidationError:
    return ValidationError(f"malformed chart definition: {detail}")


def chart_from_dict(data: dict) -> ImmersionChart:
    """Chart from its file form, built by catalog.build_instance from its
    parameters (catalog.PARAMETERS) and the defaults of those it leaves out;
    `params.lift` lifts it.  A value of the wrong type or form, or a domain
    of the wrong length, is refused before the chart is built."""
    try:
        name = str(data["name"])
        m = data["m"]
        params = data.get("params", {})
        dom = data["domain"]
        box = Box(tuple(float(v) for v in dom["lo"]), tuple(float(v) for v in dom["hi"]))
        jet_mode = data.get("jet", "analytic")
        fd_data = data.get("fd", {})
        declared = data.get("ambient") or {}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _malformed(exc) from exc
    for key, value in (("params", params), ("fd", fd_data), ("ambient", declared)):
        if not isinstance(value, dict):
            raise _malformed(f"{key!r} must be an object, got {value!r}")
    params = dict(params)
    lift = params.pop("lift", None)
    if lift is not None and not isinstance(lift, str):
        raise _malformed(f"lift must be a map name, got {lift!r}")
    if "m" in params:
        raise _malformed("'m' belongs at the top level, not in params")
    if m is None:
        raise _malformed("'m' must be given, got null")
    # older files also carry the stencil accuracy "order", which the fit does
    # not read; it is still checked, so that a file refused then is refused now
    order = fd_data.get("order", 4)
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValidationError(f"FD accuracy order must be an integer >= 1, got {order!r}")
    step = fd_data.get("step")
    if step is not None and not _is_double(step):
        raise ValidationError(f"FD step must be a real number or null, got {step!r}")
    from .catalog import build_instance, family_parameters

    params = family_parameters(name, {**params, "m": m})
    if box.dim != params["m"]:
        raise ValidationError(f"domain dimension {box.dim} != m={params['m']}")
    out = build_instance(name, **params)._replace(domain=box, jet_mode=jet_mode, fd_step=step)
    if lift is not None:
        from .conformal_atlas import lift_chart

        out = lift_chart(out, lift)
    if declared and declared.get("kind") != out.ambient.kind:
        raise ValidationError(
            f"chart file declares ambient {declared.get('kind')!r} but template "
            f"{name!r} builds {out.ambient.kind!r}"
        )
    radius = declared.get("a", out.ambient.radius)
    if not (_is_double(radius) and abs(radius - out.ambient.radius) <= UNIT_RADIUS_TOL):
        raise ValidationError(
            f"chart file declares ambient radius {radius!r} but template "
            f"{name!r} builds {out.ambient.radius!r}"
        )
    return out


def _is_double(value) -> bool:
    """A JSON number, not a bool, that is not NaN and fits a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return not math.isnan(value)
    except OverflowError:
        return False


def load_chart(path: str | Path) -> ImmersionChart:
    """Chart from a JSON chart file; an unreadable file or invalid JSON
    raises InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read chart file {str(path)!r}: {exc}") from exc
    return chart_from_dict(data)


def save_chart(chart: ImmersionChart, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart_to_dict(chart), fh, indent=2, sort_keys=True)
        fh.write("\n")
