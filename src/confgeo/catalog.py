"""Catalog of hypersurfaces with parallel Blaschke tensor.

Families:

    hxr   H^k x R^{m-k}                          in the Lorentz flat form
    sxh   S^{m-k}(a) x H^k(-1/(a^2-1)), a > 1    in the unit de Sitter
    hxh   H^k(-1/a^2) x H^{m-k}(-1/(1-a^2))      in the unit anti-de Sitter
    wp    warped-product cone (t u', t u'', u''') in the Lorentz flat form
    ex33  assembled from a maximal core in an anti-de Sitter quadric times
          a round sphere, divided by the leading light-cone coordinate
    ex32  the de Sitter-core analogue of ex33 (see make_example: the only
          closed-form core family admits no maximal member, so construction
          reports the obstruction instead of a chart)

All catalog charts are plain formulas (see chart.ImmersionChart) with exact
Taylor-series jets; building or evaluating them loads no sympy.  Parameter
orderings put the block structure of the invariants first-to-last in the
frame.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import taylor
from .chart import (
    ANTI_DE_SITTER,
    DE_SITTER,
    LORENTZ_FLAT,
    AmbientForm,
    Box,
    ImmersionChart,
    grid_points,
    shape_series,
)
from .config import CORE_RADIUS_TOL, TOTALLY_GEODESIC_TOL
from .errors import ConstructionError, ValidationError


# ---------------------------------------------------------------------------
# factor parametrizations
# ---------------------------------------------------------------------------

def sphere_components(radius, angles) -> list:
    """S^p(radius) in R^{p+1}; nested angles, p = len(angles).

    Radius and angles may be numbers, numpy arrays, Taylor series or sympy
    expressions: taylor's functions take all of them, so one formula gives
    values, exact jets and symbolic components.
    """
    comps, running = [], radius
    for th in angles:
        comps.append(running * taylor.cos(th))
        running = running * taylor.sin(th)
    comps.append(running)
    return comps


def hyperbolic_components(radius, params) -> list:
    """H^k(-1/radius^2) in R^{k+1} with one leading time slot, k = len(params)."""
    if not len(params):
        return [radius]
    t0 = params[0]
    return [radius * taylor.cosh(t0)] + sphere_components(radius * taylor.sinh(t0), params[1:])


def _two_hyperbolic(a: float, b: float, k: int):
    """Formula of H^k(-1/a^2) x H^{m-k}(-1/b^2), the two time slots first."""

    def formula(*u):
        w = hyperbolic_components(a, u[:k])
        z = hyperbolic_components(b, u[k:])
        return [w[0], z[0], *w[1:], *z[1:]], {}

    return formula


# (lo, hi) of the first and of every further coordinate in the box of a
# sphere factor's angles and of a hyperbolic factor's parameters
_ANGLES = ((0.9, 1.7), (0.25, 1.05))
_HYPERBOLIC = ((0.35, 0.95), (0.3, 1.0))


def _box(count: int, first: tuple[float, float], rest: tuple[float, float]):
    """(los, his) of a factor with `count` coordinates: the range `first`
    for its first coordinate and `rest` for the others."""
    ranges = [first if i == 0 else rest for i in range(count)]
    return [lo for lo, _ in ranges], [hi for _, hi in ranges]


# ---------------------------------------------------------------------------
# product families
# ---------------------------------------------------------------------------

def _check_range(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _warp_radius(family: str, a: float) -> float:
    """b = sqrt(a^2 - 1) of the sxh and wp families; a must exceed 1 and b be finite."""
    _check_range(a > 1, f"{family} requires a > 1, got a={a}")
    _check_range(math.isfinite(a * a), f"{family} requires a finite sqrt(a^2 - 1), got a={a}")
    return math.sqrt(a**2 - 1)


def _split(family: str, m: int, k: int) -> None:
    """Check (m, k) of a split product of a k- and an (m-k)-dimensional factor."""
    _check_range(m >= 2, f"{family} requires m >= 2, got m={m}")
    _check_range(1 <= k <= m - 1, f"{family} requires 1 <= k <= m-1, got k={k}, m={m}")


def _split_product(family: str, m: int, k: int, kind: str, lo: list, hi: list, formula, **params):
    """The chart of a split product in the unit form `kind`; its name shows
    the parameters as passed, its params hold them as floats."""
    shown = "".join(f",{key}={value}" for key, value in params.items())
    return ImmersionChart(
        f"{family}(m={m},k={k}{shown})",
        m,
        AmbientForm(kind, m + 1),
        Box(tuple(lo), tuple(hi)),
        formula=formula,
        params={"k": k, **{key: float(value) for key, value in params.items()}},
        template=family,
    )


def make_hxr(m: int, k: int) -> ImmersionChart:
    """H^k x R^{m-k} in the Lorentz flat form R^{m+1} (1 time slot)."""
    _split("hxr", m, k)

    def formula(*u):
        return hyperbolic_components(1.0, u[:k]) + list(u[k:]), {}

    lo_t, hi_t = _box(k, *_HYPERBOLIC)
    # flat coordinates stay away from |v| = 0: the flat-form embedding is
    # singular there (1 + <u,u> = |v|^2 for this chart)
    return _split_product(
        "hxr", m, k, LORENTZ_FLAT, lo_t + [0.65] * (m - k), hi_t + [1.45] * (m - k), formula
    )


def make_sxh(m: int, k: int, a: float) -> ImmersionChart:
    """S^{m-k}(a) x H^k(-1/(a^2-1)) in the unit de Sitter quadric."""
    _split("sxh", m, k)
    b = _warp_radius("sxh", a)

    def formula(*u):
        return hyperbolic_components(b, u[:k]) + sphere_components(a, u[k:]), {}

    lo_t, hi_t = _box(k, *_HYPERBOLIC)
    lo_s, hi_s = _box(m - k, *_ANGLES)
    return _split_product("sxh", m, k, DE_SITTER, lo_t + lo_s, hi_t + hi_s, formula, a=a)


def make_hxh(m: int, k: int, a: float) -> ImmersionChart:
    """H^k(-1/a^2) x H^{m-k}(-1/(1-a^2)) in the unit anti-de Sitter quadric.

    Canonical slots: the two time coordinates of the factors come first.
    """
    _split("hxh", m, k)
    _check_range(0 < a < 1, f"hxh requires 0 < a < 1, got a={a}")
    lo_w, hi_w = _box(k, *_HYPERBOLIC)
    lo_z, hi_z = _box(m - k, *_HYPERBOLIC)
    formula = _two_hyperbolic(a, math.sqrt(1 - a**2), k)
    return _split_product("hxh", m, k, ANTI_DE_SITTER, lo_w + lo_z, hi_w + hi_z, formula, a=a)


def make_wp(m: int, p: int, q: int, a: float) -> ImmersionChart:
    """Warped-product cone u = (t u', t u'', u''') in the Lorentz flat form.

    u' runs over H^q(-1/(a^2-1)), u'' over S^p(a), t > 0, and u''' over the
    flat factor R^{m-p-q-1}.  Exactly three distinct conformal principal
    curvatures; both invariant tensors are parallel.
    """
    _check_range(p >= 1 and q >= 1, f"wp requires p, q >= 1, got p={p}, q={q}")
    _check_range(p + q < m, f"wp requires p + q < m, got p+q={p + q}, m={m}")
    b = _warp_radius("wp", a)

    def formula(*u):
        # coordinates: those of u', those of u'', t, those of the flat factor
        t = u[q + p]
        cone = hyperbolic_components(b, u[:q]) + sphere_components(a, u[q:q + p])
        return [t * c for c in cone] + list(u[q + p + 1:]), {}

    lo_s, hi_s = _box(q, (0.1, 1.1), _HYPERBOLIC[1])
    lo_p, hi_p = _box(p, (0.2, 1.3), _ANGLES[1])
    lo = lo_s + lo_p + [0.7] + [-0.55] * (m - p - q - 1)
    hi = hi_s + hi_p + [1.8] + [0.55] * (m - p - q - 1)
    return ImmersionChart(
        f"wp(m={m},p={p},q={q},a={a})",
        m,
        AmbientForm(LORENTZ_FLAT, m + 1),
        Box(tuple(lo), tuple(hi)),
        formula=formula,
        params={"p": p, "q": q, "a": float(a)},
        template="wp",
    )


# ---------------------------------------------------------------------------
# assembled examples with maximal cores
# ---------------------------------------------------------------------------

@dataclass
class CoreHypersurface:
    """Maximal space-like core inside the radius-r quadric that is its chart's ambient.

    The closed-form family used here is the two-factor cylinder with radii
    b1, b2 tied to the quadric radius r; the mean curvature vanishes iff the
    two principal-curvature groups balance, which the anti-de Sitter quadric
    admits and the de Sitter quadric does not (same-sign curvatures).
    """

    K: int
    r: float
    b1: float
    b2: float
    chart: ImmersionChart
    target_h2: float     # required |h|^2 = (m-1)/m of the assembly

    def expected_scalar_curvature(self) -> float:
        """K(K-1) c + |h|^2 of a maximal core, c the curvature of its quadric."""
        return self.K * (self.K - 1) * self.chart.ambient.curvature + self.target_h2


def _core_box(count: int):
    """Box of one core factor H^count.  A 1-dimensional factor is a
    hyperbola, regular through its vertex at 0; in higher dimension the first
    coordinate is polar, and its box stays off the pole at 0."""
    return _box(count, (-0.45, 0.45), _HYPERBOLIC[1]) if count == 1 else _box(count, *_HYPERBOLIC)


def _ads_core(m: int, K: int, j: int, r: float | None) -> CoreHypersurface:
    """Maximal cylinder H^j x H^{K-j} inside the anti-de Sitter quadric of radius r.

    Maximality fixes b1^2 = r^2 j/K, b2^2 = r^2 (K-j)/K; then |h|^2 = K/r^2,
    and |h|^2 = (m-1)/m gives r = sqrt(m K / (m-1)).
    """
    target = (m - 1) / m
    solved = math.sqrt(m * K / (m - 1))
    if r is None:
        r = solved
    else:
        excess = K / r / r - target
        if abs(excess) > CORE_RADIUS_TOL:
            raise ValidationError(
                f"core radius r={r} violates the squared-norm constraint "
                f"|h|^2 = (m-1)/m by {excess:.3e}; solved value is {solved:.12g}"
            )
    b1 = r * math.sqrt(j / K)
    b2 = r * math.sqrt((K - j) / K)
    lo_w, hi_w = _core_box(j)
    lo_z, hi_z = _core_box(K - j)
    chart = ImmersionChart(
        f"core-ads(K={K},j={j},r={r:.6g})",
        K,
        AmbientForm(ANTI_DE_SITTER, K + 1, r),
        Box(tuple(lo_w + lo_z), tuple(hi_w + hi_z)),
        formula=_two_hyperbolic(b1, b2, j),
        params={"j": j, "r": r},
        template=None,
    )
    return CoreHypersurface(K, r, b1, b2, chart, target)


def _ds_core_obstruction(K: int, j: int) -> str:
    """Quantify why the de Sitter cylinder family is never maximal.

    Both principal-curvature groups of H^j x S^{K-j} inside a de Sitter
    quadric carry the same sign.  At r = 1 the radii satisfy b2^2 = 1 + b1^2,
    so x = b2 / b1 > 1 and K |H| = j x + (K-j) / x.  Over the radius split
    its infimum is 2 sqrt(j (K-j)) when j < K - j, attained at
    x^2 = (K-j) / j, and K otherwise, approached as b1 -> infinity; the
    note reports |H| = infimum / K.  For K = 2 no core of any shape exists: the
    forced principal curvatures +-c are constant, the trace-free Codazzi
    equations then make the induced metric flat, while the Gauss equation
    demands curvature 1/r^2 + c^2 > 0.
    """
    h_inf = 2 * math.sqrt(j * (K - j)) / K if j < K - j else 1.0
    note = (
        f"minimal attainable |H| over the cylinder family is {h_inf:.6g} (at r=1 scale), "
        "never zero: both curvature groups share a sign inside a de Sitter quadric."
    )
    if K == 2:
        note += (
            " For K=2 the required core cannot exist at all: tr h = 0 and "
            "|h|^2 = (m-1)/m force constant principal curvatures +-c, the "
            "Codazzi equations then force a flat induced metric, and the "
            "Gauss equation gives the contradiction 1/r^2 + c^2 = 0."
        )
    return note


def make_example(
    family: str,
    m: int,
    K: int,
    split: int = 1,
    r: float | None = None,
) -> ImmersionChart:
    """Assembled hypersurface (core, round factor) / leading light-cone slot.

    ex33: core = maximal cylinder in the anti-de Sitter quadric of radius r,
    round factor = S^{m-K}(r); the chart is x = (y1, y2) / y0 into the unit
    de Sitter, where y0 is the leading (positive) core coordinate.

    ex32 would need a maximal core inside a de Sitter quadric; the only
    closed-form candidates (two-factor cylinders) are never maximal, so a
    ConstructionError carrying the obstruction note of _ds_core_obstruction
    is raised.
    """
    family = family.lower()
    _check_range(family in ("ex32", "ex33"), f"unknown example family {family!r}")
    _check_range(m >= 3, f"{family} requires m >= 3, got m={m}")
    _check_range(2 <= K <= m - 1, f"{family} requires 2 <= K <= m-1, got K={K}, m={m}")
    _check_range(1 <= split <= K - 1, f"{family} requires 1 <= split <= K-1, got split={split}")
    if r is not None:
        _check_range(r > 0, f"{family} requires r > 0, got r={r}")

    if family == "ex32":
        raise ConstructionError(
            "ex32 core construction infeasible: " + _ds_core_obstruction(K, split)
        )

    core = _ads_core(m, K, split, r)
    rr = core.r
    core_formula = _two_hyperbolic(core.b1, core.b2, split)

    def formula(*u):
        y, _ = core_formula(*u[:K])  # canonical (w0, z0, w_vec, z_vec)
        y0 = y[0]                    # leading time slot, = b1 cosh(s0) > 0
        inv = 1 / y0
        # remaining core slots, one time slot first, then the round factor
        comps = [c * inv for c in y[1:] + sphere_components(rr, u[K:])]
        return comps, {"leading core coordinate": y0}

    lo = list(core.chart.domain.lo)
    hi = list(core.chart.domain.hi)
    lo_s, hi_s = _box(m - K, *_ANGLES)
    lo += lo_s
    hi += hi_s
    return ImmersionChart(
        f"ex33(m={m},K={K},j={split},r={rr:.6g})",
        m,
        AmbientForm(DE_SITTER, m + 1, 1.0),
        Box(tuple(lo), tuple(hi)),
        formula=formula,
        params={"K": K, "split": split, "r": rr},
        template="ex33",
        core=core,
    )


@dataclass
class CoreReport:
    """verify_core output: residuals of the three core requirements."""

    core: str
    mean_curvature_residual: float
    h2_deviation: float
    scalar_curvature_deviation: float


def verify_core(core: CoreHypersurface, *, counts: int = 3) -> CoreReport:
    """Check maximality, |h|^2 and the Gauss-equation scalar curvature.

    The intrinsic scalar curvature is assembled through the Gauss equation
    S = K(K-1) c + |h|^2 - K^2 H^2 with c the curvature of the core's
    quadric and a time-like normal.
    """
    K = core.K
    U = grid_points(core.chart.domain, [counts] * K)
    s = shape_series(core.chart, core.chart.jet(U, 2))
    h2, H = s.h2.value, s.H.value
    scalar = K * (K - 1) * core.chart.ambient.curvature + h2 - K**2 * H**2
    if h2.max() < TOTALLY_GEODESIC_TOL:
        # totally geodesic candidates never meet |h|^2 = (m-1)/m
        return CoreReport(core.chart.name, float(np.max(np.abs(H))), float(core.target_h2), np.inf)
    return CoreReport(
        core=core.chart.name,
        mean_curvature_residual=float(np.max(np.abs(H))),
        h2_deviation=float(np.max(np.abs(h2 - core.target_h2))),
        scalar_curvature_deviation=float(np.max(np.abs(scalar - core.expected_scalar_curvature()))),
    )


# ---------------------------------------------------------------------------
# default instances
# ---------------------------------------------------------------------------

# each family parameter and its type, in the CLI's flag order (a name has one
# type in every family); then each family's defaults, naming every parameter
# it takes: the instances the verification suite exercises, ex32 included so
# that its infeasibility surfaces through the same path as everything else
PARAMETERS: dict[str, type] = dict(m=int, k=int, a=float, p=int, q=int, K=int, split=int, r=float)
DEFAULT_INSTANCES: dict[str, dict] = {
    "hxr": {"m": 3, "k": 1},
    "sxh": {"m": 3, "k": 1, "a": math.sqrt(2.0)},
    "hxh": {"m": 3, "k": 1, "a": 0.6},
    "wp": {"m": 4, "p": 1, "q": 1, "a": 2.0},
    "ex33": {"m": 4, "K": 2, "split": 1, "r": None},
    "ex32": {"m": 4, "K": 2, "split": 1, "r": None},
}

_BUILDERS = {
    "hxr": make_hxr, "sxh": make_sxh, "hxh": make_hxh, "wp": make_wp,
    "ex32": lambda **p: make_example("ex32", **p), "ex33": lambda **p: make_example("ex33", **p),
}


def _coerce(family: str, key: str, value):
    """A parameter value from outside as its PARAMETERS type: an int one must be
    integral, and becomes an int; a float one passes as given (names show it as
    written) unless an int beyond 2**53.  Bools and non-numbers are refused."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if PARAMETERS[key] is int:
        if number and (isinstance(value, numbers.Integral) or float(value).is_integer()):
            return int(value)
        raise ValidationError(f"{family} parameter {key!r} must be an integer, got {value!r}")
    if number and (not isinstance(value, numbers.Integral) or abs(value) <= 2**53):
        return value
    raise ValidationError(f"{family} parameter {key!r} must be a double-precision number, got {value!r}")


def family_parameters(name: str, given: dict) -> dict:
    """The parameters build_instance builds family `name` with: its defaults
    updated by each given value that is not None, coerced (_coerce).  A name
    the family does not take is refused."""
    name = name.lower()
    if name not in DEFAULT_INSTANCES:
        raise ValidationError(f"unknown catalog name {name!r}; use one of {sorted(DEFAULT_INSTANCES)}")
    params = dict(DEFAULT_INSTANCES[name])
    for key in given:
        if key not in params:
            raise ValidationError(
                f"{name} takes no parameter {key!r}; its parameters are {', '.join(params)}"
            )
    params.update({key: _coerce(name, key, v) for key, v in given.items() if v is not None})
    return params


def build_instance(name: str, **overrides) -> ImmersionChart:
    """Build a catalog chart by CLI name with optional parameter overrides
    (family_parameters); an override of None keeps the default."""
    params = family_parameters(name, overrides)
    return _BUILDERS[name.lower()](**params)
