"""Conformal maps between the Lorentzian space forms and the conformal space.

The conformal space is the projectivized null cone of R^{m+3} with two
time-like slots.  A point is given by a representative, a plain array
(..., m+3) with the time-like slots first, and every test on
representatives is scale-free.  Each space form embeds by a homogeneous
null representative:

    de Sitter        u  ->  (1, u)
    anti-de Sitter   y  ->  (y1, y2, 1, y')        (y = (y1, y2, y'))
    Lorentz flat     u  ->  (2u1, q+1, q-1, 2u')   (q = <u,u>, u = (u1, u'))

The two non-homogeneous coordinate maps divide by the first or second slot:

    psi1([y]) = (y2, y3) / y1       psi2([y]) = (y1, y3) / y2

and land on the unit de Sitter quadric.  The four composites psi o sigma
are implemented in the arrangement in which their closed forms are usually
written; the signed slot permutation relating that arrangement to the
canonical representative is recorded on each map tag and asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import taylor
from .chart import (
    ANTI_DE_SITTER,
    DE_SITTER,
    LORENTZ_FLAT,
    AmbientForm,
    ImmersionChart,
)
from .config import ON_FORM_TOL, SCALE_FREE_TOL
from .errors import ChartDomainError, InputError, ValidationError
from .pseudo_linalg import form_signs
from .taylor import einsum


def _scaled(c: np.ndarray) -> np.ndarray:
    """Representatives (along the last axis) divided by their largest
    absolute entry; a zero one stays zero.

    Every test on representatives is scale-free; the largest entry of a
    scaled one is 1, so its norm neither overflows nor underflows to 0,
    whatever the finite scale.
    """
    peak = np.max(np.abs(c), axis=-1, keepdims=True)
    return c / np.where(peak > 0, peak, 1.0)


def _slot_vanishes(reps: np.ndarray, slot: int) -> np.ndarray:
    """Where a slot of representatives (along the last axis) vanishes:
    |c_slot| <= SCALE_FREE_TOL * |c| on the scaled representative c."""
    c = _scaled(reps)
    return np.abs(c[..., slot]) <= SCALE_FREE_TOL * np.linalg.norm(c, axis=-1)


def is_null(rep: np.ndarray, tol: float = SCALE_FREE_TOL) -> bool:
    """Whether a representative (m+3,) is null: |<c,c>| <= tol * |c|^2 on
    the scaled representative c."""
    c = _scaled(rep)
    val = float(np.sum(c * c * form_signs(2, c.shape[0])))
    return abs(val) <= tol * float(np.sum(c * c))


def projective_equal(p: np.ndarray, q: np.ndarray) -> bool:
    """Scale-free comparison of two representatives: |cos angle| > 1 - SCALE_FREE_TOL."""
    a, b = _scaled(p), _scaled(q)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return False
    return abs(float(np.dot(a, b))) / (na * nb) > 1.0 - SCALE_FREE_TOL


# canonical hyperplanes, permuted from their usual slot order to ours:
# each is the set a given sigma misses.

def in_pi_plus(rep: np.ndarray) -> bool:
    """Hyperplane missed by the de Sitter embedding: first slot vanishes."""
    return bool(_slot_vanishes(rep, 0))


def in_pi_minus(rep: np.ndarray) -> bool:
    """Hyperplane missed by the anti-de Sitter embedding: third slot vanishes."""
    return bool(_slot_vanishes(rep, 2))


def in_pi(rep: np.ndarray) -> bool:
    """Hyperplane missed by the flat embedding: slots 2 and 3 agree."""
    c = _scaled(rep)
    return abs(c[1] - c[2]) <= SCALE_FREE_TOL * np.linalg.norm(c)


# ---------------------------------------------------------------------------
# homogeneous representatives (work on numbers, arrays, Taylor series and
# sympy expressions)
# ---------------------------------------------------------------------------

def _lorentz_dot(x: Sequence, v: Sequence) -> object:
    """<x,v> with one leading time slot, generic over numeric/symbolic entries."""
    q = -x[0] * v[0]
    for a, b in zip(x[1:], v[1:]):
        q = q + a * b
    return q


def sigma_rep(kind: str, x: Sequence, isometric: bool = False) -> list:
    """Canonical homogeneous null representative of a space-form point.

    With isometric=True the representative is scaled so that the pullback of
    the ambient form metric equals the space-form metric exactly (needed for
    canonical light-cone lifts).
    """
    x = list(x)
    if kind == DE_SITTER:
        return [1, *x]
    if kind == ANTI_DE_SITTER:
        return [x[0], x[1], 1, *x[2:]]
    if kind == LORENTZ_FLAT:
        q = _lorentz_dot(x, x)
        rep = [2 * x[0], q + 1, q - 1, *(2 * c for c in x[1:])]
        if isometric:
            rep = [c / 2 for c in rep]
        return rep
    raise ValidationError(f"unknown space form kind {kind!r}")


def sigma_rep_batch(kind: str, X, isometric: bool = False):
    """Vectorized sigma_rep: X (N, d), an array or a Taylor series -> (N, m+3)."""
    return taylor.stack(sigma_rep(kind, [X[:, i] for i in range(X.shape[1])], isometric=isometric))


def sigma_differential_batch(kind: str, X, V):
    """dZ_X(V): the differential of the isometric representative
    Z = sigma_rep_batch(kind, X, isometric=True) at the points X applied to
    the vectors V, both (N, d), arrays or Taylor series -> (N, m+3)."""
    x, v = ([S[:, i] for i in range(S.shape[1])] for S in (X, V))
    if kind == DE_SITTER:
        return taylor.stack([0, *v])
    if kind == ANTI_DE_SITTER:
        return taylor.stack([v[0], v[1], 0, *v[2:]])
    xv = _lorentz_dot(x, v)
    return taylor.stack([v[0], xv, xv, *v[1:]])


def _check_on_form(kind: str, X: np.ndarray) -> None:
    """Refuse points X (N, d) off the unit quadric of form `kind`."""
    if kind == LORENTZ_FLAT:
        return
    form = AmbientForm(kind, X.shape[1] - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.max(form.quadric_residual(X), initial=0.0)
    # an empty batch has nothing to refuse; an overflowing <x,x> reads inf
    # or nan, and `resid > ON_FORM_TOL` is False for nan
    if not resid <= ON_FORM_TOL:
        raise InputError(
            f"point is off the {kind} space form: |<x,x> - ({form.quadric_value})| = {resid:.3e}"
        )


def embed(point, which: str) -> np.ndarray:
    """Embed a space-form point into the conformal space: its canonical
    representative (m+3,), time-like slots first."""
    tag = MAP_TAGS.get(which)
    if tag is None or tag.source_kind is None or tag.alpha is not None:
        raise ValidationError(f"unknown embedding {which!r}; use sigma0, sigma1 or sigma-1")
    x = np.asarray(point, dtype=float)
    if x.ndim != 1:
        raise InputError("embed expects a single point")
    X = x[None, :]
    _check_on_form(tag.source_kind, X)
    return sigma_rep_batch(tag.source_kind, X)[0]


def t_swap(w) -> np.ndarray:
    """Exchange the two time-like slots of representatives (along the last axis)."""
    arr = np.asarray(w, dtype=float).copy()
    arr[..., [0, 1]] = arr[..., [1, 0]]
    return arr


def psi(alpha: int, reps, name: str = ""):
    """Non-homogeneous coordinate map onto the unit de Sitter quadric.

    `reps` is one null representative (m+3,) or a batch (N, m+3), an array
    or a Taylor series; it is not checked to be null.  psi1 divides by the
    first slot (undefined on pi_plus), psi2 by the second; psi2 = psi1 o
    t_swap.  Raises when the divisor (its centre value, for a series)
    vanishes, a zero representative included; `name` names the lifted
    chart in the message.
    """
    if alpha not in (1, 2):
        raise ValidationError(f"alpha must be 1 or 2, got {alpha}")
    reps = taylor.asarray(reps)
    single = reps.ndim == 1
    R = reps[None, :] if single else reps
    if np.any(_slot_vanishes(taylor.centre(R), alpha - 1)):
        plane = "pi_plus" if alpha == 1 else "t_swap image of pi_plus"
        raise ChartDomainError(
            f"psi{alpha}{' of ' + name if name else ''} undefined: "
            f"dividing slot {alpha} vanishes (representative on {plane})"
        )
    keep = R[:, 1] if alpha == 1 else R[:, 0]
    out = taylor.concatenate([keep[:, None], R[:, 2:]], axis=1) / R[:, alpha - 1][:, None]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# composed maps onto the de Sitter picture
# ---------------------------------------------------------------------------

# the arrangement psi_alpha o sigma is written in, per source form: the
# canonical slots of its two leading entries and the sign of its last entry,
# canonical slot 2; the entries between are slots 3, 4, ... in order
#   flat            (2u1, q+1, q-1, 2u')  ->  (q+1, 2u1, 2u', 1-q)
#   anti-de Sitter  (y1, y2, 1, y')       ->  (y1, y2, y', 1)
_ARRANGEMENTS = {LORENTZ_FLAT: ((1, 0), -1.0), ANTI_DE_SITTER: ((0, 1), 1.0)}


def _slot_permutation(kind: str | None, m: int) -> np.ndarray:
    """Signed slot permutation that psi_alpha o sigma applies to the canonical
    representative of a point of form `kind`; the identity on de Sitter."""
    d = m + 3
    if kind not in _ARRANGEMENTS:
        return np.eye(d)
    lead, last_sign = _ARRANGEMENTS[kind]
    P = np.zeros((d, d))
    P[[0, 1], lead] = 1.0
    P[np.arange(2, d - 1), np.arange(3, d)] = 1.0
    P[d - 1, 2] = last_sign
    return P


@dataclass(frozen=True)
class ConformalMapTag:
    """Identity card of a conformal map: source form (None on representatives),
    psi index (None for the embeddings and tswap) and, for the four composites
    psi_alpha o sigma, the denominator that bounds their domain."""

    which: str
    source_kind: str | None
    alpha: int | None
    denominator: str | None = None

    def permutation(self, m: int) -> np.ndarray:
        """The slot record of a composite; the identity for every other map."""
        return _slot_permutation(self.source_kind if self.denominator else None, m)

    def source_m(self, length: int) -> int:
        """m of a source point of `length` coordinates: a conformal
        representative has m + 3, a space-form point the m + 1 (flat) or
        m + 2 (quadrics) of its form's embedding."""
        if self.source_kind is None:
            return length - 3
        return length - AmbientForm(self.source_kind, 1).embedding_dim


MAP_TAGS: dict[str, ConformalMapTag] = {
    "sigma0": ConformalMapTag("sigma0", LORENTZ_FLAT, None),
    "sigma1": ConformalMapTag("sigma1", DE_SITTER, None),
    "sigma-1": ConformalMapTag("sigma-1", ANTI_DE_SITTER, None),
    "psi1": ConformalMapTag("psi1", None, 1),
    "psi2": ConformalMapTag("psi2", None, 2),
    "sigma^1": ConformalMapTag("sigma^1", LORENTZ_FLAT, 1, "1 + <u,u>"),
    "sigma^2": ConformalMapTag("sigma^2", LORENTZ_FLAT, 2, "2 u_1"),
    "tau^1": ConformalMapTag("tau^1", ANTI_DE_SITTER, 1, "y_1"),
    "tau^2": ConformalMapTag("tau^2", ANTI_DE_SITTER, 2, "y_2"),
    "tswap": ConformalMapTag("tswap", None, None),
}


def _composite(kind: str, alpha: int, X, P: np.ndarray, name: str = ""):
    """psi_alpha(P sigma_rep(kind, x)) of points X (N, d), an array or a Taylor series."""
    return psi(alpha, einsum("nj,ij->ni", sigma_rep_batch(kind, X), P), name)


def compose_maps(which: str, point):
    """Apply one of the four composed conformal maps onto the unit de Sitter.

    sigma^a act on Lorentz-flat points, tau^a on anti-de Sitter points; the
    restricted domains exclude the named denominators.  `point` is one point
    (d,) or a batch (N, d), an array or a Taylor series; a series is checked
    on its centre values.
    """
    tag = MAP_TAGS.get(which)
    if tag is None or tag.denominator is None:
        raise ValidationError(
            f"unknown composite map {which!r}; use sigma^1, sigma^2, tau^1 or tau^2"
        )
    point = taylor.asarray(point)
    single = point.ndim == 1
    X = point[None, :] if single else point
    _check_on_form(tag.source_kind, taylor.centre(X))
    try:
        out = _composite(tag.source_kind, tag.alpha, X, tag.permutation(tag.source_m(X.shape[1])))
    except ChartDomainError:
        raise ChartDomainError(
            f"{which} undefined: denominator {tag.denominator!r} vanishes"
        ) from None
    return out[0] if single else out


# ---------------------------------------------------------------------------
# chart lifting
# ---------------------------------------------------------------------------

class LiftedChart(ImmersionChart):
    """A chart composed with x -> psi_alpha(M sigma_rep(kind, x)) into the
    unit de Sitter picture, kind being the base chart's ambient.

    Values and jets are the base chart's pushed through that map: a jet is
    the base jet's Taylor series composed exactly, so its accuracy is the
    base chart's, analytic or FD in the base's own picture.  The divisor is
    checked by psi's rule, on the centre values of a series.
    """

    def __init__(self, base: ImmersionChart, M: np.ndarray, alpha: int):
        lift = f"psi{alpha}"
        super().__init__(
            f"{base.name}@{lift}",
            base.m,
            AmbientForm(DE_SITTER, base.m + 1, 1.0),
            base.domain,
            eval_fn=self.eval,
            jet_mode="fd",
            fd_step=base.fd_step,
            params={**base.params, "lift": lift},
            template=base.template,
        )
        # the evaluator above only satisfies the constructor: values and jets
        # come from the base chart, in its jet mode
        self.jet_mode = base.jet_mode
        self.base = base
        self.M = np.asarray(M, dtype=float)
        self.alpha = alpha

    def eval(self, U: np.ndarray) -> np.ndarray:
        return _composite(self.base.ambient.kind, self.alpha, self.base.eval(U), self.M, self.name)

    def jet(self, U: np.ndarray, order: int) -> taylor.Series:
        return _composite(self.base.ambient.kind, self.alpha, self.base.jet(U, order), self.M, self.name)

    def with_jet_mode(self, jet_mode: str, fd_step: float | None = None) -> "LiftedChart":
        return LiftedChart(self.base.with_jet_mode(jet_mode, fd_step), self.M, self.alpha)

    def reparametrized(self, A: np.ndarray, b: np.ndarray, name: str | None = None) -> "LiftedChart":
        return LiftedChart(self.base.reparametrized(A, b, name), self.M, self.alpha)


def lift_chart(chart: ImmersionChart, which: str) -> LiftedChart:
    """Compose a chart with psi_alpha o sigma into the unit de Sitter picture.

    `which` is psi1/psi2 (sigma chosen by the chart's ambient) or one of the
    explicit composite names, which must match the ambient.  The lifted
    chart keeps the base chart and the slot permutation of its ambient;
    its jets are the base chart's Taylor series pushed through the
    composite (see LiftedChart).
    """
    tag = MAP_TAGS.get(which)
    if tag is None or tag.alpha is None:
        raise ValidationError(f"unknown lift {which!r}")
    kind = chart.ambient.kind
    if tag.source_kind not in (None, kind):
        raise ValidationError(f"{which} lifts {tag.source_kind} charts, not {kind}")
    chart.ambient.check_unit(chart.name)
    return LiftedChart(chart, _slot_permutation(kind, chart.m), tag.alpha)


# ---------------------------------------------------------------------------
# conformality witness
# ---------------------------------------------------------------------------

def conformality_witness(
    map_fn: Callable[[taylor.Series], taylor.Series],
    source_kind: str,
    x: np.ndarray,
    target_signs: np.ndarray,
) -> tuple[float, float]:
    """Pullback-metric proportionality test at one point.

    Returns (conformal factor, normalized residual).  The pullback Gram
    matrix of map_fn along a tangent basis must be a positive multiple of
    the source Gram matrix.  map_fn must accept a Taylor series: it runs
    once on the order-1 series x + sum_i t_i v_i along the basis v_i, whose
    gradient is the exact differential.  The basis is form-orthogonal to x,
    so on a quadric that series stays on the source form to first order.
    """
    src_signs = form_signs(2 if source_kind == ANTI_DE_SITTER else 1, x.shape[0])
    if source_kind == LORENTZ_FLAT:
        basis = np.eye(x.shape[0])
    else:
        # (d-1, d) spanning the form-orthogonal complement of the position
        basis = np.linalg.svd((x * src_signs)[None, :])[2][1:]
    G = np.einsum("ac,c,bc->ab", basis, src_signs, basis)
    line = taylor.Series(np.concatenate([x[None, :], basis]), basis.shape[0], 1)
    D = map_fn(line).grad().value.T  # (k, target_dim)
    Pb = np.einsum("ac,c,bc->ab", D, target_signs, D)
    lam = float(np.sum(Pb * G) / np.sum(G * G))
    resid = float(np.max(np.abs(Pb - lam * G))) / (abs(lam) * max(1.0, float(np.max(np.abs(G)))))
    return lam, resid
