"""Conformal maps between the Lorentzian space forms and the conformal space.

The conformal space is the projectivized null cone of R^{m+3} with two
time-like slots.  Canonical slot convention everywhere: time-like slots
first.  Each space form embeds by a homogeneous null representative:

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
    Jet,
)
from .config import DEFAULT, FDConfig, NumericsConfig
from .errors import ChartDomainError, DimensionMismatchError, InputError, ValidationError
from .pseudo_linalg import PseudoVector, Signature, form_signs, pseudo_dot
from .taylor import einsum

CONFORMAL_TIME_SLOTS = 2


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous representative of a point of the conformal space."""

    rep: PseudoVector

    def __post_init__(self):
        if self.rep.sig.time != CONFORMAL_TIME_SLOTS:
            raise DimensionMismatchError("conformal-space representatives carry two time slots")
        if not np.any(self.rep.coords):
            raise InputError("zero vector does not represent a projective point")

    @property
    def m(self) -> int:
        return self.rep.sig.total - 3

    def is_null(self, tol: float = 1e-12) -> bool:
        c = self.rep.coords
        val = float(np.sum(c * c * self.rep.sig.signs))
        return abs(val) <= tol * float(np.sum(c * c))


def projective_equal(p: ProjectivePoint, q: ProjectivePoint, tol: float = 1e-12) -> bool:
    """Scale-free comparison: |cos angle| > 1 - tol."""
    a, b = p.rep.coords, q.rep.coords
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return False
    return abs(float(np.dot(a, b))) / (na * nb) > 1.0 - tol


# canonical hyperplanes, permuted from their usual slot order to ours:
# each is the set a given sigma misses.

def in_pi_plus(p: ProjectivePoint, tol: float = 1e-12) -> bool:
    """Hyperplane missed by the de Sitter embedding: first slot vanishes."""
    c = p.rep.coords
    return abs(c[0]) <= tol * np.linalg.norm(c)


def in_pi_minus(p: ProjectivePoint, tol: float = 1e-12) -> bool:
    """Hyperplane missed by the anti-de Sitter embedding: third slot vanishes."""
    c = p.rep.coords
    return abs(c[2]) <= tol * np.linalg.norm(c)


def in_pi(p: ProjectivePoint, tol: float = 1e-12) -> bool:
    """Hyperplane missed by the flat embedding: slots 2 and 3 agree."""
    c = p.rep.coords
    return abs(c[1] - c[2]) <= tol * np.linalg.norm(c)


# ---------------------------------------------------------------------------
# homogeneous representatives (work on numbers, arrays, Taylor series and
# sympy expressions)
# ---------------------------------------------------------------------------

def _lorentz_square(x: Sequence) -> object:
    """<x,x> with one leading time slot, generic over numeric/symbolic entries."""
    q = -x[0] * x[0]
    for c in x[1:]:
        q = q + c * c
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
        q = _lorentz_square(x)
        rep = [2 * x[0], q + 1, q - 1, *(2 * c for c in x[1:])]
        if isometric:
            rep = [c / 2 for c in rep]
        return rep
    raise ValidationError(f"unknown space form kind {kind!r}")


def _to_batch(point) -> tuple[np.ndarray, bool]:
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def sigma_rep_batch(kind: str, X: np.ndarray, isometric: bool = False) -> np.ndarray:
    """Vectorized sigma_rep: X (N, d) -> (N, d+something)."""
    comps = sigma_rep(kind, [X[:, i] for i in range(X.shape[1])], isometric=isometric)
    cols = [np.broadcast_to(np.asarray(c, dtype=float), (X.shape[0],)) for c in comps]
    return np.stack(cols, axis=1)


SIGMA_FOR_KIND = {DE_SITTER: "sigma1", ANTI_DE_SITTER: "sigma-1", LORENTZ_FLAT: "sigma0"}
KIND_FOR_SIGMA = {v: k for k, v in SIGMA_FOR_KIND.items()}


def _check_on_form(kind: str, X: np.ndarray, tol: float) -> None:
    if kind == LORENTZ_FLAT:
        return
    sig = Signature(2 if kind == ANTI_DE_SITTER else 1, X.shape[1])
    val = pseudo_dot(X, X, sig.signs)
    target = 1.0 if kind == DE_SITTER else -1.0
    resid = np.max(np.abs(val - target))
    if resid > tol:
        raise InputError(
            f"point is off the {kind} space form: |<x,x> - ({target})| = {resid:.3e}"
        )


def embed(point, which: str, cfg: NumericsConfig = DEFAULT) -> ProjectivePoint:
    """Embed a space-form point into the conformal space, canonical slots."""
    if which not in KIND_FOR_SIGMA:
        raise ValidationError(f"unknown embedding {which!r}; use sigma0, sigma1 or sigma-1")
    kind = KIND_FOR_SIGMA[which]
    X, single = _to_batch(point)
    if not single:
        raise InputError("embed expects a single point")
    _check_on_form(kind, X, 1e-8)
    rep = sigma_rep_batch(kind, X)[0]
    m = rep.shape[0] - 3
    return ProjectivePoint(PseudoVector(rep, Signature(2, m + 3)))


def t_swap(w) -> np.ndarray | PseudoVector:
    """Exchange the two time-like slots of a conformal-space representative."""
    if isinstance(w, PseudoVector):
        c = w.coords.copy()
        c[[0, 1]] = c[[1, 0]]
        return PseudoVector(c, w.sig)
    arr = np.asarray(w, dtype=float).copy()
    arr[..., [0, 1]] = arr[..., [1, 0]]
    return arr


def psi(alpha: int, p: ProjectivePoint, tol: float = 1e-12) -> PseudoVector:
    """Non-homogeneous coordinate map onto the unit de Sitter quadric.

    psi1 divides by the first slot (undefined on pi_plus), psi2 by the
    second; psi2 = psi1 o t_swap.
    """
    if alpha not in (1, 2):
        raise ValidationError(f"alpha must be 1 or 2, got {alpha}")
    c = p.rep.coords
    div = c[alpha - 1]
    if abs(div) <= tol * np.linalg.norm(c):
        plane = "pi_plus" if alpha == 1 else "t_swap image of pi_plus"
        raise ChartDomainError(
            f"psi{alpha} undefined: dividing slot {alpha} vanishes (representative on {plane})"
        )
    keep = c[1] if alpha == 1 else c[0]
    out = np.concatenate([[keep], c[2:]]) / div
    return PseudoVector(out, Signature(1, out.shape[0]))


def psi_batch(alpha: int, reps, name: str = ""):
    """Vectorized psi on representatives (N, m+3), arrays or Taylor series;
    raises when the divisor (its centre value, for series) vanishes."""
    series = isinstance(reps, taylor.Series)
    centre = reps.value if series else reps
    if np.any(np.abs(centre[:, alpha - 1]) <= 1e-12 * np.linalg.norm(centre, axis=1)):
        raise ChartDomainError(
            f"psi{alpha}{' of ' + name if name else ''}: dividing slot vanishes at a point"
        )
    keep = reps[:, 1] if alpha == 1 else reps[:, 0]
    join = taylor.concatenate if series else np.concatenate
    return join([keep[:, None], reps[:, 2:]], axis=1) / reps[:, alpha - 1][:, None]


# ---------------------------------------------------------------------------
# composed maps onto the de Sitter picture
# ---------------------------------------------------------------------------

def _perm_flat(m: int) -> np.ndarray:
    """Signed permutation turning the canonical flat representative
    (2u1, q+1, q-1, 2u') into the arrangement (q+1, 2u1, 2u', 1-q)."""
    d = m + 3
    P = np.zeros((d, d))
    P[0, 1] = 1.0
    P[1, 0] = 1.0
    for j in range(m):
        P[2 + j, 3 + j] = 1.0
    P[d - 1, 2] = -1.0
    return P


def _perm_ads(m: int) -> np.ndarray:
    """Permutation moving the constant slot of the anti-de Sitter
    representative (y1, y2, 1, y') to the end: (y1, y2, y', 1)."""
    d = m + 3
    P = np.zeros((d, d))
    P[0, 0] = 1.0
    P[1, 1] = 1.0
    for j in range(m):
        P[2 + j, 3 + j] = 1.0
    P[d - 1, 2] = 1.0
    return P


@dataclass(frozen=True)
class ConformalMapTag:
    """Identity card of a conformal map: source form, psi index, slot record."""

    which: str
    source_kind: str | None
    alpha: int | None
    permutation_builder: Callable[[int], np.ndarray] | None

    def permutation(self, m: int) -> np.ndarray:
        if self.permutation_builder is None:
            return np.eye(m + 3)
        return self.permutation_builder(m)


MAP_TAGS: dict[str, ConformalMapTag] = {
    "sigma0": ConformalMapTag("sigma0", LORENTZ_FLAT, None, None),
    "sigma1": ConformalMapTag("sigma1", DE_SITTER, None, None),
    "sigma-1": ConformalMapTag("sigma-1", ANTI_DE_SITTER, None, None),
    "psi1": ConformalMapTag("psi1", None, 1, None),
    "psi2": ConformalMapTag("psi2", None, 2, None),
    "sigma^1": ConformalMapTag("sigma^1", LORENTZ_FLAT, 1, _perm_flat),
    "sigma^2": ConformalMapTag("sigma^2", LORENTZ_FLAT, 2, _perm_flat),
    "tau^1": ConformalMapTag("tau^1", ANTI_DE_SITTER, 1, _perm_ads),
    "tau^2": ConformalMapTag("tau^2", ANTI_DE_SITTER, 2, _perm_ads),
    "tswap": ConformalMapTag("tswap", None, None, None),
}

COMPOSITE_DENOMINATORS = {
    "sigma^1": "1 + <u,u>",
    "sigma^2": "2 u_1",
    "tau^1": "y_1",
    "tau^2": "y_2",
}


def _source_m(kind: str, point_dim: int) -> int:
    return point_dim - 1 if kind == LORENTZ_FLAT else point_dim - 2


def _composite_reps(which: str, X: np.ndarray) -> np.ndarray:
    tag = MAP_TAGS[which]
    m = _source_m(tag.source_kind, X.shape[1])
    reps = sigma_rep_batch(tag.source_kind, X)
    P = tag.permutation(m)
    return reps @ P.T


def compose_maps(which: str, point, cfg: NumericsConfig = DEFAULT) -> np.ndarray:
    """Apply one of the four composed conformal maps onto the unit de Sitter.

    sigma^a act on Lorentz-flat points, tau^a on anti-de Sitter points; the
    restricted domains exclude the named denominators.
    """
    if which not in COMPOSITE_DENOMINATORS:
        raise ValidationError(
            f"unknown composite map {which!r}; use sigma^1, sigma^2, tau^1 or tau^2"
        )
    tag = MAP_TAGS[which]
    X, single = _to_batch(point)
    _check_on_form(tag.source_kind, X, 1e-8)
    reps = _composite_reps(which, X)
    div = reps[:, tag.alpha - 1]
    if np.any(np.abs(div) <= 1e-12 * (1.0 + np.linalg.norm(reps, axis=1))):
        raise ChartDomainError(
            f"{which} undefined: denominator {COMPOSITE_DENOMINATORS[which]!r} vanishes"
        )
    out = psi_batch(tag.alpha, reps, name=which)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# chart lifting
# ---------------------------------------------------------------------------

_LIFT_ALIASES = {
    "psi1": 1,
    "psi2": 2,
    "sigma^1": 1,
    "sigma^2": 2,
    "tau^1": 1,
    "tau^2": 2,
}


class LiftedChart(ImmersionChart):
    """A chart composed with x -> psi_alpha(M sigma_rep(kind, x)) into the
    unit de Sitter picture, kind being the base chart's ambient.

    Values and jets are the base chart's pushed through that map: a jet is
    the base jet's Taylor series composed exactly, so its accuracy is the
    base chart's, analytic or FD in the base's own picture.  The divisor is
    checked by psi_batch's rule, on the centre values of a series.
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
            fd=base.fd,
            params={**base.params, "lift": lift},
            template=base.template,
        )
        # the evaluator above only satisfies the constructor: values and jets
        # come from the base chart, in its jet mode
        self.jet_mode = base.jet_mode
        self.base = base
        self.M = np.asarray(M, dtype=float)
        self.alpha = alpha

    def _lift(self, x):
        """The map of points x (N, d), given as an array or a Taylor series."""
        kind = self.base.ambient.kind
        comps = sigma_rep(kind, [x[:, i] for i in range(x.shape[1])])
        reps = taylor.stack(comps) if isinstance(x, taylor.Series) else sigma_rep_batch(kind, x)
        return psi_batch(self.alpha, einsum("nj,ij->ni", reps, self.M), self.name)

    def eval(self, U: np.ndarray) -> np.ndarray:
        return self._lift(self.base.eval(U))

    def jet(self, U: np.ndarray, order: int) -> Jet:
        return Jet(self._lift(self.base.jet(U, order).series))

    def fd_margin(self) -> float:
        return self.base.fd_margin()

    def with_jet_mode(self, jet_mode: str, fd: FDConfig | None = None) -> "LiftedChart":
        return LiftedChart(self.base.with_jet_mode(jet_mode, fd), self.M, self.alpha)

    def reparametrized(self, A: np.ndarray, b: np.ndarray, name: str | None = None) -> "LiftedChart":
        return LiftedChart(self.base.reparametrized(A, b, name), self.M, self.alpha)


def lift_chart(chart: ImmersionChart, which: str) -> LiftedChart:
    """Compose a chart with psi_alpha o sigma into the unit de Sitter picture.

    `which` is psi1/psi2 (sigma chosen by the chart's ambient) or one of the
    explicit composite names, which must match the ambient.  The lifted
    chart keeps the base chart and the slot permutation of its composite;
    its jets are the base chart's Taylor series pushed through the
    composite (see LiftedChart).
    """
    if which not in _LIFT_ALIASES:
        raise ValidationError(f"unknown lift {which!r}")
    alpha = _LIFT_ALIASES[which]
    kind = chart.ambient.kind
    if which.startswith("sigma^") and kind != LORENTZ_FLAT:
        raise ValidationError(f"{which} lifts Lorentz-flat charts, not {kind}")
    if which.startswith("tau^") and kind != ANTI_DE_SITTER:
        raise ValidationError(f"{which} lifts anti-de Sitter charts, not {kind}")
    if kind == DE_SITTER and abs(chart.ambient.radius - 1.0) > 1e-14:
        raise ValidationError("only unit de Sitter charts can be re-lifted")
    m = chart.m
    if kind == DE_SITTER:
        P = np.eye(m + 3)
    elif kind == LORENTZ_FLAT:
        P = _perm_flat(m)
    else:
        P = _perm_ads(m)
    return LiftedChart(chart, P, alpha)


# ---------------------------------------------------------------------------
# conformality witness
# ---------------------------------------------------------------------------

def _tangent_basis(kind: str, x: np.ndarray) -> np.ndarray:
    """Orthogonal-complement basis of the position row on quadric forms."""
    d = x.shape[0]
    if kind == LORENTZ_FLAT:
        return np.eye(d)
    signs = form_signs(2 if kind == ANTI_DE_SITTER else 1, d)
    row = (x * signs)[None, :]
    _, _, Vt = np.linalg.svd(row)
    return Vt[1:]  # (d-1, d) spanning the form-orthogonal complement of x


def conformality_witness(
    map_fn: Callable[[np.ndarray], np.ndarray],
    source_kind: str,
    x: np.ndarray,
    target_signs: np.ndarray,
    cfg: NumericsConfig = DEFAULT,
    step: float = 1e-5,
) -> tuple[float, float]:
    """Pullback-metric proportionality test at one point.

    Returns (conformal factor, normalized residual).  The pullback Gram
    matrix of map_fn along a tangent basis must be a positive multiple of
    the source Gram matrix.
    """
    basis = _tangent_basis(source_kind, x)
    k = basis.shape[0]
    src_signs = form_signs(2 if source_kind == ANTI_DE_SITTER else 1, x.shape[0])
    G = np.einsum("ac,c,bc->ab", basis, src_signs, basis)
    # directional derivatives of the map along the basis, 4th order stencil
    imgs = []
    offsets = [-2, -1, 1, 2]
    weights = [1 / 12, -2 / 3, 2 / 3, -1 / 12]
    for v in basis:
        dv = None
        for o, w in zip(offsets, weights):
            pt = x + o * step * v
            if source_kind != LORENTZ_FLAT:
                # project back to the quadric to stay on the source form
                val = pseudo_dot(pt[None, :], pt[None, :], src_signs)[0]
                target = 1.0 if source_kind == DE_SITTER else -1.0
                pt = pt / np.sqrt(abs(val / target))
            img = map_fn(pt)
            dv = img * (w / step) if dv is None else dv + img * (w / step)
        imgs.append(dv)
    D = np.stack(imgs)  # (k, target_dim)
    Pb = np.einsum("ac,c,bc->ab", D, target_signs, D)
    lam = float(np.sum(Pb * G) / np.sum(G * G))
    resid = float(np.max(np.abs(Pb - lam * G))) / (abs(lam) * max(1.0, float(np.max(np.abs(G)))))
    return lam, resid
