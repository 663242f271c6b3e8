"""Numerical configuration: every threshold the package decides by.

Each decision has one named constant here, and every call site reads it.
The tiers are class attributes of NumericsConfig, read through the class:

* analytic_tol          -- identities checked on charts with exact
                           (symbolic) jets; also the strict tier of the
                           frame relations and trace identities
* fd_tol                -- the same identities when jets come from FD
                           (fitted) jets
* residual_tol_analytic -- the integrability residual suite (which
  residual_tol_fd          differentiates invariant fields), analytic / FD
* trace_a_tol           -- the scalar-curvature trace tr A
* ambient_tol           -- an analytic chart's points lie on its ambient
                           form (FD charts: fd_tol)
* regularity_tol        -- rho^2 and the smallest metric eigenvalue are
                           bounded away from 0
* crosscheck_factor     -- a cross-route mismatch above this times the
                           tier is an error

residual_tolerance(key, analytic_jets) gives each field residual its
tolerance.  classify_tol, the relative tolerance of the classification
gates and of eigenvalue clustering, is the one setting: an argument of
classify and classify_field.  Each decision a report shows is a Gate row.

Module constants, one per decision outside the tiers:

* CATALOG_CHECK_TOL -- cross-route agreement and largest |Phi| that
                       verify-catalog requires of every catalog chart
* CORE_RADIUS_TOL   -- an explicit ex33 core radius r meets the core's
                       squared-norm constraint (catalog._ads_core)
* TOTALLY_GEODESIC_TOL -- a catalog core is totally geodesic
                       (catalog.verify_core)
* UNIT_RADIUS_TOL   -- a quadric ambient is its unit form
                       (AmbientForm.check_unit: evaluate_field,
                       field_from_jet, frame_route, lift_chart); a chart
                       file's radius is its template's (chart_from_dict)
* ON_FORM_TOL       -- a point handed to embed or compose_maps lies on its
                       space form; a representative typed to
                       `map --which psi1|psi2` is null
                       (|<c,c>| <= ON_FORM_TOL |c|^2, cli._map_point)
* SCALE_FREE_TOL    -- a slot, the form value or the angle of homogeneous
                       representatives vanishes, relative to their norm
                       (psi, compose_maps, is_null, projective_equal,
                       in_pi_plus, in_pi_minus, in_pi)
* GUARD_TOL         -- a named denominator of a chart formula vanishes
                       (absolute, see below)
* NORMAL_LEAD_TOL   -- the component of a unit normal whose sign fixes its
                       orientation (batched_normal)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import ValidationError

# cross-route agreement and largest |Phi| that verify-catalog requires of
# every catalog chart (every catalog chart has Phi = 0)
CATALOG_CHECK_TOL = 1e-6

# an explicit ex33 core radius r is accepted when |K/r^2 - (m-1)/m| is within this
CORE_RADIUS_TOL = 1e-5

# verify_core reports a core as totally geodesic when its largest |h|^2 is below this
TOTALLY_GEODESIC_TOL = 1e-5

# a quadric ambient is its unit form when |radius - 1| is within this
UNIT_RADIUS_TOL = 1e-14

# a point given to embed or compose_maps is on its form when |<x,x> -+ 1| is within this
ON_FORM_TOL = 1e-8

# a slot, <c,c> or 1 - |cos angle| of representatives c vanishes relative to their norm
SCALE_FREE_TOL = 1e-12

# a chart formula's named denominator vanishes below this.  It is absolute:
# a guard is a scalar of the chart's coordinates with nothing beside it to
# be relative to, and the quotient it divides into is in the chart's units
GUARD_TOL = 1e-12

# a unit normal is oriented by its first component larger than this times its norm
NORMAL_LEAD_TOL = 1e-9

FLOAT_TINY = 2.0**-1022  # the smallest normal double, numpy's finfo(float).tiny


@dataclass(frozen=True)
class NumericsConfig:
    """The tolerances; classify_tol, a finite number > 0 (checked on
    construction), is the only one a caller sets."""

    classify_tol: float = 1e-4

    # assertion tiers: frame relations and trace identities sit at the strict
    # tier; the integrability residual suite (which differentiates invariant
    # fields) has its own pair; classification gates are looser still
    analytic_tol: ClassVar[float] = 1e-8
    fd_tol: ClassVar[float] = 1e-5
    residual_tol_analytic: ClassVar[float] = 1e-5
    residual_tol_fd: ClassVar[float] = 1e-3
    trace_a_tol: ClassVar[float] = 1e-6

    # chart / ambient checks
    ambient_tol: ClassVar[float] = 1e-9
    regularity_tol: ClassVar[float] = 1e-10

    # cross-route mismatch above crosscheck_factor * tier tolerance is an error
    crosscheck_factor: ClassVar[float] = 100.0

    def __post_init__(self):
        check_positive("classify_tol", self.classify_tol)

    @classmethod
    def tier(cls, analytic_jets: bool) -> float:
        return cls.analytic_tol if analytic_jets else cls.fd_tol

    @classmethod
    def residual_tier(cls, analytic_jets: bool) -> float:
        return cls.residual_tol_analytic if analytic_jets else cls.residual_tol_fd


def check_positive(name: str, value: float) -> None:
    """The one rule every tolerance obeys: a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class Gate:
    """One tolerance decision: passes when value <= tolerance; u is its point, or None."""

    name: str
    value: float
    tolerance: float
    u: tuple[float, ...] | None = None

    @classmethod
    def worst(cls, name: str, values, tolerance: float, U) -> "Gate":
        """The row of the largest of per-point values (N,) at points U (N, m)."""
        return cls(name, float(values.max()), tolerance, tuple(U[values.argmax()].tolist()))

    @property
    def passes(self) -> bool:
        return self.value <= self.tolerance

    @property
    def headroom(self) -> float:
        """log10(tolerance / max(value, FLOAT_TINY)), perfbench's rule; -inf
        for an infinite or NaN value."""
        ratio = self.tolerance / max(self.value, FLOAT_TINY)
        return math.log10(ratio) if ratio > 0 else -math.inf


def gate_table(gates: list[Gate]) -> dict:
    """The reports' `gates` section: {name: {value, tolerance, headroom, u}}."""
    return {g.name: {"value": g.value, "tolerance": g.tolerance, "headroom": g.headroom, "u": g.u}
            for g in gates}


def residual_tolerance(key: str, analytic_jets: bool) -> float:
    """The gate of a field residual: the strict tier for trace_b and norm_b,
    at least trace_a_tol for trace_a_scalar, the residual tier otherwise."""
    if key in ("trace_b", "norm_b"):
        return NumericsConfig.tier(analytic_jets)
    if key == "trace_a_scalar":
        return max(NumericsConfig.trace_a_tol, NumericsConfig.tier(analytic_jets))
    return NumericsConfig.residual_tier(analytic_jets)


DEFAULT = NumericsConfig()
