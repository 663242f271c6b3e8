"""Numerical configuration.

The tolerances of the identity, regularity, cross-route and classification
checks live here.  The tiers are constants, class attributes of
NumericsConfig read through any instance:

* analytic_tol  -- identities checked on charts with exact (symbolic) jets
* fd_tol        -- the same identities when jets come from FD (fitted) jets

classify_tol, the relative tolerance of the classification gates, is the
one setting: the only field of NumericsConfig (`confgeo classify
--classify-tol`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import ValidationError

# cross-route agreement and largest |Phi| that verify-catalog requires of
# every catalog chart (every catalog chart has Phi = 0)
CATALOG_CHECK_TOL = 1e-6


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

    def tier(self, analytic_jets: bool) -> float:
        return self.analytic_tol if analytic_jets else self.fd_tol

    def residual_tier(self, analytic_jets: bool) -> float:
        return self.residual_tol_analytic if analytic_jets else self.residual_tol_fd


def check_positive(name: str, value: float) -> None:
    """The one rule every tolerance obeys: a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")


DEFAULT = NumericsConfig()
