"""Numerical configuration.

Every tolerance used anywhere in the library lives here with its default;
call sites receive a NumericsConfig and never hard-code thresholds.  The
three assertion tiers:

* analytic_tol  -- identities checked on charts with exact (symbolic) jets
* fd_tol        -- the same identities when jets come from finite differences
* classify_tol  -- gates of the classification pipeline (relative)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

EPS = float(np.finfo(float).eps)


# prefactor of the automatic step rule in FDConfig.step_for
STEP_FACTOR = 2.0


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference policy for jets and field derivatives.

    Central stencils of accuracy `order` (an integer >= 1); derivative
    orders 3 and up are refined by one Richardson step when `richardson` is
    set.  The step for
    derivative order r is  STEP_FACTOR * eps^(1/(p_eff + r)) scaled by
    max(1, |u|_inf), where p_eff includes the Richardson gain: it balances
    truncation against the roundoff of fields that are exact per point.
    `step` overrides the automatic rule when positive.
    """

    order: int = 4
    richardson: bool = True
    step: float | None = None

    def __post_init__(self):
        if isinstance(self.order, bool) or not isinstance(self.order, (int, np.integer)) or self.order < 1:
            raise ValidationError(f"FD accuracy order must be an integer >= 1, got {self.order!r}")

    def step_for(self, deriv_order: int, scale: float = 1.0) -> float:
        if self.step is not None and self.step > 0:
            return self.step * max(1.0, scale)
        p_eff = self.order + (2 if (self.richardson and deriv_order >= 3) else 0)
        return STEP_FACTOR * EPS ** (1.0 / (p_eff + deriv_order)) * max(1.0, scale)


@dataclass(frozen=True)
class NumericsConfig:
    """Shared tolerances and FD policy."""

    # assertion tiers: frame relations and trace identities sit at the strict
    # tier; the integrability residual suite (which differentiates invariant
    # fields) has its own pair; classification gates are looser still
    analytic_tol: float = 1e-8
    fd_tol: float = 1e-5
    residual_tol_analytic: float = 1e-5
    residual_tol_fd: float = 1e-3
    trace_a_tol: float = 1e-6
    classify_tol: float = 1e-4

    # chart / ambient checks
    ambient_tol: float = 1e-9
    regularity_tol: float = 1e-10

    # cross-route mismatch above crosscheck_factor * tier tolerance is an error
    crosscheck_factor: float = 100.0

    fd: FDConfig = field(default_factory=FDConfig)

    def tier(self, analytic_jets: bool) -> float:
        return self.analytic_tol if analytic_jets else self.fd_tol

    def residual_tier(self, analytic_jets: bool) -> float:
        return self.residual_tol_analytic if analytic_jets else self.residual_tol_fd


DEFAULT = NumericsConfig()
