"""Numerical configuration.

Every tolerance used anywhere in the library lives here with its default;
call sites receive a NumericsConfig and never hard-code thresholds.  The
three assertion tiers:

* analytic_tol  -- identities checked on charts with exact (symbolic) jets
* fd_tol        -- the same identities when jets come from FD (fitted) jets
* classify_tol  -- gates of the classification pipeline (relative)
"""

from __future__ import annotations

from dataclasses import dataclass

# cross-route agreement and largest |Phi| that verify-catalog requires of
# every catalog chart (every catalog chart has Phi = 0); not settable
CATALOG_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class FDConfig:
    """Jet policy of evaluator charts and charts switched to FD jets.

    A jet is the least-squares polynomial fitted to one evaluation of the
    chart on a fixed sample cloud around each point (fd.py).  `step` is the
    reach of that cloud, its largest offset along each parameter axis, when
    positive; otherwise the reach is fd.default_reach of the chart's
    dimension (0.1, and 0.15 at m = 4).
    """

    step: float | None = None


@dataclass(frozen=True)
class NumericsConfig:
    """Shared tolerances."""

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

    def tier(self, analytic_jets: bool) -> float:
        return self.analytic_tol if analytic_jets else self.fd_tol

    def residual_tier(self, analytic_jets: bool) -> float:
        return self.residual_tol_analytic if analytic_jets else self.residual_tol_fd


DEFAULT = NumericsConfig()
