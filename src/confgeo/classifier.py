"""Decision procedure for hypersurfaces with parallel Blaschke tensor.

Gate order follows the logical dependencies of the classification: the
conformal form is tested after Blaschke parallelism (a parallel Blaschke
tensor forces the form to vanish, so a failure there signals numerics, not
a new branch), the eigenvalue structure only after both.  Branches:

    Isotropic                          t = 1 (Blaschke tensor proportional to g)
    ParallelB                          parallel conformal second fundamental form
    ParallelA-NonParallelB-Positive    t = 2, zero B-block, positive eigenvalue
                                       on the non-degenerate block
    ParallelA-NonParallelB-Negative    same with the negative eigenvalue
    NotParallelA                       hypothesis fails
    Inconclusive                       a gate could not be resolved numerically
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .chart import ImmersionChart, regularity_from_jet
from .config import DEFAULT, NumericsConfig, check_positive
from .errors import ComputationError, ConsistencyError
from .invariants import InvariantField, field_from_jet, grid_jet
from .pseudo_linalg import cluster_eigenvalues

BRANCH_ISOTROPIC = "Isotropic"
BRANCH_PARALLEL_B = "ParallelB"
BRANCH_POSITIVE = "ParallelA-NonParallelB-Positive"
BRANCH_NEGATIVE = "ParallelA-NonParallelB-Negative"
BRANCH_NOT_PARALLEL_A = "NotParallelA"
BRANCH_INCONCLUSIVE = "Inconclusive"

ANCHORS = {
    BRANCH_ISOTROPIC: "isotropic branch: Blaschke tensor proportional to the metric; "
    "conformally a maximal hypersurface of constant scalar curvature",
    BRANCH_PARALLEL_B: "parallel-B branch: product families and the warped-product cone",
    BRANCH_POSITIVE: "two-block branch, positive eigenvalue on the non-degenerate block: "
    "assembly over a maximal core in a de Sitter quadric",
    BRANCH_NEGATIVE: "two-block branch, negative eigenvalue on the non-degenerate block: "
    "assembly over a maximal core in an anti-de Sitter quadric",
    BRANCH_NOT_PARALLEL_A: "outside the classification: Blaschke tensor not parallel",
    BRANCH_INCONCLUSIVE: "no branch assigned",
}


@dataclass
class EigenStructure:
    """Simultaneous eigenvalue data of the Blaschke tensor and B."""

    t: int
    eigenvalues: list[float]
    multiplicities: list[int]
    b_values: list[list[float]]     # B-block spectra per Blaschke cluster
    zero_block: int | None
    commutator_norm: float
    constancy_deviation: float
    block_b_spread: float           # within-block spread of B (relevant for t >= 3)


@dataclass
class ClassificationReport:
    chart: str
    branch: str
    residuals: dict
    eigen: EigenStructure | None
    tolerances: dict
    grid: dict
    failing_gate: str | None = None
    notes: list[str] = dc_field(default_factory=list)

    @property
    def anchor(self) -> str:
        """The sentence that places the branch in the classification."""
        return ANCHORS[self.branch]

    def to_dict(self) -> dict:
        return {
            "chart": self.chart,
            "branch": self.branch,
            "anchor": self.anchor,
            "residuals": dict(sorted(self.residuals.items())),
            "eigenstructure": asdict(self.eigen) if self.eigen else None,
            "tolerances": dict(sorted(self.tolerances.items())),
            "grid": self.grid,
            "failing_gate": self.failing_gate,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_phi(f: InvariantField, tol: float) -> tuple[bool, float]:
    """Vanishing of the conformal form: max |Phi| against tol."""
    norm = float(np.max(f.phi_norm()))
    return norm <= tol, norm


def gate_parallel(dT: np.ndarray, T: np.ndarray, tol: float) -> tuple[bool, float]:
    """Parallelism of a tensor field: max |grad T| <= tol (1 + |T|)."""
    grad = float(np.max(np.sqrt(np.sum(dT**2, axis=tuple(range(1, dT.ndim))))))
    scale = 1.0 + float(np.max(np.abs(T)))
    return grad <= tol * scale, grad


def _symmetric(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T + np.swapaxes(T, 1, 2))


def _cluster_columns(Q: np.ndarray, multiplicities: list[int], ci: int) -> np.ndarray:
    """Eigenvectors of cluster ci at every point: the ascending columns
    that its place in the constant spectrum assigns to it."""
    start = sum(multiplicities[:ci])
    return Q[:, :, start:start + multiplicities[ci]]


def eigen_structure(f: InvariantField, tol: float) -> EigenStructure:
    """Cluster the Blaschke spectrum and extract simultaneous B-blocks.

    Requires the spectrum to be constant over the grid (the parallel gate
    guarantees this mathematically; deviations beyond tol raise a
    ConsistencyError).  A constant spectrum gives each cluster the same
    range of ascending eigenvector columns at every point, so one batched
    eigendecomposition serves every cluster.  When t >= 2 the commutator
    with B must vanish; B-block eigenvalues are reported per cluster with
    their grid spread.
    """
    A, B = _symmetric(f.A), _symmetric(f.B)
    spectra = np.linalg.eigvalsh(A)
    mean_spec = spectra.mean(axis=0)
    scale = max(1.0, float(np.max(np.abs(spectra))))
    constancy = float(np.max(np.abs(spectra - mean_spec[None, :])))
    if constancy > tol * scale:
        raise ConsistencyError(
            f"Blaschke eigenvalues vary over the grid by {constancy:.3e} "
            f"(allowed {tol * scale:.3e}) although the parallel gate passed"
        )
    clusters = cluster_eigenvalues(mean_spec, rel_tol=tol)
    mults = [int(c[1]) for c in clusters]
    comm = np.einsum("nik,nkj->nij", A, B) - np.einsum("nik,nkj->nij", B, A)
    b_values: list[list[float]] = []
    spread = 0.0
    zero_block: int | None = None
    # eigh only for the vectors: its eigenvalues differ from eigvalsh's at
    # roundoff, and the reported spectrum is eigvalsh's
    Q = np.linalg.eigh(A)[1]
    for ci in range(len(clusters)):
        Qb = _cluster_columns(Q, mults, ci)
        block_eigs = np.linalg.eigvalsh(_symmetric(np.swapaxes(Qb, 1, 2) @ B @ Qb))
        mean_be = block_eigs.mean(axis=0)
        spread = max(spread, float(np.max(np.abs(block_eigs - mean_be[None, :]))))
        b_values.append([float(v) for v in mean_be])
        if zero_block is None and np.max(np.abs(mean_be)) <= tol:
            zero_block = ci
    return EigenStructure(
        t=len(clusters),
        eigenvalues=[float(c[0]) for c in clusters],
        multiplicities=mults,
        b_values=b_values,
        zero_block=zero_block,
        commutator_norm=float(np.max(np.abs(comm))),
        constancy_deviation=constancy,
        block_b_spread=spread,
    )


def check_bibj(eigen: EigenStructure) -> float:
    """Cross-block residual of the relation -B_i B_j + A_i + A_j = 0.

    Applicable with t >= 3 or with t = 2 and one vanishing B-block; the max
    over all cross-block value pairs is returned.
    """
    worst = 0.0
    for a in range(eigen.t):
        for b in range(a + 1, eigen.t):
            for Ba in eigen.b_values[a]:
                for Bb in eigen.b_values[b]:
                    worst = max(
                        worst,
                        abs(-Ba * Bb + eigen.eigenvalues[a] + eigen.eigenvalues[b]),
                    )
    return worst


def zero_block_sectional_curvature(
    f: InvariantField, eigen: EigenStructure
) -> tuple[float, float] | None:
    """Mean and spread of the sectional curvatures of the zero-B block.

    For the two-block branches this curvature must equal -2 lambda with
    lambda the eigenvalue on the non-degenerate block.  Returns None when
    the zero block is one-dimensional or absent.
    """
    if f.riemann is None or eigen.zero_block is None:
        return None
    mult = eigen.multiplicities[eigen.zero_block]
    if mult < 2:
        return None
    Q = np.linalg.eigh(_symmetric(f.A))[1]
    Qb = _cluster_columns(Q, eigen.multiplicities, eigen.zero_block)
    Rb = np.einsum("nabcd,nai,nbj,nck,ndl->nijkl", f.riemann, Qb, Qb, Qb, Qb)
    i, j = np.triu_indices(mult, k=1)
    arr = Rb[:, i, j, j, i].ravel()
    return float(arr.mean()), float(np.max(np.abs(arr - arr.mean())))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _inconclusive(chart: ImmersionChart, U: np.ndarray, classify_tol: float) -> ClassificationReport:
    """The report every exit starts from: no branch yet, and the tolerances
    and grid that every report carries."""
    return ClassificationReport(
        chart=chart.name,
        branch=BRANCH_INCONCLUSIVE,
        residuals={},
        eigen=None,
        tolerances={
            "classify_tol": classify_tol,
            "tier_tol": NumericsConfig.tier(chart.jet_mode == "analytic"),
        },
        grid={"n_points": int(U.shape[0]), "m": chart.m},
    )


def classify_field(f: InvariantField, classify_tol: float = DEFAULT.classify_tol) -> ClassificationReport:
    """Assign a branch to a precomputed invariant field; every gate and the
    eigenvalue clustering use classify_tol, a finite number > 0."""
    check_positive("classify_tol", classify_tol)
    report = _inconclusive(f.chart, f.U, classify_tol)
    ok_a, grad_a = gate_parallel(f.dA, f.A, classify_tol)
    report.residuals["grad_a_norm"] = grad_a
    ok_phi, phi_norm = gate_phi(f, classify_tol)
    report.residuals["phi_norm"] = phi_norm
    ok_b, grad_b = gate_parallel(f.dB, f.B, classify_tol)
    report.residuals["grad_b_norm"] = grad_b
    if not ok_a:
        report.branch = BRANCH_NOT_PARALLEL_A
        return report
    if not ok_phi:
        report.failing_gate = "conformal_form"
        report.notes.append(
            "numerical inconsistency: the conformal form does not vanish although "
            "the Blaschke tensor is parallel; this combination is impossible, so "
            "the computation (not the geometry) is at fault"
        )
        return report
    try:
        eigen = eigen_structure(f, classify_tol)
    except ConsistencyError as exc:
        report.failing_gate = "eigenvalue_constancy"
        report.notes.append(str(exc))
        return report
    report.eigen = eigen
    if eigen.t >= 2 and eigen.commutator_norm > classify_tol:
        report.failing_gate = "commutator"
        report.notes.append(
            f"[A, B] norm {eigen.commutator_norm:.3e} exceeds tolerance although "
            "the conformal form vanishes"
        )
        return report
    if eigen.t >= 2:
        report.residuals["bibj_residual"] = check_bibj(eigen)
    if eigen.t == 1:
        report.branch = BRANCH_ISOTROPIC
        return report
    if ok_b:
        report.branch = BRANCH_PARALLEL_B
        return report
    # non-parallel B: the two-block structure must hold
    if eigen.t != 2:
        report.failing_gate = "two_block_structure"
        report.notes.append(
            f"non-parallel B with t={eigen.t}; the classification admits only t=2 here"
        )
        return report
    lam_sum = eigen.eigenvalues[0] + eigen.eigenvalues[1]
    scale = max(1.0, max(abs(v) for v in eigen.eigenvalues))
    if eigen.zero_block is None or abs(lam_sum) > classify_tol * scale:
        report.failing_gate = "zero_block"
        report.notes.append(
            "non-parallel B requires one vanishing B-block and opposite "
            f"Blaschke eigenvalues; found zero_block={eigen.zero_block}, "
            f"lambda_1 + lambda_2 = {lam_sum:.3e}"
        )
        return report
    nonzero = 1 - eigen.zero_block
    lam = eigen.eigenvalues[nonzero]
    report.notes.append(
        f"zero B-block is cluster {eigen.zero_block} "
        f"(eigenvalue {eigen.eigenvalues[eigen.zero_block]:.6g}, "
        f"multiplicity {eigen.multiplicities[eigen.zero_block]})"
    )
    curv = zero_block_sectional_curvature(f, eigen)
    if curv is not None:
        report.residuals["zero_block_curvature_vs_minus_2lambda"] = abs(curv[0] + 2.0 * lam)
    report.branch = BRANCH_POSITIVE if lam > 0 else BRANCH_NEGATIVE
    return report


def classify(
    chart: ImmersionChart,
    counts: int | list[int] = 3,
    classify_tol: float = DEFAULT.classify_tol,
    lift: str = "psi1",
) -> ClassificationReport:
    """Full pipeline: regularity, invariants with derivatives, gates.

    Charts in the flat or anti-de Sitter pictures are lifted (default
    through the first coordinate map) before the invariants are computed;
    computation errors annotate the report instead of aborting.  The
    regularity check and the invariants share one jet per point
    (invariants.grid_jet).
    """
    check_positive("classify_tol", classify_tol)
    counts = [counts] if isinstance(counts, int) else list(counts)
    work, U, jet = grid_jet(chart, counts, lift)
    notes = [] if work is chart else [f"lifted to the de Sitter picture via {lift}"]
    reg = regularity_from_jet(work, jet)
    report = _inconclusive(work, U, classify_tol)
    if not reg.regular:
        report.residuals = {"min_rho2": reg.min_rho2, "min_metric_eig": reg.min_metric_eig}
        report.failing_gate = "regularity"
    else:
        try:
            f = field_from_jet(work, U, jet, derivatives=True, curvature=True)
        except ComputationError as exc:
            report.failing_gate = "invariant_computation"
            report.notes.append(str(exc))
        else:
            report = classify_field(f, classify_tol)
    report.chart = chart.name
    report.notes = notes + report.notes
    report.grid["counts"] = counts
    return report
