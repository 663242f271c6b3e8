"""Decision procedure for hypersurfaces with parallel Blaschke tensor.

Every tolerance decision is a config.Gate row, and report.gates holds the
rows the path read, in its order: grad_a_norm, phi_norm, grad_b_norm,
eigenvalue_constancy, eigenvalue_clusters, commutator (t >= 2), then
zero_block_b and zero_block_lambda_sum on the two-block path.  The
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
from itertools import combinations

import numpy as np

from .chart import ImmersionChart, regularity_from_jet
from .config import DEFAULT, Gate, NumericsConfig, check_positive, gate_table
from .errors import ComputationError, ValidationError
from .invariants import InvariantField, field_from_jet, grid_jet
from .pseudo_linalg import cluster_eigenvalues, gap_bound

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
    gates: list[Gate] = dc_field(default_factory=list)

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
            "gates": gate_table(self.gates),
        }


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _parallel_gate(name: str, dT: np.ndarray, T: np.ndarray, U: np.ndarray, tol: float) -> Gate:
    """Parallelism of a tensor field: max |grad T| against tol (1 + max |T|)."""
    grad = np.sqrt(np.sum(dT**2, axis=tuple(range(1, dT.ndim))))
    return Gate.worst(name, grad, tol * (1.0 + float(np.max(np.abs(T)))), U)


def _symmetric(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T + np.swapaxes(T, 1, 2))


def _cluster_columns(Q: np.ndarray, multiplicities: list[int], ci: int) -> np.ndarray:
    """Eigenvectors of cluster ci at every point: the ascending columns
    that its place in the constant spectrum assigns to it."""
    start = sum(multiplicities[:ci])
    return Q[:, :, start:start + multiplicities[ci]]


def eigen_structure(f: InvariantField, tol: float) -> tuple[EigenStructure, dict[str, Gate]]:
    """Cluster the Blaschke spectrum and extract simultaneous B-blocks;
    returns the structure and its gate rows by name.

    The structure assumes a spectrum constant over the grid (the parallel
    gate guarantees it mathematically), and the eigenvalue_constancy row
    says whether it is.  A constant spectrum gives each cluster the same
    range of ascending eigenvector columns at every point, so one batched
    eigendecomposition serves every cluster.  B-block eigenvalues are
    reported per cluster with their grid spread; the block nearest zero is
    the zero block when its zero_block_b row passes.
    """
    A, B = _symmetric(f.A), _symmetric(f.B)
    spectra = np.linalg.eigvalsh(A)
    mean_spec = spectra.mean(axis=0)
    deviation = np.max(np.abs(spectra - mean_spec[None, :]), axis=1)
    clusters = cluster_eigenvalues(mean_spec, rel_tol=tol)
    mults = [int(c[1]) for c in clusters]
    merged = np.delete(np.diff(mean_spec), np.cumsum(mults)[:-1] - 1)
    rows = {
        "eigenvalue_constancy": Gate.worst("eigenvalue_constancy", deviation, gap_bound(spectra, tol), f.U),
        "eigenvalue_clusters": Gate("eigenvalue_clusters", float(merged.max(initial=0.0)), gap_bound(mean_spec, tol)),
    }
    if len(clusters) >= 2:
        comm = np.einsum("nik,nkj->nij", A, B) - np.einsum("nik,nkj->nij", B, A)
        rows["commutator"] = Gate.worst("commutator", np.max(np.abs(comm), axis=(1, 2)), tol, f.U)
    b_values: list[list[float]] = []
    spread = 0.0
    # eigh only for the vectors: its eigenvalues differ from eigvalsh's at
    # roundoff, and the reported spectrum is eigvalsh's
    Q = np.linalg.eigh(A)[1]
    for ci in range(len(clusters)):
        Qb = _cluster_columns(Q, mults, ci)
        block_eigs = np.linalg.eigvalsh(_symmetric(np.swapaxes(Qb, 1, 2) @ B @ Qb))
        mean_be = block_eigs.mean(axis=0)
        spread = max(spread, float(np.max(np.abs(block_eigs - mean_be[None, :]))))
        b_values.append([float(v) for v in mean_be])
    b_max = [max(map(abs, vals)) for vals in b_values]
    nearest = b_max.index(min(b_max))
    rows["zero_block_b"] = Gate("zero_block_b", b_max[nearest], tol)
    return EigenStructure(
        t=len(clusters),
        eigenvalues=[float(c[0]) for c in clusters],
        multiplicities=mults,
        b_values=b_values,
        zero_block=nearest if rows["zero_block_b"].passes else None,
        block_b_spread=spread,
    ), rows


def check_bibj(eigen: EigenStructure) -> float:
    """Cross-block residual of the relation -B_i B_j + A_i + A_j = 0.

    Applicable with t >= 3 or with t = 2 and one vanishing B-block; the max
    over all cross-block value pairs is returned.
    """
    blocks = list(zip(eigen.eigenvalues, eigen.b_values))
    return max((abs(-Ba * Bb + la + lb) for (la, ba), (lb, bb) in combinations(blocks, 2)
                for Ba in ba for Bb in bb), default=0.0)


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
    """Assign a branch to a precomputed invariant field, one evaluated with
    derivatives=True; every gate row and the eigenvalue clustering use
    classify_tol, a finite number > 0."""
    check_positive("classify_tol", classify_tol)
    if f.dA is None:
        raise ValidationError("classify_field needs a field evaluated with derivatives=True")
    report = _inconclusive(f.chart, f.U, classify_tol)
    grad_a = _parallel_gate("grad_a_norm", f.dA, f.A, f.U, classify_tol)
    phi = Gate.worst("phi_norm", f.phi_norm(), classify_tol, f.U)
    grad_b = _parallel_gate("grad_b_norm", f.dB, f.B, f.U, classify_tol)
    report.gates = [grad_a, phi, grad_b]
    report.residuals = {g.name: g.value for g in report.gates}
    if not grad_a.passes:
        report.branch = BRANCH_NOT_PARALLEL_A
        return report
    if not phi.passes:
        report.failing_gate = "conformal_form"
        report.notes.append(
            "numerical inconsistency: the conformal form does not vanish although "
            "the Blaschke tensor is parallel; this combination is impossible, so "
            "the computation (not the geometry) is at fault"
        )
        return report
    eigen, rows = eigen_structure(f, classify_tol)
    report.gates.append(rows["eigenvalue_constancy"])
    if not report.gates[-1].passes:
        report.failing_gate = "eigenvalue_constancy"
        return report
    report.eigen = eigen
    report.gates.append(rows["eigenvalue_clusters"])
    if eigen.t >= 2:
        report.gates.append(rows["commutator"])
        if not report.gates[-1].passes:
            report.failing_gate = "commutator"
            return report
        report.residuals["bibj_residual"] = check_bibj(eigen)
    if eigen.t == 1:
        report.branch = BRANCH_ISOTROPIC
        return report
    if grad_b.passes:
        report.branch = BRANCH_PARALLEL_B
        return report
    # non-parallel B: two blocks, one with vanishing B, opposite Blaschke eigenvalues
    if eigen.t != 2:
        report.failing_gate = "two_block_structure"
        report.notes.append(f"non-parallel B with t={eigen.t}; the classification admits only t=2 here")
        return report
    lam_sum = Gate("zero_block_lambda_sum", abs(eigen.eigenvalues[0] + eigen.eigenvalues[1]),
                   gap_bound(eigen.eigenvalues, classify_tol))
    report.gates += [rows["zero_block_b"], lam_sum]
    if not (rows["zero_block_b"].passes and lam_sum.passes):
        report.failing_gate = "zero_block"
        return report
    lam = eigen.eigenvalues[1 - eigen.zero_block]
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
