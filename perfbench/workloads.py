"""The benchmark workloads: seed-drawn inputs, the timed op and its checks.

Importing this module loads numpy only; confgeo is imported inside the
functions that need it, so run.py, the parent process of every workload,
never loads it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("field-analytic", "field-fd", "spectrum-scan", "cli-cold")

# cross-route agreement required by `confgeo verify-catalog`
CROSS_ROUTE_TOL = 1e-6
# Blaschke spectrum of the assembled ex33 example, relative (acceptance criterion 3)
EX33_SPECTRUM_RTOL = 1e-5
# points of each chart's batch evaluated once during set-up
WARMUP_POINTS = 2
# the verify-catalog grid the cold CLI classifies on
CLI_GRID = 3


@dataclass(frozen=True)
class ChartSpec:
    label: str
    family: str          # catalog name
    lift: str | None     # conformal lift into the unit de Sitter picture
    jet_mode: str        # "analytic" or "fd"
    batch: int           # points per op
    batches: int = 1     # ops (distinct batches) per pass


# workload -> (evaluate_field keywords, charts).  Batch sizes make the ops of
# a workload cost about the same, so the median op time does not fall
# between two groups of differently priced charts.  FD residuals are
# roundoff-driven and vary from point to point, so field-fd checks two
# batches per chart to keep its worst-case headroom steady across seeds.
IN_PROCESS: dict[str, tuple[dict, tuple[ChartSpec, ...]]] = {
    "field-analytic": (
        {"derivatives": True, "curvature": True, "cross_check": True},
        (
            ChartSpec("sxh", "sxh", None, "analytic", 40, batches=4),
            ChartSpec("wp@psi1", "wp", "psi1", "analytic", 8, batches=4),
            ChartSpec("ex33", "ex33", None, "analytic", 8, batches=4),
        ),
    ),
    "field-fd": (
        {"derivatives": True, "curvature": True, "cross_check": False},
        (
            ChartSpec("sxh", "sxh", None, "fd", 27, batches=2),
            ChartSpec("hxr@psi1", "hxr", "psi1", "fd", 16, batches=2),
        ),
    ),
    "spectrum-scan": (
        {"derivatives": False, "curvature": False, "cross_check": False},
        (
            ChartSpec("sxh", "sxh", None, "analytic", 3000),
            ChartSpec("wp@psi1", "wp", "psi1", "analytic", 1000),
        ),
    ),
}

# cold-CLI families: fixed parameters and the ranges drawn from the seed.
# Every value in these ranges classified as ParallelB at the seed commit with
# gate headroom >= 1.65 decades and Blaschke clusters >= 0.06 apart; hxh
# stops at a = 0.45 because its two clusters approach each other towards
# a = 0.58, and hxr and ex33 have no free continuous parameter.
CLI_FAMILIES: dict[str, tuple[dict[str, int], dict[str, tuple[float, float]]]] = {
    "hxr": ({"m": 3, "k": 1}, {}),
    "sxh": ({"m": 3, "k": 1}, {"a": (1.2, 1.6)}),
    "hxh": ({"m": 3, "k": 1}, {"a": (0.3, 0.45)}),
    "wp": ({"m": 4, "p": 1, "q": 1}, {"a": (1.5, 2.5)}),
    "ex33": ({"m": 4, "K": 2, "split": 1}, {}),
}
# a pass of ten cold processes takes 20-35 s, so every run times exactly one
# pass: the same family mix and sample count whatever the machine's speed
CLI_OPS_PER_FAMILY = 2
CLI_BRANCH = "ParallelB"
CLI_GATES = ("grad_a_norm", "grad_b_norm", "phi_norm")


@dataclass
class Op:
    """One timed operation: a chart and its batch, or one CLI invocation."""

    label: str
    m: int
    points: int
    chart: object = None
    U: np.ndarray | None = None
    params: dict | None = None   # catalog parameters of a CLI op

    def meta(self) -> dict:
        return {"label": self.label, "m": self.m, "points": self.points}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def cli_margin(chart, cfg) -> float:
    """The CLI's inset rule for grids: the stencil reach, at least 5% of the narrowest side.

    Versions of confgeo without `required_margin` inset by the 5% alone.
    """
    from confgeo import invariants

    required = getattr(invariants, "required_margin", None)
    reach = required(chart, cfg) if required is not None else 0.0
    return max(reach, 0.05 * min(h - l for l, h in zip(chart.domain.lo, chart.domain.hi)))


def sample_points(chart, n: int, rng: np.random.Generator, cfg) -> np.ndarray:
    """n points uniform in the chart's domain, inset by the CLI's margin."""
    lo, hi = chart.domain.arrays()
    margin = cli_margin(chart, cfg)
    return lo + margin + rng.random((n, chart.m)) * (hi - lo - 2.0 * margin)


def build_chart(spec: ChartSpec):
    import confgeo

    chart = confgeo.catalog.build_instance(spec.family)
    if spec.lift:
        chart = confgeo.lift_chart(chart, spec.lift)
    if spec.jet_mode != chart.jet_mode:
        chart = chart.with_jet_mode(spec.jet_mode)
    return chart


def in_process_ops(workload: str, seed: int) -> list[Op]:
    """Build the workload's charts and draw their batches from the seed."""
    import confgeo

    _, specs = IN_PROCESS[workload]
    rng = np.random.default_rng(seed)
    ops = []
    for spec in specs:
        chart = build_chart(spec)
        for _ in range(spec.batches):
            U = sample_points(chart, spec.batch, rng, confgeo.DEFAULT)
            ops.append(Op(spec.label, chart.m, spec.batch, chart=chart, U=U))
    return ops


def cli_ops(seed: int) -> list[Op]:
    """CLI_OPS_PER_FAMILY `classify` invocations per family, each with its own
    drawn parameters, in a seed-drawn order."""
    rng = np.random.default_rng(seed)
    ops = []
    for name, (fixed, ranges) in CLI_FAMILIES.items():
        for _ in range(CLI_OPS_PER_FAMILY):
            params = dict(fixed)
            for key, (lo, hi) in sorted(ranges.items()):
                params[key] = float(rng.uniform(lo, hi))
            ops.append(Op(name, params["m"], CLI_GRID ** params["m"], params=params))
    return [ops[i] for i in rng.permutation(len(ops))]


def cli_argv(op: Op) -> list[str]:
    argv = ["classify", "--catalog", op.label]
    for key, value in op.params.items():
        argv += [f"--{key}", repr(value)]
    return argv + ["--grid", str(CLI_GRID)]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def repeat_passes(run_pass, seconds: float) -> None:
    """Run whole passes and stop at the pass boundary nearest to `seconds`; at least one pass."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        run_pass()
        now = time.perf_counter()
        if now - start + 0.5 * (now - t) >= seconds:
            return


def alternate(untraced, traced, seconds: float) -> dict[str, list[float]]:
    """Repeat pairs of an untraced and a traced pass; returns every pass's wall time by kind."""
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}

    def pair() -> None:
        for kind, run_pass in (("untraced", untraced), ("traced", traced)):
            t = time.perf_counter()
            run_pass()
            walls[kind].append(time.perf_counter() - t)

    repeat_passes(pair, seconds)
    return walls


# ---------------------------------------------------------------------------
# the timed op
# ---------------------------------------------------------------------------

def run_op(workload: str, op: Op, U: np.ndarray | None = None):
    """Evaluate one op; spectrum-scan also takes both spectra.  Returns (field, A eigenvalues)."""
    import confgeo

    kwargs, _ = IN_PROCESS[workload]
    f = confgeo.evaluate_field(op.chart, op.U if U is None else U, **kwargs)
    if workload == "spectrum-scan":
        a_eigs = f.A_eigs()
        f.B_eigs()
        return f, a_eigs
    return f, None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def field_checks(op: Op, f, a_eigs: np.ndarray | None) -> list[tuple[str, float, float]]:
    """(identity, worst value, tolerance) for every check of an in-process op."""
    cfg = f.cfg
    analytic = op.chart.jet_mode == "analytic"
    out = []
    for key, value in sorted(f.residuals.items()):
        if key.startswith("cross_"):
            tol = CROSS_ROUTE_TOL
        elif key in ("trace_b", "norm_b"):
            tol = cfg.tier(analytic)
        elif key == "trace_a_scalar":
            tol = cfg.trace_a_tol
        else:
            tol = cfg.residual_tier(analytic)
        out.append((key, float(value), tol))
    eigs = f.A_eigs() if a_eigs is None else a_eigs
    # every catalog chart has parallel A: its spectrum is constant over the batch
    scale = max(1.0, float(np.max(np.abs(eigs))))
    out.append(("a_spectrum_constant", float(np.max(np.abs(eigs - eigs.mean(axis=0)))),
                cfg.classify_tol * scale))
    params = op.chart.params
    if op.chart.template == "ex33":
        lam = 1.0 / (2.0 * params["r"] ** 2)
        expected = np.array([-lam] * params["K"] + [lam] * (op.m - params["K"]))
        out.append(("a_spectrum_ex33", float(np.max(np.abs(eigs - expected))) / lam, EX33_SPECTRUM_RTOL))
    return out


def cli_checks(op: Op, returncode: int, stdout: str) -> tuple[list[tuple[str, float, float]], str | None]:
    """Gate residuals of a `classify` report, or the reason the op failed."""
    import json

    if returncode != 0:
        return [], f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [], f"unparsable report: {exc}"
    if report.get("branch") != CLI_BRANCH:
        return [], f"branch {report.get('branch')!r}, expected {CLI_BRANCH!r}"
    if report.get("grid", {}).get("n_points") != op.points:
        return [], f"grid of {report.get('grid')} points, expected {op.points}"
    tol = report["tolerances"]["classify_tol"]
    return [(gate, float(report["residuals"][gate]), tol) for gate in CLI_GATES], None


def verdict(checks: list[tuple[str, float, float]], error: str | None) -> dict:
    """Pass/fail of one op and its headroom: min over checks of log10(tolerance / value)."""
    ok = error is None and all(value <= tol for _, value, tol in checks)
    headroom, worst = math.inf, None
    for name, value, tol in checks:
        if math.isfinite(value):
            h = math.log10(tol / max(value, np.finfo(float).tiny))
            if h < headroom:
                headroom, worst = h, name
    return {"ok": ok, "error": error, "headroom": headroom if worst else None, "worst": worst}


# ---------------------------------------------------------------------------
# working set
# ---------------------------------------------------------------------------

def largest_shape_batch(fn) -> tuple[int, int]:
    """(rows, bytes) of the largest `shape_batch` result while fn runs.

    Bytes are the sizes of the ShapeBatch arrays (points, jets up to order 2,
    metric, inverse, normal, h, H, rho, frame): the data every later stage of
    an op reads, so the op's working set as computed from array sizes.
    """
    import confgeo.chart

    from tracer import rebind, restore

    original = confgeo.chart.shape_batch
    largest = [0, 0]

    def probe(*args, **kwargs):
        sb = original(*args, **kwargs)
        rows = sb.U.shape[0]
        if rows > largest[0]:
            largest[:] = [rows, sum(v.nbytes for v in vars(sb).values() if isinstance(v, np.ndarray))]
        return sb

    undo = rebind(original, probe)
    try:
        fn()
    finally:
        restore(undo)
    return largest[0], largest[1]
