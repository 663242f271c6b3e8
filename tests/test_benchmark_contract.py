"""The benchmark's contract with the package.

perfbench/ times and checks confgeo through a fixed set of names: the
shape_batch it rebinds, evaluate_field's keywords, the InvariantField
attributes and NumericsConfig tiers its checks read, required_margin, and
the catalog, lift and grid helpers it builds its inputs with.  These tests
run perfbench's own inputs, checks and probes on a few points each, so a
change that breaks one of those names fails here and not first in a
benchmark run.  perfbench is only read: it is imported from its directory
without writing bytecode there.
"""

import sys
from pathlib import Path

import pytest

import confgeo
from confgeo import invariants
from confgeo.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer  # noqa: F401  largest_shape_batch imports it on use
        import workloads as module

        yield module
    finally:
        sys.dont_write_bytecode = saved[0]
        sys.path[:] = saved[1]
        for name in ("workloads", "tracer"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["field-analytic", "field-fd", "spectrum-scan"])
def test_in_process_ops_pass_their_checks(workloads, workload):
    for op in workloads.in_process_ops(workload, 1):
        f, a_eigs = workloads.run_op(workload, op, op.U[: workloads.WARMUP_POINTS])
        result = workloads.verdict(workloads.field_checks(op, f, a_eigs), None)
        assert result["ok"], (op.label, result)


def test_working_set_probe_runs(workloads):
    op = workloads.in_process_ops("field-analytic", 1)[0]
    workloads.largest_shape_batch(
        lambda: workloads.run_op("field-analytic", op, op.U[: workloads.WARMUP_POINTS])
    )


def test_cli_ops_are_valid_commands(workloads):
    parser = build_parser()
    for op in workloads.cli_ops(1):
        args = parser.parse_args(workloads.cli_argv(op))
        assert (args.command, args.catalog) == ("classify", op.label)
        confgeo.catalog.build_instance(op.label, **op.params)


@pytest.mark.parametrize("workload", ["field-analytic", "field-fd"])
def test_cli_margin_is_the_grid_margin(workloads, workload):
    for op in workloads.in_process_ops(workload, 1):
        assert workloads.cli_margin(op.chart, confgeo.DEFAULT) == invariants.grid_margin(op.chart)


def test_fields_carry_the_default_config(sxh_chart):
    # perfbench's field_checks reads its tiers and classify_tol through f.cfg
    U = confgeo.grid_points(sxh_chart.domain, [3], margin=0.05)[:2]
    jet = sxh_chart.jet(U, invariants.jet_order(derivatives=False))
    fields = (
        invariants.evaluate_field(sxh_chart, U, derivatives=False, curvature=False),
        invariants.field_from_jet(sxh_chart, U, jet, derivatives=False, curvature=False),
    )
    assert all(f.cfg is confgeo.DEFAULT for f in fields)


def test_gate_headroom_is_the_benchmark_headroom(workloads, sxh_chart):
    # a report's headroom and perfbench's headroom_log10 read one rule
    for g in confgeo.classify(sxh_chart).gates:
        result = workloads.verdict([(g.name, g.value, g.tolerance)], None)
        assert (result["headroom"], result["ok"]) == (g.headroom, g.passes)
