"""Tests of the benchmark itself: repeatable counts, seed-driven inputs, the metric contract.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_two_traced_runs(workload):
    first, second = (last_json(bench(workload, 7, 1)) for _ in range(2))
    counted = [name for name, unit in tracer.PER_LAYER.items() if unit != tracer.SECONDS]
    assert first["correct"] and second["correct"]
    assert {n: first["metrics"][n]["value"] for n in counted} == {n: second["metrics"][n]["value"] for n in counted}
    assert first["metrics"]["amplification.jet"]["value"] > 1


@pytest.mark.parametrize("workload", sorted(workloads.IN_PROCESS))
def test_other_seed_changes_inputs_not_checks(workload):
    drawn = {seed: workloads.in_process_ops(workload, seed) for seed in (1, 2)}
    again = workloads.in_process_ops(workload, 1)
    for a, b, c in zip(drawn[1], drawn[2], again):
        assert (a.label, a.points, a.chart.name) == (b.label, b.points, b.chart.name)
        assert np.array_equal(a.U, c.U)
        assert not np.array_equal(a.U, b.U)
        checks = []
        for op in (a, b):
            U = op.U[: workloads.WARMUP_POINTS]
            f, a_eigs = workloads.run_op(workload, op, U)
            checks.append([(name, tol) for name, _, tol in workloads.field_checks(op, f, a_eigs)])
        assert checks[0] == checks[1]


def test_other_seed_changes_cli_parameters_not_families():
    one, two = workloads.cli_ops(1), workloads.cli_ops(2)
    assert [op.params for op in one] == [op.params for op in workloads.cli_ops(1)]
    families = sorted(workloads.CLI_FAMILIES) * workloads.CLI_OPS_PER_FAMILY
    assert sorted(op.label for op in one) == sorted(op.label for op in two) == sorted(families)
    assert [op.params for op in one] != [op.params for op in two]
    for op in one + two:
        fixed, ranges = workloads.CLI_FAMILIES[op.label]
        assert all(op.params[k] == v for k, v in fixed.items())
        assert all(lo <= op.params[k] <= hi for k, (lo, hi) in ranges.items())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in spec["workloads"]) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("field-fd", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
