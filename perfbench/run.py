"""confgeo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload field-analytic --seed 1 --seconds 10 --trace 0

Run from the root of a confgeo checkout; confgeo is imported from its
``src`` directory.  Every process this script starts uses one BLAS/OpenMP
thread.  The script prints a detailed record (environment, per-op results)
and then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Workloads, metrics and layers are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up samples per run; an in-process run also splits its timed passes
# over this many fresh processes, so one process's luck (memory layout, a
# slow spell of the host) weighs a third
SETUP_SAMPLES = 3
THREADS = 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# caches of the reference machine (Intel Xeon, 2 cores) the working sets are compared with
L2_BYTES = 4 * 2**20
L3_BYTES = 105 * 2**20
# whole-run budget; every child process is killed once it is spent
RUN_BUDGET_S = 170.0

END_TO_END = {
    "points_per_s": "pts/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "headroom_log10.min": "log10",
}


class BenchError(Exception):
    pass


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: str(THREADS) for name in THREAD_ENV})
    env["PYTHONPATH"] = str(SRC)
    # sympy's expression ordering follows str hashing; fix it so compile work repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["confgeo"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"confgeo was imported from {result['confgeo']}, not from {SRC}")
    return result


def build(env: dict, deadline: float) -> None:
    """Byte-compile the package once, as an installed copy would be."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "confgeo")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


# ---------------------------------------------------------------------------
# cold CLI
# ---------------------------------------------------------------------------

def run_cli(op: workloads.Op, env: dict, spans_file: Path | None, deadline: float) -> dict:
    """One `classify` process: wall time from spawn to exit, and its own CPU time
    (user + system) and peak RSS from wait4."""
    argv = workloads.cli_argv(op)
    if spans_file is None:
        cmd = [sys.executable, "-m", "confgeo.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_launch.py"), str(spans_file), *argv]
    timeout = remaining(deadline)
    with open(OUT / "cli.stdout", "w+b") as out, open(OUT / "cli.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    checks, error = workloads.cli_checks(op, proc.returncode, stdout)
    if error:
        error += ": " + stderr.strip()[-500:]
    return dict(op.meta(), cpu_s=usage.ru_utime + usage.ru_stime, wall_s=elapsed,
                rss_mb=usage.ru_maxrss / 1024.0, **workloads.verdict(checks, error))


def cli_pass(ops, env: dict, traced: bool, deadline: float) -> tuple[list[dict], list[dict]]:
    records, groups = [], []
    for i, op in enumerate(ops):
        spans_file = OUT / f"cli-spans-{i}.jsonl" if traced else None
        if spans_file is not None:
            spans_file.unlink(missing_ok=True)
        records.append(run_cli(op, env, spans_file, deadline))
        if spans_file is not None and spans_file.exists():
            spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
            groups.append([dict(s, op=i) for s in spans])
    return records, tracer.merge(groups)


def cli_cold(args, env: dict, deadline: float) -> dict:
    ops = workloads.cli_ops(args.seed)
    metas = [op.meta() for op in ops]
    worker = ["--workload", args.workload, "--seed", str(args.seed)]
    records: list[dict] = []
    detail = {"records": records, "ops_in_pass": metas}
    if args.trace:
        span_groups: list[list[dict]] = []

        def traced() -> None:
            recs, spans = cli_pass(ops, env, True, deadline)
            records.extend(recs)
            span_groups.append(spans)

        walls = workloads.alternate(lambda: records.extend(cli_pass(ops, env, False, deadline)[0]),
                                    traced, args.seconds)
        passes = [tracer.pass_metrics(spans, metas) for spans in span_groups]
        detail["layers"] = per_layer(passes, {name: 0.0 for name in tracer.SETUP_LAYERS}, walls)
        merged = tracer.merge([[dict(s, phase=f"pass{i}") for s in spans] for i, spans in enumerate(span_groups)])
        spans_path(args).write_text("".join(json.dumps(s) + "\n" for s in merged))
    else:
        setups = [run_worker(worker + ["--role", "setup"], env, deadline) for _ in range(SETUP_SAMPLES - 1)]
        workloads.repeat_passes(lambda: records.extend(cli_pass(ops, env, False, deadline)[0]), args.seconds)
        detail["peak_rss_mb"] = max(r["rss_mb"] for r in records)
    probe = run_worker(worker + ["--role", "probe"], env, deadline)
    detail["working_set"] = probe["working_set"]
    if not args.trace:
        detail["setup_samples"] = [s["setup_s"] for s in setups + [probe]]
        detail["setup_wall_samples"] = [s["setup_wall_s"] for s in setups + [probe]]
    return detail


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def in_process(args, env: dict, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        res = run_worker(common + ["--seconds", str(args.seconds), "--role", "trace",
                                   "--spans", str(spans_path(args))], env, deadline)
        return {"records": res["records"], "layers": per_layer(res["passes"], res["setup_layers"], res["walls"]),
                "working_set": res["working_set"], "ops_in_pass": res["ops_in_pass"]}
    share = ["--seconds", str(args.seconds / SETUP_SAMPLES), "--role", "run"]
    runs = [run_worker(common + share + (["--working-set"] if i == 0 else []), env, deadline)
            for i in range(SETUP_SAMPLES)]
    return {
        "records": [r for res in runs for r in res["records"]],
        "setup_samples": [res["setup_s"] for res in runs],
        "setup_wall_samples": [res["setup_wall_s"] for res in runs],
        "peak_rss_mb": max(res["peak_rss_mb"] for res in runs),
        "working_set": runs[0]["working_set"],
        "ops_in_pass": runs[0]["ops_in_pass"],
    }


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def end_to_end(detail: dict) -> dict:
    records = detail["records"]
    times = [r["cpu_s"] for r in records]
    passed_points = sum(r["points"] for r in records if r["ok"])
    finite = [r["headroom"] for r in records if r["headroom"] is not None]
    out = {
        "points_per_s": passed_points / sum(times),
        "op_s.p50": statistics.median(times),
        "setup_s": statistics.median(detail["setup_samples"]),
        "peak_rss_mb": detail["peak_rss_mb"],
        "headroom_log10.min": min(finite) if finite else 0.0,
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        "op_s.samples": len(times),
        "wall.points_per_s": passed_points / sum(r["wall_s"] for r in records),
        "wall.op_s.p50": statistics.median(r["wall_s"] for r in records),
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(times) >= 100:
        out["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return out


def per_layer(passes: list[dict], setup_layers: dict, walls: dict) -> dict:
    """Counts from the first traced pass, times as the median over traced passes."""
    first = passes[0]
    out = {}
    for name, unit in tracer.PER_LAYER.items():
        out[name] = statistics.median(p[name] for p in passes) if unit == tracer.SECONDS else first[name]
    for name in tracer.SETUP_LAYERS:
        out[name] += setup_layers[name]
    out["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    counts_repeat = all(p[name] == first[name] for p in passes
                        for name, unit in tracer.PER_LAYER.items() if unit != tracer.SECONDS)
    return {"metrics": out, "passes": len(passes), "counts_repeat": counts_repeat, "walls": walls}


def spans_path(args) -> Path:
    return OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, env: dict, working_set: dict | None) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    out = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "blas_threads": THREADS,
        "thread_env": {name: env[name] for name in THREAD_ENV},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "l2_bytes": L2_BYTES,
        "l3_bytes": L3_BYTES,
    }
    if working_set is not None:
        out["working_set"] = {
            label: dict(ws, l2_multiple=ws["bytes"] / L2_BYTES, l3_multiple=ws["bytes"] / L3_BYTES)
            for label, ws in working_set.items()
        }
        out["working_set_bytes"] = max(ws["bytes"] for ws in working_set.values())
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "confgeo" / "__init__.py").is_file():
        print(f"error: no confgeo sources under {SRC}; run from a confgeo checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = bench_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        build(env, deadline)
        if args.workload == "cli-cold":
            detail = cli_cold(args, env, deadline)
        else:
            detail = in_process(args, env, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = detail["records"]
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        values = detail["layers"]["metrics"]
        units = tracer.PER_LAYER
    else:
        values = end_to_end(detail)
        detail["end_to_end"] = values
        units = END_TO_END
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=environment(args, env, detail.get("working_set")))
    text = json.dumps(detail, sort_keys=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
