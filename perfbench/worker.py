"""One workload process: set-up, then timed or traced passes over the op pool.

run.py starts this script in a fresh interpreter for every sample, so
`setup_s` includes the imports.  Ops and set-up are timed twice: in CPU
seconds of this process (`process_time`, the basis of the metrics) and in
wall seconds (kept in the record).  Roles:

  setup  set up, report setup_s and exit
  run    set up, run untraced passes for --seconds, then (--working-set)
         compute the working set
  trace  set up with the tracer installed, then alternate one untraced and
         one traced pass until --seconds have passed
  probe  (cli-cold) working set of each CLI op, from an in-process replica

The last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()
C0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def run_pass(workload, ops, tracer=None) -> list[dict]:
    """Evaluate every op once; time the op only, then check its outputs."""
    from confgeo.errors import ComputationError

    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            f, a_eigs = workloads.run_op(workload, op)
        except ComputationError as exc:
            error = f"{type(exc).__name__}: {exc}"
        cpu_s, wall_s = time.process_time() - cpu_start, time.perf_counter() - start
        if tracer is not None:
            tracer.op = -1
        checks = [] if error else workloads.field_checks(op, f, a_eigs)
        records.append(dict(op.meta(), cpu_s=cpu_s, wall_s=wall_s, **workloads.verdict(checks, error)))
    return records


def setup(workload: str, seed: int):
    ops = workloads.in_process_ops(workload, seed)
    for op in ops:  # sympy jet compilation and numpy warm-up on a slice of the batch
        workloads.run_op(workload, op, op.U[: workloads.WARMUP_POINTS])
    return ops


def working_set(workload: str, ops) -> dict:
    """Largest shape_batch result of each op, scaled from a warm-up-sized probe."""
    out = {}
    n = workloads.WARMUP_POINTS
    for op in ops:
        rows, nbytes = workloads.largest_shape_batch(lambda: workloads.run_op(workload, op, op.U[:n]))
        out[op.label] = {"rows": rows * op.points // n, "bytes": nbytes * op.points // n}
    return out


def cli_working_set(seed: int) -> dict:
    """Working set of each cold-CLI op: its chart, lifted as classify lifts it, on a probe batch."""
    import confgeo

    out = {}
    n = workloads.WARMUP_POINTS
    for op in workloads.cli_ops(seed):
        if op.label in out:
            continue
        chart = confgeo.catalog.build_instance(op.label, **op.params)
        if chart.ambient.kind != "de_sitter":
            chart = confgeo.lift_chart(chart, "psi1")
        U = confgeo.grid_points(chart.domain, [workloads.CLI_GRID],
                                margin=workloads.cli_margin(chart, confgeo.DEFAULT))[:n]
        rows, nbytes = workloads.largest_shape_batch(lambda: confgeo.evaluate_field(chart, U))
        out[op.label] = {"rows": rows * op.points // n, "bytes": nbytes * op.points // n}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--role", choices=("setup", "run", "trace", "probe"), required=True)
    ap.add_argument("--spans", type=str, default=None, help="file for the traced run's spans")
    ap.add_argument("--working-set", action="store_true", help="run role: also report the working set")
    args = ap.parse_args(argv)

    if args.workload == "cli-cold":
        import confgeo.cli  # noqa: F401  -- what every cold CLI op imports first

        result = {"setup_s": time.process_time() - C0, "setup_wall_s": time.perf_counter() - T0,
                  "confgeo": confgeo.cli.__file__}
        if args.role == "probe":
            result["working_set"] = cli_working_set(args.seed)
        print(json.dumps(result))
        return 0

    import confgeo

    tracer = None
    if args.role == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = setup(args.workload, args.seed)
    result = {"setup_s": time.process_time() - C0, "setup_wall_s": time.perf_counter() - T0,
              "confgeo": confgeo.__file__, "ops_in_pass": [op.meta() for op in ops]}
    if args.role == "run":
        records = []
        workloads.repeat_passes(lambda: records.extend(run_pass(args.workload, ops)), args.seconds)
        result["records"] = records
        if args.working_set:
            result["working_set"] = working_set(args.workload, ops)
    elif args.role == "trace":
        from tracer import SETUP_LAYERS, pass_metrics, select

        tracer.uninstall()
        result["working_set"] = working_set(args.workload, ops)
        records, phases = [], []

        def untraced() -> None:
            records.extend(run_pass(args.workload, ops))

        def traced() -> None:
            tracer.phase = f"pass{len(phases)}"
            phases.append(tracer.phase)
            tracer.install()
            try:
                records.extend(run_pass(args.workload, ops, tracer))
            finally:
                tracer.uninstall()

        walls = workloads.alternate(untraced, traced, args.seconds)
        spans = tracer.dump()
        metas = [op.meta() for op in ops]
        setup_layers = pass_metrics(select(spans, "setup"), [])
        result.update(records=records, walls=walls,
                      passes=[pass_metrics(select(spans, phase), metas) for phase in phases],
                      setup_layers={k: setup_layers[k] for k in SETUP_LAYERS})
        if args.spans:
            Path(args.spans).write_text("".join(json.dumps(s) + "\n" for s in spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
