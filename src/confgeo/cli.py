"""Command-line front end.

Subcommands and the flags each one reads (no subcommand takes a flag it
ignores):

    analyze         chart flags, --grid, --out, --format json|csv
    classify        chart flags, --grid, --out, --classify-tol
    residuals       chart flags, --grid, --out
    verify-catalog  --grid, --out
    map             --which, --point, --out

Chart flags name one chart (--catalog with the family parameters, or
--chart-file) and the --lift that moves it into the de Sitter picture;
analyze, classify, residuals and verify-catalog all build their grid and
jet through invariants.grid_jet.  Reports are deterministic: keys sorted,
floats printed with 17 significant digits, no timestamps; identical
configurations yield byte-identical output.  Exit codes: 0 success (and
--help), 1 validation/input error, usage errors included, a malformed or
unreadable chart file and an --out that cannot be written among them
(one `error: ...` line), 2 computation or consistency error (a partial
report is still written once computation has started; a failed write of
it adds an `error: ...` line and keeps exit 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .chart import load_chart, regularity_from_jet
from .classifier import classify
from .config import CATALOG_CHECK_TOL, DEFAULT, ON_FORM_TOL, Gate, check_positive, gate_table
from .conformal_atlas import MAP_TAGS, compose_maps, embed, is_null, psi, t_swap
from .errors import ComputationError, ConfGeoError, ConstructionError, InputError
from .invariants import (
    field_from_jet,
    field_report,
    field_report_csv,
    grid_jet,
    residual_gates,
)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k in sorted(value, key=str):
            items.append(f'{pad}  "{k}": {_fmt(value[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_fmt(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if np.isfinite(v) else f'"{v}"'
    import json as _json

    return _json.dumps(str(value))


def render_json(data: dict) -> str:
    return _fmt(data) + "\n"


def _write_report(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write report to {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_chart_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", type=str, help="catalog chart name (hxr, sxh, hxh, wp, ex32, ex33)")
    p.add_argument("--chart-file", type=str, help="chart definition JSON file")
    for name, kind in catalog.PARAMETERS.items():
        p.add_argument(f"--{name}", type=kind, default=None)
    p.add_argument("--lift", type=str, default="psi1", choices=["psi1", "psi2"])


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, nargs="+", default=[3], help="per-axis grid counts (>= 3)")
    p.add_argument("--out", type=str, default=None)


def _build_chart(args) -> "catalog.ImmersionChart":
    if bool(args.catalog) == bool(args.chart_file):
        raise InputError("provide exactly one of --catalog or --chart-file")
    if args.chart_file:
        return load_chart(args.chart_file)
    given = {name: getattr(args, name) for name in catalog.PARAMETERS}
    return catalog.build_instance(args.catalog, **{k: v for k, v in given.items() if v is not None})


def _prepare_field(args):
    chart = _build_chart(args)
    work, U, jet = grid_jet(chart, args.grid, args.lift)
    return chart, field_from_jet(work, U, jet, derivatives=True, curvature=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    chart, f = _prepare_field(args)
    if args.format == "csv":
        _write_report(field_report_csv(f), args.out)
    else:
        rep = field_report(f)
        rep["source_chart"] = chart.name
        _write_report(render_json(rep), args.out)
    return 0


def _cmd_residuals(args) -> int:
    chart, f = _prepare_field(args)
    gates = residual_gates(f)
    rep = {
        "chart": chart.name,
        "jet_mode": f.chart.jet_mode,
        "n_points": int(f.U.shape[0]),
        "gates": gate_table(gates),
        "pass": all(g.passes for g in gates),
    }
    _write_report(render_json(rep), args.out)
    return 0


def _cmd_classify(args) -> int:
    check_positive("--classify-tol", args.classify_tol)
    chart = _build_chart(args)
    rep = classify(chart, counts=args.grid, classify_tol=args.classify_tol, lift=args.lift)
    _write_report(render_json(rep.to_dict()), args.out)
    return 0


def _cmd_verify_catalog(args) -> int:
    results = {}
    for name in sorted(catalog.DEFAULT_INSTANCES):
        try:
            chart = catalog.build_instance(name)
        except ConstructionError as exc:
            results[name] = {"status": "infeasible (documented)", "detail": str(exc)}
            continue
        work, U, jet = grid_jet(chart, args.grid)
        reg = regularity_from_jet(work, jet)
        f = field_from_jet(work, U, jet, derivatives=True, curvature=True, cross_check=True)
        # every catalog chart has Phi = 0, and its two routes must agree
        gates = residual_gates(f) + [
            Gate.worst("phi_norm", f.phi_norm(), CATALOG_CHECK_TOL, f.U),
            Gate("cross_route_max", max(v for k, v in f.residuals.items() if k.startswith("cross_")),
                 CATALOG_CHECK_TOL),
        ]
        ok = reg.regular and all(g.passes for g in gates)
        results[name] = {"status": "pass" if ok else "fail", "regular": reg.regular, "gates": gate_table(gates)}
    all_ok = all(entry["status"] != "fail" for entry in results.values())
    rep = {"catalog": results, "pass": all_ok}
    _write_report(render_json(rep), args.out)
    return 0 if all_ok else 2


def _parse_point(raw: str) -> np.ndarray:
    try:
        pt = np.array([float(tok) for tok in raw.replace(",", " ").split()])
    except ValueError as exc:
        raise InputError(f"cannot parse point {raw!r}: {exc}") from exc
    if not np.all(np.isfinite(pt)):
        raise InputError(f"point {raw!r} has a non-finite coordinate")
    return pt


def _map_point(which: str, pt: np.ndarray, m: int) -> dict:
    tag = MAP_TAGS[which]
    out: dict = {"which": which, "input": [float(v) for v in pt]}
    if which in ("sigma0", "sigma1", "sigma-1"):
        result = embed(pt, which)
        out["lightlike"] = is_null(result)
    elif which in ("psi1", "psi2"):
        # a typed representative must be a point of the conformal space: not
        # zero, and null to the tolerance typed space-form points get
        if not np.any(pt):
            raise InputError("zero vector does not represent a projective point")
        if not is_null(pt, ON_FORM_TOL):
            raise InputError(f"point is off the null cone: |<y,y>| > {ON_FORM_TOL:g} |y|^2")
        result = psi(tag.alpha, pt)
    elif which == "tswap":
        result = t_swap(pt)
    else:
        result = compose_maps(which, pt)
        out["permutation"] = [[float(v) for v in row] for row in tag.permutation(m)]
    out["output"] = [float(v) for v in result]
    out["output_kind"] = "de Sitter point" if tag.alpha is not None else "projective representative"
    return out


def _cmd_map(args) -> int:
    which = args.which
    if which not in MAP_TAGS:
        raise InputError(f"unknown map {which!r}; available: {sorted(MAP_TAGS)}")
    pt = _parse_point(args.point)
    n = pt.shape[0]
    m = MAP_TAGS[which].source_m(n)
    if m < 1:
        raise InputError(f"{which} needs a point of at least {n - m + 1} coordinates (m >= 1), got {n}")
    # an overflow either raises here or leaves a non-finite output; a point
    # or an output whose squares overflow has no form value in double
    # precision, so it counts as an overflow too
    try:
        with np.errstate(over="raise", invalid="raise"):
            np.sum(np.square(pt))
            out = _map_point(which, pt, m)
            np.sum(np.square(out["output"]))
        finite = bool(np.all(np.isfinite(out["output"])))
    except FloatingPointError:
        finite = False
    if not finite:
        raise InputError(f"{which} of point {args.point!r} overflows in double precision")
    _write_report(render_json(out), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confgeo",
        description="Conformal invariants of space-like hypersurfaces in Lorentzian space forms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants and identity residuals over a grid")
    _add_chart_args(p)
    _add_run_args(p)
    p.add_argument("--format", type=str, default="json", choices=["json", "csv"])
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("classify", help="assign a classification branch")
    _add_chart_args(p)
    _add_run_args(p)
    p.add_argument("--classify-tol", type=float, default=DEFAULT.classify_tol)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify-catalog", help="run the catalog invariant suites")
    _add_run_args(p)
    p.set_defaults(fn=_cmd_verify_catalog)

    p = sub.add_parser("map", help="apply a conformal map to a point")
    p.add_argument("--which", type=str, required=True)
    p.add_argument("--point", type=str, required=True, help="comma or space separated coordinates")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("residuals", help="identity-residual suite for one chart")
    _add_chart_args(p)
    _add_run_args(p)
    p.set_defaults(fn=_cmd_residuals)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; every usage error is invalid input
        return 0 if not exc.code else 1
    try:
        return args.fn(args)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        out = getattr(args, "out", None)
        if out:
            try:
                _write_report(render_json({"error": str(exc)}), out)
            except InputError as write_exc:
                print(f"error: {write_exc}", file=sys.stderr)
        return 2
    except ConfGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
