"""Command-line front end.

Subcommands: analyze, classify, verify-catalog, map, residuals.  Reports
are deterministic: keys sorted, floats printed with 17 significant digits,
no timestamps; identical configurations yield byte-identical output.  Exit
codes: 0 success, 1 validation/input error, 2 computation or consistency
error (a partial report is still written once computation has started).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .chart import DE_SITTER, grid_points, load_chart, regularity_from_jet
from .classifier import classify
from .config import CATALOG_CHECK_TOL, DEFAULT, NumericsConfig
from .conformal_atlas import (
    MAP_TAGS,
    ProjectivePoint,
    compose_maps,
    embed,
    lift_chart,
    psi,
    t_swap,
)
from .errors import ComputationError, ConfGeoError, ConstructionError, InputError
from .invariants import (
    evaluate_field,
    field_from_jet,
    field_report,
    field_report_csv,
    grid_margin,
    jet_order,
)
from .pseudo_linalg import PseudoVector, Signature


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
        if v != v:
            return '"nan"'
        if v in (float("inf"), float("-inf")):
            return f'"{v}"'
        return format(v, ".17g")
    import json as _json

    return _json.dumps(str(value))


def render_json(data: dict) -> str:
    return _fmt(data) + "\n"


def _write_report(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_chart_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", type=str, help="catalog chart name (hxr, sxh, hxh, wp, ex32, ex33)")
    p.add_argument("--chart-file", type=str, help="chart definition JSON file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--lift", type=str, default="psi1", choices=["psi1", "psi2"])


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, nargs="+", default=[3], help="per-axis grid counts (>= 3)")
    p.add_argument("--classify-tol", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", type=str, default="json", choices=["json", "csv"])


def _build_chart(args) -> "catalog.ImmersionChart":
    if bool(args.catalog) == bool(args.chart_file):
        raise InputError("provide exactly one of --catalog or --chart-file")
    if args.chart_file:
        return load_chart(args.chart_file)
    overrides = {
        key: getattr(args, key)
        for key in ("m", "k", "a", "p", "q", "K", "split", "r")
        if getattr(args, key, None) is not None
    }
    return catalog.build_instance(args.catalog, **overrides)


def _config(args) -> NumericsConfig:
    cfg = DEFAULT
    tol = getattr(args, "classify_tol", None)
    if tol is not None:
        if not (math.isfinite(tol) and tol > 0):
            raise InputError(f"--classify-tol must be a finite number > 0, got {tol!r}")
        from dataclasses import replace

        cfg = replace(cfg, classify_tol=tol)
    return cfg


def _prepare_field(args, cfg: NumericsConfig):
    chart = _build_chart(args)
    work = chart if chart.ambient.kind == DE_SITTER else lift_chart(chart, args.lift)
    U = grid_points(work.domain, args.grid, margin=grid_margin(work))
    f = evaluate_field(work, U, cfg, derivatives=True, curvature=True)
    return chart, work, f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    cfg = _config(args)
    chart, work, f = _prepare_field(args, cfg)
    if args.format == "csv":
        _write_report(field_report_csv(f), args.out)
    else:
        rep = field_report(f)
        rep["source_chart"] = chart.name
        _write_report(render_json(rep), args.out)
    return 0


def _residual_gates(f, cfg: NumericsConfig, analytic: bool) -> tuple[dict, bool]:
    """Per-identity gate levels: trace identities strict, field-derivative
    residuals at the residual tier."""
    rtier = cfg.residual_tier(analytic)
    strict = cfg.tier(analytic)
    gates = {}
    for key, value in f.residuals.items():
        if key.startswith("cross_"):
            continue
        if key in ("trace_b", "norm_b"):
            gates[key] = (value, strict)
        elif key == "trace_a_scalar":
            gates[key] = (value, max(cfg.trace_a_tol, strict))
        else:
            gates[key] = (value, rtier)
    ok = all(v <= tol for v, tol in gates.values())
    return gates, ok


def _cmd_residuals(args) -> int:
    cfg = _config(args)
    chart, work, f = _prepare_field(args, cfg)
    analytic = work.jet_mode == "analytic"
    gates, ok = _residual_gates(f, cfg, analytic)
    rep = {
        "chart": chart.name,
        "jet_mode": work.jet_mode,
        "n_points": int(f.U.shape[0]),
        "gates": {k: {"value": v, "tolerance": tol} for k, (v, tol) in gates.items()},
        "pass": ok,
    }
    _write_report(render_json(rep), args.out)
    return 0


def _cmd_classify(args) -> int:
    cfg = _config(args)
    chart = _build_chart(args)
    rep = classify(chart, counts=args.grid, cfg=cfg, tol=args.classify_tol, lift=args.lift)
    _write_report(render_json(rep.to_dict()), args.out)
    return 0


def _cmd_verify_catalog(args) -> int:
    cfg = _config(args)
    results = {}
    all_ok = True
    for name in sorted(catalog.DEFAULT_INSTANCES):
        entry: dict = {}
        try:
            chart = catalog.build_instance(name)
        except ConstructionError as exc:
            entry["status"] = "infeasible (documented)"
            entry["detail"] = str(exc)
            results[name] = entry
            continue
        work = chart if chart.ambient.kind == DE_SITTER else lift_chart(chart, "psi1")
        U = grid_points(work.domain, args.grid, margin=grid_margin(work))
        jet = work.jet(U, jet_order(derivatives=True))
        reg = regularity_from_jet(work, U, jet, cfg)
        f = field_from_jet(work, U, jet, cfg, derivatives=True, curvature=True, cross_check=True)
        analytic = work.jet_mode == "analytic"
        gates, res_ok = _residual_gates(f, cfg, analytic)
        cross_ok = max(
            v for k, v in f.residuals.items() if k.startswith("cross_")
        ) <= CATALOG_CHECK_TOL
        phi_ok = float(np.max(f.phi_norm())) <= CATALOG_CHECK_TOL
        ok = bool(reg.regular and res_ok and phi_ok and cross_ok)
        entry.update(
            {
                "status": "pass" if ok else "fail",
                "regular": reg.regular,
                "gates": {k: {"value": v, "tolerance": tol} for k, (v, tol) in gates.items()},
                "cross_route_max": float(
                    max(v for k, v in f.residuals.items() if k.startswith("cross_"))
                ),
                "phi_norm": float(np.max(f.phi_norm())),
            }
        )
        results[name] = entry
        all_ok = all_ok and ok
    rep = {"catalog": results, "pass": all_ok}
    _write_report(render_json(rep), args.out)
    return 0 if all_ok else 2


def _parse_point(raw: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.replace(",", " ").split()])
    except ValueError as exc:
        raise InputError(f"cannot parse point {raw!r}: {exc}") from exc


def _cmd_map(args) -> int:
    which = args.which
    if which not in MAP_TAGS:
        raise InputError(f"unknown map {which!r}; available: {sorted(MAP_TAGS)}")
    pt = _parse_point(args.point)
    tag = MAP_TAGS[which]
    out: dict = {"which": which, "input": [float(v) for v in pt]}
    if which in ("sigma0", "sigma1", "sigma-1"):
        proj = embed(pt, which)
        out["output"] = [float(v) for v in proj.rep.coords]
        out["output_kind"] = "projective representative"
        out["lightlike"] = proj.is_null()
    elif which in ("psi1", "psi2"):
        m = pt.shape[0] - 3
        proj = ProjectivePoint(PseudoVector(pt, Signature(2, pt.shape[0])))
        result = psi(1 if which == "psi1" else 2, proj)
        out["output"] = [float(v) for v in result.coords]
        out["output_kind"] = "de Sitter point"
    elif which == "tswap":
        out["output"] = [float(v) for v in t_swap(pt)]
        out["output_kind"] = "projective representative"
    else:
        result = compose_maps(which, pt)
        out["output"] = [float(v) for v in result]
        out["output_kind"] = "de Sitter point"
        m_src = pt.shape[0] - (1 if which.startswith("sigma") else 2)
        out["permutation"] = [
            [float(v) for v in row] for row in MAP_TAGS[which].permutation(m_src)
        ]
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
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("classify", help="assign a classification branch")
    _add_chart_args(p)
    _add_run_args(p)
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
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        out = getattr(args, "out", None)
        if out:
            _write_report(render_json({"error": str(exc)}), out)
        return 2
    except ConfGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
