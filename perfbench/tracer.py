"""Span recorder that wraps confgeo's public callables from outside the package.

Nothing here edits confgeo's source: `Tracer.install` rebinds each target
callable in every loaded ``confgeo`` module that holds it (so the names that
importing modules rebound, such as ``confgeo.invariants.shape_batch`` or
``confgeo.classifier.evaluate_field``, are wrapped too) and
`Tracer.uninstall` puts the originals back.  Spans (name, start, end,
parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np


def _rows(pos: int, key: str):
    """Points extractor: leading length of the argument at `pos` / `key`."""

    def extract(args, kwargs) -> int:
        value = args[pos] if len(args) > pos else kwargs.get(key)
        shape = np.shape(value)
        return int(shape[0]) if len(shape) >= 2 else 1

    return extract


# (layer name, defining module, attribute, points extractor)
LAYERS = [
    ("chart.jet", "confgeo.chart", "ImmersionChart.jet", _rows(1, "U")),
    ("chart.eval", "confgeo.chart", "ImmersionChart.eval", _rows(1, "U")),
    ("chart.shape_batch", "confgeo.chart", "shape_batch", _rows(1, "U")),
    ("chart.validate_regularity", "confgeo.chart", "validate_regularity", _rows(1, "U")),
    ("fd.fd_partial", "confgeo.fd", "fd_partial", _rows(1, "U")),
    ("pseudo_linalg.batched_normal", "confgeo.pseudo_linalg", "batched_normal", _rows(0, "rows")),
    ("pseudo_linalg.triangular_frame", "confgeo.pseudo_linalg", "triangular_frame", _rows(0, "g")),
    ("invariants.evaluate_field", "confgeo.invariants", "evaluate_field", _rows(1, "U")),
    ("invariants.frame_route", "confgeo.invariants", "frame_route", _rows(1, "U")),
    ("catalog.build_instance", "confgeo.catalog", "build_instance", None),
    ("conformal_atlas.lift_chart", "confgeo.conformal_atlas", "lift_chart", None),
    ("classifier.classify", "confgeo.classifier", "classify", None),
    ("classifier.classify_field", "confgeo.classifier", "classify_field", None),
    ("cli.main", "confgeo.cli", "main", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    points: int
    phase: str           # "setup" or "pass<k>"
    op: int              # index of the benchmark op within its pass, -1 outside ops
    first: bool = False  # first chart.jet call of a chart instance and order


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every confgeo module attribute bound to `original` at `replacement`.

    Returns (module, attribute, previous) triples for `restore`.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "confgeo" or mod_name.startswith("confgeo.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, previous in reversed(undo):
        setattr(owner, attr, previous)


class Tracer:
    """In-memory span recorder; a single-threaded stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._seen_jets: set[tuple[int, int]] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, points: int = 0, first: bool = False) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, points, self.phase, self.op, first))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, points):
        tracer = self
        is_jet = name == "chart.jet"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = False
            if is_jet:
                order = args[2] if len(args) > 2 else kwargs.get("order")
                key = (id(args[0]), order)
                first = key not in tracer._seen_jets
                tracer._seen_jets.add(key)
            idx = tracer.begin(name, points(args, kwargs) if points else 0, first)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in LAYERS; targets missing from the package are skipped."""
        if self._undo:
            return
        importlib.import_module("confgeo.cli")  # load the last module that rebinds names
        for name, mod_name, attr, points in LAYERS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                setattr(cls, meth, self._wrap(original, name, points))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                self._undo.extend(rebind(original, self._wrap(original, name, points)))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

COUNT, SECONDS, RATIO = "count", "s", "x"

# every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "chart.jet.calls": COUNT,
    "chart.jet.points": COUNT,
    "chart.jet.s": SECONDS,
    "chart.jet.first_call_s": SECONDS,
    "chart.eval.calls": COUNT,
    "chart.eval.points": COUNT,
    "chart.eval.s": SECONDS,
    "chart.shape_batch.calls": COUNT,
    "chart.shape_batch.points": COUNT,
    "chart.shape_batch.s": SECONDS,
    "chart.validate_regularity.s": SECONDS,
    "amplification.jet": RATIO,
    "amplification.jet.m3": RATIO,
    "amplification.jet.m4": RATIO,
    "amplification.jet.no_cross_check.m3": RATIO,
    "amplification.jet.no_cross_check.m4": RATIO,
    "amplification.eval": RATIO,
    "amplification.shape": RATIO,
    "amplification.shape.m3": RATIO,
    "amplification.shape.m4": RATIO,
    "fd.fd_partial.calls": COUNT,
    "fd.fd_partial.s": SECONDS,
    "pseudo_linalg.batched_normal.s": SECONDS,
    "pseudo_linalg.batched_normal.rows": COUNT,
    "pseudo_linalg.triangular_frame.s": SECONDS,
    "pseudo_linalg.triangular_frame.rows": COUNT,
    "invariants.evaluate_field.calls": COUNT,
    "invariants.evaluate_field.s": SECONDS,
    "invariants.evaluate_field.self_s": SECONDS,
    "invariants.frame_route.s": SECONDS,
    "invariants.frame_route.points": COUNT,
    "catalog.build_instance.s": SECONDS,
    "conformal_atlas.lift_chart.s": SECONDS,
    "classifier.classify.s": SECONDS,
    "classifier.classify_field.s": SECONDS,
    "cli.main.s": SECONDS,
    "cli.import_s": SECONDS,
    "pass.ops": COUNT,
    "pass.points": COUNT,
    "trace.spans": COUNT,
    "trace.overhead_s": SECONDS,
}

# layers whose work happens once per process: for the in-process workloads
# they run during set-up, so they are summed over set-up plus one pass
SETUP_LAYERS = ("catalog.build_instance.s", "conformal_atlas.lift_chart.s", "chart.jet.first_call_s", "cli.import_s")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _under(spans: list[dict], idx: int, name: str) -> bool:
    parent = spans[idx]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def select(spans: list[dict], phase: str) -> list[dict]:
    """The spans of one phase, re-indexed; a phase's spans nest only among themselves."""
    keep = [i for i, s in enumerate(spans) if s["phase"] == phase]
    new = {old: new for new, old in enumerate(keep)}
    return [dict(spans[i], parent=new.get(spans[i]["parent"], -1)) for i in keep]


def merge(groups: list[list[dict]]) -> list[dict]:
    """Concatenate span lists of separate processes, keeping parent links valid."""
    out: list[dict] = []
    for spans in groups:
        base = len(out)
        out.extend(dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1) for s in spans)
    return out


def pass_metrics(spans: list[dict], ops: list[dict]) -> dict[str, float]:
    """Per-layer totals and amplification ratios over one group of spans.

    `ops` lists the benchmark ops the spans belong to, each with its chart
    dimension `m` and output `points`; span["op"] indexes into it.
    Amplification is work points of a layer per output point; the
    `.m3`/`.m4` variants restrict both to ops on charts of that dimension and
    `no_cross_check` leaves out the jets the frame route evaluates.
    """
    selfs = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    work = {key: {3: 0, 4: 0} for key in ("jet", "jet.no_cross_check", "shape")}
    for i, s in enumerate(spans):
        name, dur, pts = s["name"], s["end"] - s["start"], s["points"]
        m = ops[s["op"]]["m"] if s["op"] >= 0 else None
        if name in ("chart.jet", "chart.eval", "chart.shape_batch", "fd.fd_partial",
                    "invariants.evaluate_field"):
            out[name + ".calls"] += 1
        if name in ("chart.jet", "chart.eval", "chart.shape_batch", "invariants.frame_route"):
            out[name + ".points"] += pts
        if name in ("pseudo_linalg.batched_normal", "pseudo_linalg.triangular_frame"):
            out[name + ".rows"] += pts
        key = "cli.import_s" if name == "cli.import" else name + ".s"
        if key in out:
            out[key] += dur
        if name == "invariants.evaluate_field":
            out["invariants.evaluate_field.self_s"] += selfs[i]
        if name == "chart.jet" and s["first"]:
            out["chart.jet.first_call_s"] += dur
        if m in (3, 4) and name == "chart.jet":
            work["jet"][m] += pts
            if not _under(spans, i, "invariants.frame_route"):
                work["jet.no_cross_check"][m] += pts
        if m in (3, 4) and name == "chart.shape_batch":
            work["shape"][m] += pts
    points = {3: 0, 4: 0}
    for op in ops:
        points[op["m"]] = points.get(op["m"], 0) + op["points"]
    total = sum(points.values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["pass.ops"] = float(len(ops))
    out["pass.points"] = float(total)
    out["trace.spans"] = float(len(spans))
    out["amplification.jet"] = ratio(out["chart.jet.points"], total)
    out["amplification.eval"] = ratio(out["chart.eval.points"], total)
    out["amplification.shape"] = ratio(out["chart.shape_batch.points"], total)
    for key, per_m in work.items():
        for m in (3, 4):
            out[f"amplification.{key}.m{m}"] = ratio(per_m[m], points[m])
    return {name: out[name] for name in PER_LAYER}
