"""The package's public surface has one front door: every name that
`confgeo/__init__.py` exports is either read by the library itself or
documented in the README.  A name that neither the library nor the README
uses is a second way in that nothing keeps in step with the pipeline.
Likewise no function takes a parameter it never reads, classify_tol is
the one tolerance a caller sets, every threshold is a named constant of
config.py, and the CLI's family flags are catalog.PARAMETERS."""

import argparse
import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import confgeo
from confgeo import catalog, config
from confgeo.cli import build_parser
from confgeo.config import DEFAULT, NumericsConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "confgeo"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_read_in_src() -> set[str]:
    """Names and attributes read anywhere in the package outside __init__,
    except inside the top-level definition of the same name."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return read


def names_in_readme_backticks() -> set[str]:
    """Identifiers inside fenced code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {ident for span in fenced + inline for ident in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_is_read_or_documented():
    used = names_read_in_src() | names_in_readme_backticks()
    assert [name for name in exported_names() if name not in used] == []



# parameters kept although their function never reads them, each with why
UNREAD_PARAMETERS_KEPT = {
    # perfbench/workloads.py `cli_margin` passes a config; the parameter goes
    # with the next benchmark change (ROADMAP item 4)
    ("invariants.py", "required_margin", "cfg"),
}


def unread_parameters() -> set[tuple[str, str, str]]:
    """(file, function, parameter) of every parameter, other than self and
    cls, that its function's body never reads; nested functions count as
    part of the body."""
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread |= {(path.name, name, p) for p in params if p not in ("self", "cls") and p not in read}
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS_KEPT


# float literals below 1 kept as a threshold outside config.py, each with why
THRESHOLD_LITERALS_KEPT: dict[tuple[str, str, float], str] = {}


def threshold_literals() -> set[tuple[str, str, float]]:
    """(file, function, value) of every nonzero float literal below 1 in
    absolute value that sits inside a comparison or is itself a parameter's
    default, in every module but config.py; `function` is the innermost
    enclosing def, or "" at module level."""
    found = set()

    def small_floats(nodes):
        return [
            n.value
            for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, float) and 0 < abs(n.value) < 1
        ]

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
            defaults = node.args.defaults + node.args.kw_defaults
            found.update((path.name, owner, v) for v in small_floats(defaults))
        if isinstance(node, ast.Compare):
            found.update((path.name, owner, v) for v in small_floats(ast.walk(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "config.py":
            visit(ast.parse(path.read_text()), "")
    return found


def test_every_threshold_is_named_in_config():
    assert threshold_literals() == set(THRESHOLD_LITERALS_KEPT)


def test_classify_tol_is_the_only_setting():
    assert [f.name for f in fields(NumericsConfig)] == ["classify_tol"]
    # the constant tolerances, pinned so that moving them cannot loosen one
    assert (
        NumericsConfig.analytic_tol,
        NumericsConfig.fd_tol,
        NumericsConfig.residual_tol_analytic,
        NumericsConfig.residual_tol_fd,
        NumericsConfig.trace_a_tol,
        NumericsConfig.ambient_tol,
        NumericsConfig.regularity_tol,
        NumericsConfig.crosscheck_factor,
    ) == (1e-8, 1e-5, 1e-5, 1e-3, 1e-6, 1e-9, 1e-10, 100.0)
    assert (
        config.CATALOG_CHECK_TOL,
        config.CORE_RADIUS_TOL,
        config.TOTALLY_GEODESIC_TOL,
        config.UNIT_RADIUS_TOL,
        config.ON_FORM_TOL,
        config.SCALE_FREE_TOL,
        config.GUARD_TOL,
        config.NORMAL_LEAD_TOL,
    ) == (1e-6, 1e-5, 1e-5, 1e-14, 1e-8, 1e-12, 1e-12, 1e-9)
    assert (DEFAULT.classify_tol, DEFAULT.tier(True), DEFAULT.tier(False)) == (1e-4, 1e-8, 1e-5)
    assert (DEFAULT.residual_tier(True), DEFAULT.residual_tier(False)) == (1e-5, 1e-3)
    with pytest.raises(TypeError):
        replace(DEFAULT, analytic_tol=1.0)
    assert not hasattr(confgeo, "FDConfig")



def test_family_flags_are_the_catalog_parameters():
    # catalog.PARAMETERS is the one home of the family parameters: the CLI's
    # flags between --chart-file and --lift are its names, in its order and
    # of its types, and every family takes only names it declares
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("analyze", "classify", "residuals"):
        actions = sub.choices[command]._actions
        flags = [a.option_strings[0] for a in actions]
        chart = actions[flags.index("--chart-file") + 1 : flags.index("--lift")]
        assert [(a.option_strings, a.type, a.default) for a in chart] == [
            ([f"--{name}"], kind, None) for name, kind in catalog.PARAMETERS.items()
        ]
    assert all(set(params) <= set(catalog.PARAMETERS) for params in catalog.DEFAULT_INSTANCES.values())


PICTURE_NAMES = {"DE_SITTER", "ANTI_DE_SITTER", "LORENTZ_FLAT"}


def picture_reads(path: Path) -> set[str]:
    """Top-level functions and classes of a module that read a space-form
    kind constant."""
    return {
        top.name
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in PICTURE_NAMES
    }


def test_invariant_pipeline_is_picture_free():
    # the invariants run alike in every unit space form, reading only its
    # curvature; the one choice of picture is grid_jet's lift policy
    assert picture_reads(PACKAGE / "invariants.py") == {"grid_jet"}
