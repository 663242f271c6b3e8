"""The package's public surface has one front door: every name that
`confgeo/__init__.py` exports is either read by the library itself or
documented in the README.  A name that neither the library nor the README
uses is a second way in that nothing keeps in step with the pipeline."""

import ast
import re
from pathlib import Path

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

