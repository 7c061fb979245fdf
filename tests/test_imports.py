"""Every name a module under src/ imports is used in that module.

Package ``__init__`` modules are skipped: they import names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind that no other name in it refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_src_modules():
    assert {"cli.py", "neural.py", "ppo.py"} <= {path.name for path in MODULES}


def test_the_check_finds_an_unused_import():
    source = ("import json\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == ["json (line 1)", "field (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
