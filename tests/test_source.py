"""Source scans over the dglab package that no linter here makes."""

import ast
from pathlib import Path

import dglab


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each name ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(((name, line) for name, line in imported.items() if name not in read), key=lambda t: t[1])


def test_unused_import_scan_flags_only_unread_names():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import os.path as osp",
        "import numpy as np",
        "from typing import TYPE_CHECKING",
        "from .a import B, C",
        "from .q import Q, D",
        "if TYPE_CHECKING:",
        "    from .t import T",
        "def f(x: T, y: Q) -> list[D]:",
        "    return os.sep, np.pi, B",
    ])
    assert unused_imports(source) == [("osp", 3), ("C", 6)]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    src = Path(dglab.__file__).parent
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
