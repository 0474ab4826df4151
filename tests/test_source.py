"""Source scans over the dglab package that no linter here makes."""

import ast
import importlib
import sys
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
    src = Path(dglab.__file__).parent
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(src.glob("*.py"))
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _loaded_dglab_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name.partition(".")[0] == "dglab"}


def test_each_module_imports_first():
    # the package imports nothing up front, so each module must import what it needs itself
    names = sorted(p.stem for p in Path(dglab.__file__).parent.glob("*.py") if p.name != "__init__.py")
    saved = _loaded_dglab_modules()
    try:
        for name in names:
            for loaded in _loaded_dglab_modules():
                del sys.modules[loaded]
            importlib.import_module(f"dglab.{name}")
    finally:
        for loaded in _loaded_dglab_modules():
            del sys.modules[loaded]
        sys.modules.update(saved)


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports, relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_import_scan_sees_plain_and_from_imports_only():
    source = "import numbers\nimport os.path as osp\nfrom typing import Any\nfrom .numbers import x\nfrom . import y"
    assert imported_modules(source) == {"numbers", "os", "typing"}


# numpy's abstract scalar types, which an isinstance test of a setting's number kind would name
NUMPY_NUMBER_TYPES = {"integer", "floating", "number", "signedinteger", "unsignedinteger", "inexact"}


def number_kind_tests(source: str) -> list[int]:
    """Lines of ``source`` where ``isinstance`` tests against a type from
    ``numbers`` or one of numpy's abstract scalar types."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            for part in ast.walk(node.args[1]):
                if isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name) and (
                    part.value.id == "numbers" or part.value.id in ("np", "numpy") and part.attr in NUMPY_NUMBER_TYPES
                ):
                    lines.append(node.lineno)
                    break
    return lines


def test_number_kind_scan_flags_numbers_and_numpy_scalar_types_only():
    source = "\n".join([
        "isinstance(v, numbers.Integral)",
        "isinstance(v, (int, np.integer))",
        "isinstance(v, np.ndarray)",
        "isinstance(v, (float, numpy.floating)) and math.isfinite(v)",
        "isinstance(v, bool)",
    ])
    assert number_kind_tests(source) == [1, 2, 4]


def test_only_the_data_module_checks_what_a_setting_holds():
    # data.SETTING_KINDS is the one statement of what a config field, a SmoothGrad setting or a
    # generator parameter may hold; a module that imports numbers, or tests a value against a
    # numbers or numpy scalar type, would keep a second set of rules
    src = Path(dglab.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    assert [name for name, text in sources.items() if "numbers" in imported_modules(text)] == ["data.py"]
    offenders = [
        f"{name}:{line}" for name, text in sources.items() if name != "data.py" for line in number_kind_tests(text)
    ]
    assert offenders == []
