"""No dead public API in the library.

Every public top-level function, class and constant of
``src/agcdiag/*.py``, and every public method of its classes, must be
mentioned in ``src/``, ``scripts/`` or ``perfbench/`` outside its own
definition, and every field of its dataclasses must be read there as
``.<field>`` (``self.<field>`` does not count). The match is on the text,
so a name the benchmark tracer patches by string (``"step"``) counts as
used. A name that only tests call belongs under ``tests/`` (see
``tests/oracles.py``).
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "agcdiag")
SEARCHED = ("src", "scripts", "perfbench")


def read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def public_definitions(path: str):
    """``(name, first line, last line)`` of each public top-level function,
    class and constant of one module, and of each public method."""
    tree = ast.parse(read(path))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield sub.name, sub.lineno, sub.end_lineno


def dataclass_fields(path: str):
    """``(class, field)`` for each annotated field of a module's
    dataclasses."""
    for node in ast.parse(read(path)).body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(dec).startswith("dataclass")
                for dec in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def searched_texts() -> dict[str, list[str]]:
    texts = {}
    for top in SEARCHED:
        pattern = os.path.join(ROOT, top, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            texts[path] = read(path).splitlines()
    return texts


def dead_names() -> list[str]:
    texts = searched_texts()
    dead = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        for name, first, last in public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for other, lines in texts.items()
                for line in (lines[:first - 1] + lines[last:]
                             if other == path else lines))
            if not used:
                dead.append(f"{os.path.basename(path)}: {name}")
    return dead


def dead_fields() -> list[str]:
    text = "\n".join("\n".join(lines)
                     for lines in searched_texts().values())
    dead = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        for cls, name in dataclass_fields(path):
            if not re.search(rf"(?<!\bself)\.{re.escape(name)}\b", text):
                dead.append(f"{os.path.basename(path)}: {cls}.{name}")
    return dead


def test_the_scan_sees_the_package():
    names = {name for path in glob.glob(os.path.join(PACKAGE, "*.py"))
             for name, _, _ in public_definitions(path)}
    assert {"main", "default_config", "RealizedFilter", "step",
            "STEALTH_TOL"} <= names
    fields = {field for path in glob.glob(os.path.join(PACKAGE, "*.py"))
              for field in dataclass_fields(path)}
    assert {("Scenario", "t_s"), ("FilterDesign", "gamma"),
            ("AttackSpace", "basis")} <= fields


def test_every_public_name_is_used():
    dead = dead_names()
    assert not dead, f"used only by tests or not at all: {dead}"


def test_every_dataclass_field_is_read():
    dead = dead_fields()
    assert not dead, f"fields never read: {dead}"
