"""No dead public API in the library.

Every public top-level function, class and constant of
``src/agcdiag/*.py``, and every public method of its classes, must be
mentioned in ``src/``, ``scripts/`` or ``perfbench/`` outside its own
definition, and every field of its records (the names in a class's
``__slots__``) must be read there as ``.<field>`` (``self.<field>`` does
not count). The match is on the text, so a name the benchmark tracer
patches by string (``"step"``) counts as used. A name that only tests
call belongs under ``tests/`` (see ``tests/oracles.py``).

Every error class of ``errors.py`` but the base is one way a caller
handles a failure: ``src/agcdiag`` names it in an ``except`` clause or an
``isinstance`` call, or it carries data (it defines ``__init__``). The
package raises no builtin exception class, so every error it raises is an
``AgcDiagError``.

Importing the package generates no code: no module imports
``dataclasses``, and no import compiles a ``<string>`` source.

The package keeps no module-level mutable state but its two caches:
``cli._record`` and ``simulate._label_maps`` are the only top-level names
bound to a dict, list or set.
"""

import ast
import builtins
import glob
import os
import re
import subprocess
import sys

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


def record_fields(path: str):
    """``(class, field)`` for each name in the ``__slots__`` of a module's
    record classes."""
    for node in ast.parse(read(path)).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in sub.targets):
                for name in ast.literal_eval(sub.value):
                    yield node.name, name


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
        for cls, name in record_fields(path):
            if not re.search(rf"(?<!\bself)\.{re.escape(name)}\b", text):
                dead.append(f"{os.path.basename(path)}: {cls}.{name}")
    return dead


def test_the_scan_sees_the_package():
    names = {name for path in glob.glob(os.path.join(PACKAGE, "*.py"))
             for name, _, _ in public_definitions(path)}
    assert {"main", "default_config", "RealizedFilter", "step",
            "STEALTH_TOL"} <= names
    fields = {field for path in glob.glob(os.path.join(PACKAGE, "*.py"))
              for field in record_fields(path)}
    assert {("Scenario", "t_s"), ("FilterDesign", "gamma"),
            ("AttackSpace", "basis")} <= fields


def test_every_public_name_is_used():
    dead = dead_names()
    assert not dead, f"used only by tests or not at all: {dead}"


def test_every_dataclass_field_is_read():
    dead = dead_fields()
    assert not dead, f"fields never read: {dead}"


def package_trees():
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        yield os.path.basename(path), ast.parse(read(path))


def names_in(node) -> set[str]:
    """The class names an ``except`` type or ``isinstance`` argument
    lists: a name, an attribute's last part, or a tuple of those."""
    if isinstance(node, ast.Tuple):
        return set().union(*(names_in(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def handled_in(node) -> set[str]:
    """The class names ``node`` handles when it is an ``except`` clause or
    an ``isinstance`` call; empty otherwise."""
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        return names_in(node.type)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "isinstance" and len(node.args) == 2:
        return names_in(node.args[1])
    return set()


def handled_names(trees) -> set[str]:
    return {name for _, tree in trees for node in ast.walk(tree)
            for name in handled_in(node)}


def unhandled_error_classes() -> list[str]:
    handled = handled_names(package_trees())
    tree = ast.parse(read(os.path.join(PACKAGE, "errors.py")))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    return [cls.name for cls in classes
            if cls.name != "AgcDiagError" and cls.name not in handled
            and not any(isinstance(sub, ast.FunctionDef)
                        and sub.name == "__init__" for sub in cls.body)]


def builtin_raises(trees) -> list[str]:
    found = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            kind = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(kind, type) and issubclass(kind, BaseException):
                found.append(f"{module}:{node.lineno}: {exc.id}")
    return found


def test_the_error_scans_see_the_package():
    handled = handled_names(package_trees())
    assert {"ConfigError", "InfeasibleDesignError", "AgcDiagError",
            "NumericError", "ValidationError"} <= handled
    assert names_in(ast.parse("(a.B, C)", mode="eval").body) == {"B", "C"}
    sample = ast.parse("raise ValueError('x')\nraise KeyError\n"
                       "raise ValidationError('y')\nraise")
    assert builtin_raises([("m.py", sample)]) == ["m.py:1: ValueError",
                                                  "m.py:2: KeyError"]


def error_owners(tree, errors: set[str]) -> list[str]:
    """The top-level function (``<module>`` outside one) of each ``except``
    clause or ``isinstance`` call in ``tree`` that names a class of
    ``errors``."""
    return [getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top) if handled_in(node) & errors]


def test_config_maps_a_package_error_only_in_built():
    """``config._built`` is the one place that turns a library refusal into
    a config field: no other ``except`` of a package error and no
    ``isinstance`` mapping of one in ``config.py``."""
    tree = ast.parse(read(os.path.join(PACKAGE, "errors.py")))
    errors = {node.name for node in tree.body
              if isinstance(node, ast.ClassDef)}
    assert {"ConfigError", "ValidationError"} <= errors
    sample = ast.parse("def f():\n    try:\n        pass\n"
                       "    except (KeyError, ValidationError):\n"
                       "        pass\n"
                       "g = lambda exc: isinstance(exc, errors.ConfigError)\n"
                       "try:\n    pass\nexcept OSError:\n    pass\n")
    assert error_owners(sample, errors) == ["f", "<module>"]
    config = ast.parse(read(os.path.join(PACKAGE, "config.py")))
    assert error_owners(config, errors) == ["_built", "_built"]


def test_every_error_class_is_handled_or_carries_data():
    unhandled = unhandled_error_classes()
    assert not unhandled, f"no caller tells these apart: {unhandled}"


def test_no_builtin_exception_is_raised():
    found = builtin_raises(package_trees())
    assert not found, f"raise a package error instead: {found}"


def imported_modules(trees) -> set[str]:
    """The absolute names the package's ``import`` statements load: each
    module, and each ``<module>.<name>`` of a ``from`` import, which may
    be a submodule (``importlib.resources``) or not (``functools.cache``).
    """
    found = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
                found |= {f"{node.module}.{alias.name}"
                          for alias in node.names}
    return found


def test_no_module_imports_dataclasses():
    modules = imported_modules(package_trees())
    assert {"numpy", "json", "argparse", "importlib.resources"} <= modules
    assert not {name for name in modules
                if name.split(".")[0] == "dataclasses"}


# Loads the package's outside imports, then counts the compile events of
# importing every package module whose filename is "<string>": code that
# the import builds as text and execs, as ``dataclasses`` does.
GENERATED_CODE_PROBE = """
import importlib, sys
for name in sys.argv[2:]:
    try:
        importlib.import_module(name)
    except ImportError:    # a name imported from a module, not a module
        pass
generated = []
sys.addaudithook(lambda event, args: generated.append(args[1])
                 if event == "compile" and args[1] == "<string>" else None)
for name in sys.argv[1].split(","):
    importlib.import_module("agcdiag." + name)
print(len(generated))
"""


def test_importing_the_package_generates_no_code():
    trees = list(package_trees())
    outside = sorted(name for name in imported_modules(trees)
                     if not name.startswith("__future__"))
    modules = [name[:-3] for name, _ in trees if name != "__init__.py"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", GENERATED_CODE_PROBE, ",".join(modules),
         *outside], env=env, capture_output=True, text=True, timeout=120,
        check=True)
    assert done.stdout.split() == ["0"], done.stderr


# container displays whose object a module could mutate at run time
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)


def module_level_containers(trees) -> set[str]:
    """``<module>.<name>`` of each top-level name bound to a dict, list or
    set display or comprehension."""
    found = set()
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, MUTABLE_DISPLAYS):
                found |= {f"{module[:-3]}.{t.id}" for t in targets
                          if isinstance(t, ast.Name)}
    return found


def test_the_container_scan_sees_both_forms():
    sample = ast.parse("a = {}\nb: list = []\nc = ()\nd = 1\n"
                       "e: dict\nf = {k: 1 for k in 'x'}")
    assert module_level_containers([("m.py", sample)]) == {"m.a", "m.b",
                                                           "m.f"}


def test_the_only_module_level_caches():
    found = module_level_containers(package_trees())
    assert found == {"cli._record", "simulate._label_maps"}, (
        f"module-level mutable state {sorted(found)}: the package keeps the "
        "CLI's stage record and the simulator's resolved label maps, and "
        "nothing else; ROADMAP item 19 deletes the second once seeds run "
        "as a batch")
