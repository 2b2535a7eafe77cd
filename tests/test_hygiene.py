"""Source hygiene: no module under src/mongebde imports a name it never uses
or defines a private function or class that nothing else uses, and every
name the benchmark's tracer wraps exists."""

import ast
import collections
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mongebde"


def _annotation_names(tree):
    """Names inside string annotations such as ``f: "SurfaceFamily | Poly"``."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    for name in ast.walk(ast.parse(sub.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def unused_imports(source: str) -> list:
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
    used |= set(_annotation_names(tree))
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_unused_import():
    source = "import math\nfrom typing import Any, Mapping\n\ndef f(x: 'Mapping'):\n    return 1\n"
    assert unused_imports(source) == ["Any (line 2)", "math (line 1)"]


def test_no_unused_imports_in_src():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def _references(node) -> collections.Counter:
    """Uses of each name under ``node``: bare names, attributes, imports."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_private_defs(sources: dict) -> list:
    """Module-level ``_name`` functions and classes that no code outside
    their own body refers to, over all the given module sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), collections.Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _references(node)[node.name]
    )


def test_checker_flags_unreferenced_private_def():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _dead():\n    return 2\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\nclass _Orphan:\n    pass\n",
        "b": "from .a import _used\n\ndef f():\n    return _used()\n",
    }
    assert unreferenced_private_defs(sources) == ["a._Orphan", "a._dead", "a._recursive"]


def test_no_unreferenced_private_defs_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_benchmark_tracer_targets_exist():
    # perfbench/tracer.py wraps these names and fails on a missing one; read
    # its table as text so the test does not depend on the benchmark code.
    tracer = SRC.parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(f"mongebde.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append(f"{module_name}.{attr}")
        elif not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
    assert targets and missing == []
