"""The README's library example runs as written and its CLI examples parse;
the package exports and the calls the README names resolve; every definition
in the package has a caller, and no module uses another's private names."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import chaoscope
from chaoscope.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "chaoscope").glob("*.py"))
# a module may import only from modules of a lower layer; __init__ is exempt
LAYERS = {"rng": 0, "linalg": 0, "matrix": 1, "percolation": 2, "gaussian": 2, "sde": 2,
          "bounds": 3, "verify": 4, "cli": 5}


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _referenced(tree: ast.AST) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_readme_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def test_readme_cli_examples_parse():
    # every `chaoscope ...` line of the sh blocks, continuation lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    examples = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("chaoscope ")]
    assert len(examples) >= 13
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_all_exports_resolve():
    # `from chaoscope import *` fails on any name in __all__ the package lacks
    missing = [name for name in chaoscope.__all__ if not hasattr(chaoscope, name)]
    assert not missing


def test_readme_names_resolve():
    # every call the README names in backticks, `name(` or `a.name(`, is
    # defined in the package or is numpy's; a stale name, such as that of a
    # deleted class, fails
    called = set(re.findall(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)\(", README.read_text()))
    defined = {node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert len(called) >= 20
    missing = sorted(name for name in called - defined if not hasattr(np.random, name))
    assert not missing, f"README names undefined calls: {', '.join(missing)}"


def test_every_definition_has_a_caller():
    # a function, class or method is reached from the package's own modules,
    # the README example or the exports; one only the tests call is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set(chaoscope.__all__) | _referenced(ast.parse(_library_example()))
    for name, tree in trees.items():
        if name != "__init__.py":
            used |= _referenced(tree)
    defined = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in used)
    assert not unused, f"defined but never called: {', '.join(unused)}"


def test_modules_import_only_lower_layers():
    assert {path.stem for path in SOURCES} == set(LAYERS) | {"__init__"}
    upward = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .x import ...` names x; `from . import x` names x when
                # x is a module, and otherwise a package attribute
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{path.stem} -> {name}" for name in names
                           if name in LAYERS and LAYERS[name] >= LAYERS[path.stem]]
    assert not upward, f"imports from the same or a higher layer: {', '.join(upward)}"


def test_modules_use_no_private_names_of_others():
    # a module reaches another package module only through its public names:
    # no `from .x import _name` and no `x._name` on a module imported as x
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    uses = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in LAYERS:
                        modules[a.asname or a.name] = a.name
                    elif private(a.name):
                        uses.append(f"{path.stem} -> {node.module or '__init__'}.{a.name}")
        uses += [f"{path.stem} -> {modules[node.value.id]}.{node.attr}"
                 for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in modules
                 and private(node.attr)]
    assert not uses, f"private names used from another module: {', '.join(uses)}"


def test_cli_import_adds_no_dataclasses():
    # the records are built without dataclass code generation, which took
    # about half of the package's import time in every CLI process; numpy's
    # own modules are the baseline, so only what the package loads counts
    code = ("import sys, numpy; base = set(sys.modules); import chaoscope.cli; "
            "print(*sorted(set(sys.modules) - base))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "chaoscope.cli" in added
    assert "dataclasses" not in added, added
    # numpy loads these on first use; no op that draws nothing should pay for them
    assert "numpy.random" not in added and "numpy.ma" not in added, added


def test_subset_entropies_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 14 ms in every
    # process, and once more in each forked verify worker
    code = ("import sys; from chaoscope import gaussian, matrix; "
            "gm = gaussian.sigma_T(matrix.build_mean_field(4), 0.3); "
            "gaussian.subset_entropies(gm, range(1, 16)); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]
