"""The package surface: each module's ``__all__`` is its one declaration."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import centralspin

MODULES = ("pointsets", "bounds", "ramsey", "spectra", "basis")
# public module-level values that are neither functions nor classes
CONSTANTS = {"spectra": {"L_ORACLE"}}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_exactly_its_public_definitions(name):
    mod = importlib.import_module(f"centralspin.{name}")
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert set(mod.__all__) == defined | CONSTANTS.get(name, set())
    assert len(mod.__all__) == len(set(mod.__all__))


def test_package_all_is_the_module_lists_in_order():
    want = ["__version__"]
    for name in MODULES:
        want += importlib.import_module(f"centralspin.{name}").__all__
    assert centralspin.__all__ == want
    assert len(want) == len(set(want))


def test_package_names_are_the_module_objects():
    for name in MODULES:
        mod = importlib.import_module(f"centralspin.{name}")
        for attr in mod.__all__:
            assert getattr(centralspin, attr) is getattr(mod, attr), attr


def test_readme_library_quick_start_runs(capsys):
    # the README's one python block, run as a user would paste it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(block, str(readme), "exec"), {})
    s2_line, check_line = capsys.readouterr().out.splitlines()
    assert s2_line.startswith("S2 = ") and " +/- " in s2_line
    assert check_line.split()[0] == "True"


def test_only_constructors_write_instances():
    # a value is written once, by the constructor of its class: nothing
    # else reaches past a frozen class with object.__setattr__ or builds
    # one with object.__new__, and no class fills attributes on demand
    found = []

    def visit(node, func, path):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
                if isinstance(node, ast.ClassDef) and child.name == "__getattr__":
                    found.append(f"{path}:{child.lineno} {node.name}.__getattr__")
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("__setattr__", "__new__")
                  and isinstance(child.func.value, ast.Name)
                  and child.func.value.id == "object"
                  and func not in ("__init__", "__post_init__")):
                found.append(f"{path}:{child.lineno} object.{child.func.attr} "
                             f"in {func}")
            visit(child, inner, path)

    for path in sorted(Path(centralspin.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    assert found == []
