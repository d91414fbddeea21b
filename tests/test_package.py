"""The package surface: each module's ``__all__`` is its one declaration."""

import importlib
import inspect

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
