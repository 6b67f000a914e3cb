import importlib
import inspect
import pkgutil
from dataclasses import is_dataclass

import numpy as np
import pytest

import magbeam

PUBLIC = [n for n in magbeam.__all__
          if inspect.isclass(getattr(magbeam, n)) or inspect.isfunction(getattr(magbeam, n))]


def test_public_names_are_classes_or_functions_but_two():
    assert sorted(set(magbeam.__all__) - set(PUBLIC)) == ["MU0", "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_its_own_docstring(name):
    # a class's own, not one it inherits, nor the signature that dataclasses
    # writes into a class that has none
    obj = getattr(magbeam, name)
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip()
    if is_dataclass(obj):
        assert not doc.startswith(f"{obj.__name__}(")


def test_dir_lists_every_public_name(monkeypatch):
    # a name not yet resolved is listed too, and resolving it binds it
    sweep = magbeam.sweep
    monkeypatch.delattr(magbeam, "sweep")
    assert set(magbeam.__all__) <= set(dir(magbeam))
    assert magbeam.sweep is sweep and vars(magbeam)["sweep"] is sweep


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from magbeam import *", namespace)
    assert {n: namespace[n] for n in magbeam.__all__} == {
        n: getattr(magbeam, n) for n in magbeam.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        magbeam.no_such_name
    assert not hasattr(magbeam, "no_such_name")


def test_module_arrays_are_read_only():
    # a module-level array is a constant every caller shares: a write to
    # geomag.E1 would move the straight tip of every model
    arrays = {}
    for info in pkgutil.iter_modules(magbeam.__path__):
        module = importlib.import_module(f"magbeam.{info.name}")
        arrays.update({f"{info.name}.{name}": value for name, value in vars(module).items()
                       if isinstance(value, np.ndarray)})
    assert "geomag.E1" in arrays and "inverse._AXIS_ANGLES" in arrays
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
