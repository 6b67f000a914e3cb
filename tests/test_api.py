import inspect
from dataclasses import is_dataclass

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
