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
