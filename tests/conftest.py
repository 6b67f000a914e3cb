import pytest

from magbeam import inverse


@pytest.fixture(autouse=True)
def cold_inverse_grid(monkeypatch):
    """Every test starts with no memoised inverse grid, whatever ran before it."""
    monkeypatch.setattr(inverse, "_grid_memo", None)
