import pytest

from parafermions import lie


@pytest.fixture
def zero_cartan_corner(monkeypatch):
    """Make gram_matrix build a Gram matrix whose first Cartan block has
    a zero corner entry: G[1][1] = 0, so leading minor 2 is -1."""
    cartan = lie.cartan_matrix

    def patched(k):
        rows = [list(row) for row in cartan(k)]
        rows[0][0] = 0
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(lie, "cartan_matrix", patched)
