import pytest

from parafermions import fullcft as fc


@pytest.fixture
def zero_cartan_corner(monkeypatch):
    """Make gram_matrix hand its lattice a Gram matrix whose first Cartan
    block has a zero corner entry: G[1][1] = 0, so leading minor 2 is -1."""
    lattice = fc.ChargeLattice

    def patched(k, gram, charge_vector):
        rows = [list(row) for row in gram]
        rows[1][1] = 0
        return lattice(k=k, gram=tuple(map(tuple, rows)),
                       charge_vector=charge_vector)

    monkeypatch.setattr(fc, "ChargeLattice", patched)
