"""Exact modular data of Z_k parafermion Read-Rezayi quantum Hall states.

The top level holds the names of the README's Library example: the su(k)_2
S matrix as a Weyl-Kac oracle (one 2x2 complementary minor per entry) and
in level-rank closed form, the diagonal-coset theory, Verlinde fusion,
quantum dimensions, monodromy, the charge lattice and filling factor, and
the label types. Everything else the library uses lives in the submodules
smatrix, coset, fusion, fullcft, interferometry and errors.
"""

from .errors import ParafermionError
from .smatrix import CosetWeight, orbit_basis, s_suk2_compact, s_suk2_weylkac
from .coset import coset_s_compact
from .fusion import quantum_dimensions, verlinde
from .fullcft import FullSector, filling_factor, gram_matrix
from .interferometry import monodromy

__version__ = "0.1.0"
