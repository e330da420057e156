"""Exact modular data of Z_k parafermion Read-Rezayi quantum Hall states.

Public surface: S matrices of su(2)_k and su(k)_2 (closed forms plus a
Weyl-Kac oracle in determinant form), the diagonal-coset parafermion
theory, the full Read-Rezayi sector data with charge lattice and filling
factor, Verlinde fusion rings, and Fabry-Perot interferometry observables.
"""

from .errors import (
    BranchingParityError,
    ConsistencyError,
    ContractViolationError,
    IdentificationError,
    InvalidLevelError,
    InvalidRankError,
    LabelError,
    LatticeError,
    NegativeFusionError,
    NonIntegerFusionError,
    ParafermionError,
    ResourceError,
    SamplingError,
    ShapeError,
    VacuumError,
)
from .smatrix import (
    CosetWeight,
    SMatrix,
    canonical_weights,
    dim_su2k,
    dim_suk2,
    level_rank_entry,
    monodromy_charge,
    orbit_basis,
    orbit_of,
    s_su2k,
    s_suk2_compact,
    s_suk2_weylkac,
    simple_current_extend,
)
from .coset import (
    CosetModularData,
    LmLabel,
    central_charge,
    coset_dimension,
    coset_s_compact,
    coset_s_phase_form,
    coset_s_via_su2k_u1,
    count_primaries,
    field_identify,
    from_lm,
    to_lm,
)
from .fusion import (
    FusionRing,
    TData,
    fusion_coset_closed,
    fusion_su2k_closed,
    quantum_dimensions,
    total_quantum_dimension,
    verify_modular_relations,
    verlinde,
)
from .fullcft import (
    ChargeLattice,
    FullSector,
    enumerate_sectors,
    filling_factor,
    full_central_charge,
    full_dims,
    full_s_compact,
    full_s_product,
    gram_matrix,
    s_u1,
)
from .interferometry import (
    InterferencePattern,
    Monodromy,
    detection_report,
    monodromy,
    sigma_xx_curve,
)

__version__ = "0.1.0"
