"""Exception hierarchy shared across the package."""


class ParafermionError(Exception):
    """Base class for all package-specific errors."""


class InvalidRankError(ParafermionError, ValueError):
    """Algebra rank parameter k out of range (need k >= 2)."""


class InvalidLevelError(ParafermionError, ValueError):
    """Level parameter out of range."""


class ShapeError(ParafermionError, ValueError):
    """Vector/matrix dimension mismatch."""


class ResourceError(ParafermionError):
    """A computation would exceed the memory budget."""


class LabelError(ParafermionError, ValueError):
    """Sector/representation label out of range or malformed."""


class ContractViolationError(ParafermionError, ValueError):
    """An argument violates a documented precondition."""


class BranchingParityError(LabelError):
    """(l, m) pair violates the l = m mod 2 branching rule."""


class IdentificationError(LabelError):
    """Field identification cannot reach a valid representative."""


class ConsistencyError(ParafermionError):
    """Two constructions that must agree do not."""


class VacuumError(ParafermionError):
    """Vacuum row of an S matrix missing, ambiguous, or misidentified."""


class NonIntegerFusionError(ConsistencyError):
    """Verlinde sums do not round to integers within tolerance."""


class NegativeFusionError(ConsistencyError):
    """Verlinde produced a negative integer coefficient."""


class LatticeError(ParafermionError):
    """Charge-lattice construction failed a structural check."""


class SamplingError(ParafermionError, ValueError):
    """Interference curve requested with too few samples."""
