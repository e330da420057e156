"""Exception hierarchy shared across the package: one class per handling.
The CLI exits 1 on the three ValueErrors and on ConsistencyError, and 2
on ResourceError; `verify` records a ConsistencyError as a failed check."""


class ParafermionError(Exception):
    """Base class for all package-specific errors."""


class InvalidRankError(ParafermionError, ValueError):
    """Rank or level parameter k out of range."""


class LabelError(ParafermionError, ValueError):
    """Sector/representation label out of range or malformed, including an
    (l, m) pair off the l = m mod 2 branching rule or with no field
    identification representative."""


class ContractViolationError(ParafermionError, ValueError):
    """An argument violates a documented precondition: a dimension
    mismatch, a singular matrix, too few samples."""


class ResourceError(ParafermionError):
    """A computation would exceed the memory budget."""


class ConsistencyError(ParafermionError):
    """Data fail one of the paper's relations: two constructions that must
    agree do not, Verlinde sums that are not non-negative integers, a
    missing or wrong vacuum row, a charge lattice that fails its checks."""
