"""Exception types shared across the package."""


class LatqError(Exception):
    """Base class for all package-specific errors."""


class CycleDetected(LatqError):
    """Cover relation contains a cycle, so no partial order exists."""


class IndexOutOfRange(LatqError):
    """An element index falls outside the carrier."""


class NotALattice(LatqError):
    """Some pair of elements lacks a least upper or greatest lower bound."""


class TooLarge(LatqError):
    """Requested object exceeds a hard size cap."""


class DomainMismatch(LatqError):
    """Map endpoints do not line up for the requested operation."""


class NotContinuous(LatqError):
    """Operation requires a join- or meet-continuous map."""


class CapExceeded(LatqError):
    """Estimated enumeration size exceeds the work cap."""


class HomsetTooLarge(CapExceeded):
    """An enumeration found more members than its limit."""


class NotEndoHomset(LatqError):
    """Operation requires maps from a lattice to itself."""


class ParseError(LatqError):
    """Malformed or schema-violating document."""
