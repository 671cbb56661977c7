"""Exception types shared across the package."""


class ItereqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ItereqError):
    """A value lies outside the domain it is required to belong to."""


class DomainMismatch(ItereqError):
    """Two domains that must coincide do not."""


class RootMismatch(ItereqError):
    """Exact division by ``r - 1`` met a nonzero remainder: 1 is not a root
    of the polynomial to the multiplicity asked for (``charpoly._divide_out_one``)."""


class NonConvergence(ItereqError):
    """An iterative solver exhausted its iteration budget.

    Carries the best residual seen so callers can report it.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class BracketFailure(ItereqError):
    """An expected root bracket showed no sign change (implementation bug)."""


class NotInvertible(ItereqError):
    """The function has no usable inverse for the requested operation."""


class NotSurjective(ItereqError):
    """A value lies outside the image of the function."""


class NotAnInvolution(ItereqError):
    """The assembled map failed the f(f(x)) = x check."""


class BadAnchor(ItereqError):
    """Involution data violates its anchor or boundary-limit conditions."""


class TooShort(ItereqError):
    """An orbit does not provide enough points for the requested operation."""


class SingularSystem(ItereqError):
    """The fitting system is numerically singular or inconsistent."""


class ConstructionError(ItereqError):
    """A solution object cannot be built from the given parameters."""
