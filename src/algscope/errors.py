"""Exception types shared across the package, the default tolerances, and
the one check of a tolerance argument.

``DEFAULT_TOL`` is the default of every tolerance argument (``tol``,
``rank_tol``, ``axiom_tol``) and of ``algscope --tol``;
``DEFAULT_CLUSTER_TOL`` the default radius within which spectral points
merge, of every ``cluster_tol`` and of ``algscope --cluster-tol``.  Every
module reads them from here."""

import math


class AlgscopeError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(AlgscopeError):
    """A matrix or vector contains NaN or Inf entries."""


class DimensionMismatch(AlgscopeError):
    """Operands live in spaces of different dimensions."""


class ShapeError(AlgscopeError):
    """An array has an inconsistent or unexpected shape."""


class InvalidGroupTable(AlgscopeError):
    """A Cayley table is not a valid group multiplication table."""


class SingularShift(AlgscopeError):
    """The shifted pencil a - alpha0*b is numerically singular; retry with a
    different shift."""


class NoRegularValue(AlgscopeError):
    """No regular shift could be found: every sampled shift left the shifted
    pencil's regularity (sigma_min over its scale) below the shift floor.
    The message states the number of draws, the best regularity reached and
    the floor.  :func:`~algscope.spectral.choose_alpha0` also raises it for
    an empty pencil (K = 0), which has no spectrum to shift into."""


class SingularPencil(NoRegularValue):
    """The reduced pencil is singular for every alpha: every one of the
    max(64, K + 1) shifts the search drew left ``a~ - alpha a~^T`` with a
    regularity below the pencil's own rank tolerance, so ``a~^T - alpha a~``
    was rank-deficient at each of those distinct alpha.  A regular pencil of
    size K is singular at no more than K points, so F is not generic.  The
    message leads with that cause, names the number of draws and ends with
    the best regularity the shift search reached."""


class TheoremViolation(AlgscopeError):
    """A proved identity failed its direct numerical verification.  This means
    a bug or a conditioning problem, never a property of the input."""


class UnknownBuilder(AlgscopeError):
    """The requested builder name is not recognised."""


class BadParams(AlgscopeError):
    """Builder parameters are malformed."""


class ParseError(AlgscopeError):
    """A document failed to parse; carries field-level context."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6


def _check_tolerance(name: str, value: float):
    """Raise :class:`ValueError` unless the tolerance ``value`` is a finite
    number > 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0")
