"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Malformed or non-finite input data."""


class NotNilpotent(RuntimeError):
    """A nilpotent-only formula was requested for a non-nilpotent algebra."""


class NotLie(RuntimeError):
    """A bracket (given directly or via extension data) violates Jacobi."""


class NotApplicable(RuntimeError):
    """The requested construction does not apply to this input."""


class SingularK0(InvalidInput):
    """The skew block passed to the block-form generator is not invertible."""


class ConstraintViolation(InvalidInput):
    """Parameters fail the trace constraint of the two-step construction."""


class DegenerateGram(InvalidInput):
    """A gram matrix required to be nondegenerate is singular at tolerance."""


class UnknownName(KeyError):
    """Catalog name or metric variant that does not exist."""


class BadParams(InvalidInput):
    """Metric parameters outside the stated constraints."""


#: The Ricci cross-check's failure is a bare RuntimeError with this message,
#: the one known failure that perfbench/run.py counts by exactly that type.
ROUTE_MISMATCH = "internal Ricci routes disagree beyond cross-check bound"

#: The message of every DegenerateGram a metric's frame raises, the metric's
#: build and orthonormal_basis alike; make_metric callers and perfbench's
#: raises gate self-test read it.
DEGENERATE_GRAM = "metric gram matrix is degenerate at tolerance"


def is_route_mismatch(err: BaseException) -> bool:
    return type(err) is RuntimeError and str(err) == ROUTE_MISMATCH

