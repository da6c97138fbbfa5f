"""Exception hierarchy for entroscope.

Numeric failures are semantic: a divergent integral is a *finding* (an
infinite moment or measure), not a crash, so callers can catch the precise
condition they care about.
"""


class EntroscopeError(Exception):
    """Base class for all entroscope errors."""


class NonConvergent(EntroscopeError):
    """Quadrature error estimate stayed above tolerance after the budget;
    `result` is the QuadResult (last estimate) of the interval that failed.

    From quadrature, `heuristic` names the check that decided ("tolerance":
    the level budget ran out; or, where edge forms say the integral
    converges, the divergence heuristic that fired), `interval` is the
    (lower, upper) that failed, and `estimates` the per-level estimates."""

    def __init__(self, message: str, result=None, *, heuristic=None, interval=None, estimates=()):
        super().__init__(message)
        self.result = result
        self.heuristic = heuristic
        self.interval = interval
        self.estimates = tuple(estimates)


class DivergentIntegral(EntroscopeError):
    """Partial sums grow without bound under endpoint refinement.

    Signals an infinite moment / measure rather than a numerical defect.
    From quadrature, `heuristic` names the partial-sum heuristic that fired
    ("midpoint", "weights", "overflow", "edge", "increments" or "growth"),
    `interval` is the (lower, upper) on which it fired, and `estimates`
    the per-level estimates up to it."""

    def __init__(self, message: str, *, heuristic=None, interval=None, estimates=()):
        super().__init__(message)
        self.heuristic = heuristic
        self.interval = interval
        self.estimates = tuple(estimates)


class TargetOutOfRange(EntroscopeError):
    """Root-finding target lies outside the values spanned by the bracket."""


class NotMonotone(EntroscopeError):
    """Detected sign inconsistency of secants during monotone inversion."""


class UnknownDensity(EntroscopeError):
    """Density name not in the builtin registry."""


class InvalidParams(EntroscopeError):
    """Builtin density parameters violate their constraints."""


class MissingDerivative(EntroscopeError):
    """Operation requires an analytic derivative the density does not carry."""


class MissingSecondDerivative(EntroscopeError):
    """Operation requires an analytic second derivative."""


class NotDecreasing(EntroscopeError):
    """Down transformation requires a strictly monotone (decreasing) input."""


class EdgeIllConditioned(EntroscopeError):
    """Inversion failed within tolerance near a support endpoint."""


class OutOfDomain(EntroscopeError):
    """Parameters lie outside the operation's validity domain."""


class OutOfRange(EntroscopeError):
    """Function argument outside the representable range."""


class Unbounded(EntroscopeError):
    """Grid supremum grows without bound under refinement."""


class InvalidEta(EntroscopeError):
    """Tail exponent must satisfy eta > 1."""
