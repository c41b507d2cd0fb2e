"""Exception taxonomy shared across the library.

Every error raised by this package derives from :class:`AffineLiborError`,
so callers (and the command-line front-end) can catch one base class and
still report a machine-readable category via ``type(exc).__name__``.
"""


class AffineLiborError(Exception):
    """Base class for all errors raised by this package."""


class DomainViolation(AffineLiborError):
    """Transform argument lies outside the exponential-moment domain."""


class HorizonViolation(AffineLiborError):
    """Evaluation time is negative or beyond the model horizon."""


class BlowUp(AffineLiborError):
    """Riccati trajectory left the domain before the target time."""


class StepUnderflow(AffineLiborError):
    """Adaptive ODE step size collapsed below the floor."""


class InvalidParameter(AffineLiborError, ValueError):
    """Parameter record violates its family invariants."""


class InvalidGrid(AffineLiborError, ValueError):
    """Simulation time grid is not increasing from zero."""


class ConvergenceFailure(AffineLiborError):
    """Iterative scheme could not reach the requested tolerance."""


class InfeasibleCurve(AffineLiborError):
    """Initial curve cannot be fitted: moment bound of the driver too small."""


class NonMonotoneCurve(AffineLiborError):
    """Discounts increase in maturity (negative initial rates)."""


class ModelMismatch(AffineLiborError):
    """Closed-form pricer called with an unsupported process family."""


class DampingOutOfStrip(AffineLiborError):
    """Fourier damping parameter lies outside the admissible strip."""


class QuadratureFailure(AffineLiborError):
    """Numerical integration failed to meet its error target."""


class NoSignChange(AffineLiborError):
    """Swaption exercise function has no root on the expanded bracket."""


class OutOfBounds(AffineLiborError):
    """Price violates static no-arbitrage bounds; no implied vol exists."""


class ParseError(AffineLiborError):
    """Malformed input file; message carries the offending row."""

