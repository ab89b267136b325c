"""Exception hierarchy shared across the toolkit.

The command-line front end maps these onto exit codes, so the split matters:
input/validation problems are `InputError`, numerical breakdowns are
`NumericalError`, and a training run that stops without meeting its target
is a `ConvergenceError`.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToolkitError, ValueError):
    """Invalid user input: bad config values, malformed files, domain errors."""


class ShapeError(InputError):
    """Operands have incompatible or unexpected dimensions."""


class DomainError(InputError):
    """A scalar parameter is outside its allowed range."""


class UnsupportedConfigurationError(InputError):
    """A request the toolkit deliberately does not support (e.g. a gate set
    that is not a unitary 2-design on the closed-form averaging path)."""


class NumericalError(ToolkitError, ArithmeticError):
    """A numerical routine failed (non-convergence, divergence, NaN)."""


class FactorizationError(NumericalError):
    """The underlying matrix factorization did not converge."""


class SingularMatrixError(NumericalError):
    """An operation requiring full rank received a (numerically) singular input."""


class ResourceLimitError(ToolkitError, RuntimeError):
    """A deliberately capped routine was asked to exceed its cap."""


class ConvergenceError(ToolkitError, RuntimeError):
    """An iterative procedure did not reach its convergence target."""
