"""Exception types shared across the package."""


class DegenflowError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DegenflowError, ValueError):
    """Invalid parameter, precondition, or configuration input.

    keys names the config keys at fault, the likeliest first, so the config
    parser can point at the line that sets one.
    """

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = keys


class DivergenceError(DegenflowError, ArithmeticError):
    """An integral or iteration diverges."""


class ShapeError(DegenflowError, ValueError):
    """Mismatched grids or array shapes."""


class FitError(DegenflowError, ArithmeticError):
    """A regression could not be performed on the supplied data."""


class NumericalError(DegenflowError, ArithmeticError):
    """Numerical failure: NaN state, failed step, or unusable data.

    Carries the partial trajectory when a simulation dies mid-run.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConvergenceError(DegenflowError, ArithmeticError):
    """An iteration hit its budget before reaching tolerance.

    The best iterate found so far is attached so callers can inspect it.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
