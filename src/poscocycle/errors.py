"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


class PositivityViolation(RuntimeError):
    """A trajectory left the nonnegative orthant it was supposed to stay in.

    Carries a witness: (time, coordinate index, offending value).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EstimationError(RuntimeError):
    """An estimator hit an ill-conditioned or numerically hopeless state."""
