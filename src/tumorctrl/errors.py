"""Exception types shared across the package."""


class ConfigError(Exception):
    """Bad or inconsistent run configuration."""


class SolverError(Exception):
    """An iterative solver failed to converge; the message names its last residual."""


class DomainError(ValueError):
    """A nonlinearity was evaluated outside its admissible domain."""


class SeparationError(ValueError):
    """No damage-separation interval compatible with the initial data exists."""

    def __init__(self, message, condition=""):
        super().__init__(message)
        self.condition = condition
