"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or command-line parameters."""


class ParseError(ValueError):
    """Malformed input file; the message names the file (and line, in text)."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value for the given inputs."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge."""
