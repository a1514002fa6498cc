"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, parameters out of range, malformed files."""


class InputError(ValueError):
    """Invalid runtime input, e.g. targets that are not one-hot."""


class IdxFormatError(ConfigError):
    """Malformed IDX binary file (bad magic, truncation, count mismatch, label range)."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries the last iterate gap."""

    def __init__(self, message, gap):
        super().__init__(f"{message} (last gap {gap:.3e})")
        self.gap = gap
