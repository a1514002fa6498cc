"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, parameters out of range, malformed files."""


class InputError(ValueError):
    """Invalid runtime input, e.g. targets that are not one-hot."""


class IdxFormatError(ConfigError):
    """Malformed IDX binary file (bad magic, truncation, count mismatch, label range)."""

