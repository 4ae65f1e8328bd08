"""Exception types shared across the package."""


class StoryshotsError(Exception):
    """Base class for all package errors."""


class DimensionError(StoryshotsError, ValueError):
    """Operand shapes are incompatible."""


class ConfigError(StoryshotsError, ValueError):
    """Invalid configuration value or combination."""


class NonFiniteError(StoryshotsError, FloatingPointError):
    """A value that must be finite is not: a pass's latents or a softmax row max."""


class PromptError(ConfigError):
    """Prompt file failed validation."""
