"""Exception types shared across the package."""


class StoryshotsError(Exception):
    """Base class for all package errors."""


class DimensionError(StoryshotsError, ValueError):
    """Operand shapes are incompatible."""


class DegenerateRowError(StoryshotsError, ValueError):
    """A softmax row has no finite logit to normalize over."""


class ConfigError(StoryshotsError, ValueError):
    """Invalid configuration value or combination."""


class NonFiniteError(StoryshotsError, FloatingPointError):
    """A pass produced latents that are not all finite."""


class ReproducibilityError(StoryshotsError, RuntimeError):
    """RNG fingerprints of dependent passes do not match."""


class PromptError(ConfigError):
    """Prompt file failed validation."""
