"""Exception types shared across the package."""


class IsicapError(Exception):
    """Base class for all package-specific errors."""


class SpectrumSingular(IsicapError):
    """The tap-centre transfer function vanishes (or nearly vanishes)
    somewhere on the unit circle, so inverse-spectrum quantities blow up."""


class BoundInapplicable(IsicapError):
    """A hypothesis required by a closed-form bound fails at the requested
    operating point (e.g. a log argument is non-positive)."""


class CodebookTooLarge(IsicapError):
    """The requested rate/blocklength pair needs more codewords than the
    exhaustive decoder is willing to enumerate."""


class DimensionMismatch(IsicapError):
    """Array shapes are inconsistent with the channel dimensions."""


class ConfigError(IsicapError):
    """A config file or CLI argument could not be interpreted."""
