"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and contract violations
exit 1, numeric failures (non-finite losses, non-finite logits) exit 2.
"""


class ConfigError(ValueError):
    """Invalid configuration value (bad hyperparameter, unknown mode, ...)."""


class ContractError(ValueError):
    """An operation was called outside its documented preconditions."""


class DimensionError(ContractError):
    """Array shapes do not line up; the message names the offending shapes."""


class DataFormatError(ValueError):
    """A dataset or its file is malformed (a non-finite value, say); the
    message names the row or field."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""
