"""Exception hierarchy shared across the package. Every class here is raised
or caught by another module (tests/test_hygiene.py checks it).

Exit-code mapping used by the CLI:
  usage errors -> 1, data errors -> 2, numerical/training failures -> 3.
"""


class MomentGraphError(Exception):
    """Base class for all package errors."""


class DimensionError(MomentGraphError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(MomentGraphError):
    """An internal API contract was violated (e.g. backward on a non-scalar)."""


class InputError(MomentGraphError):
    """User-provided input is invalid (empty query, empty frame list, ...)."""


class ConfigError(MomentGraphError):
    """Invalid configuration value or unknown variant name."""


class DataError(MomentGraphError):
    """Problem loading or parsing dataset files."""


class CheckpointError(MomentGraphError):
    """Checkpoint file malformed or incompatible with the current config."""


class TrainingError(MomentGraphError):
    """Numerical failure during training (a non-finite gradient or loss)."""
