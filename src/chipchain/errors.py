"""Exception types shared across the package, and the check that raises
NumberInvalid."""

import operator


class ChipChainError(Exception):
    """Base class for every error raised by this package."""


class GeometryInvalid(ChipChainError, ValueError):
    """A chip's geometry, rows, seed, access mode or cell value is out of
    range, inconsistent or not an integer."""


class CapacityExceeded(ChipChainError):
    """More failure rows than the redundancy array can absorb."""


class ColumnOutOfRange(ChipChainError):
    """Column index outside the chip's column count."""


class PreprocessMissing(ChipChainError):
    """Read attempted before both preprocessing writes happened."""


class KExceedsN(ChipChainError):
    """Binomial coefficient requested with k > n."""


class CountTooLarge(ChipChainError):
    """Exact count with more decimal digits than Python converts to text."""


class UnknownGeneration(ChipChainError):
    """Capacity generation name not in the built-in ladder."""


class PrimeSearchExhausted(ChipChainError):
    """No prime found within the bounded search window."""


class SignatureMalformed(ChipChainError):
    """Signature has the wrong length for the verifying key."""


class StateMismatch(ChipChainError):
    """Operation used a security-state index the object was not bound to."""


class CycleDetected(ChipChainError):
    """Transfer topology contains a cycle."""


class MultipleSinks(ChipChainError):
    """Transfer topology has no unique final receiver."""


class UnknownChip(ChipChainError):
    """Referenced chip or node id is not part of the structure."""


class NonceExhausted(ChipChainError):
    """Proof-of-work search ran out of nonces below the attempt cap."""


class NumberInvalid(ChipChainError, ValueError):
    """A state index, proof-of-work difficulty, nonce start, attempt cap
    or block height is not an integer in its range."""


class ConfigInvalid(ChipChainError, ValueError):
    """Scenario configuration text failed validation, or a scenario run
    refused one of its schedule actions."""


class FixtureInvalid(ChipChainError, ValueError):
    """Chip fixture record failed validation."""


class ChainInvalid(ChipChainError, ValueError):
    """Serialized proof-of-work chain failed to parse."""


def _number_in(value, what: str, high: int, shown: str | None = None) -> int:
    """value as an integer in [0, high], which `shown` may spell."""
    try:
        number = operator.index(value)
    except TypeError:
        raise NumberInvalid(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= number <= high:
        raise NumberInvalid(f"{what} must be in [0, {shown or high}], got {number}")
    return number
