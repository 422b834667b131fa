"""Exception types shared across the package, and the checks that raise
NumberInvalid."""

import operator
import sys


class ChipChainError(Exception):
    """Base class for every error raised by this package."""


class GeometryInvalid(ChipChainError, ValueError):
    """A chip number (each owned by chip_model), row set, access mode or
    cell value is out of range, inconsistent or not an integer."""


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
    """A number is not an integer in its range, or breaks its rule.

    Each has one owner, whose text a parser prints after its place:
    identity a state index and a key size, ledger a mining difficulty,
    a block height and a rotate's new state index (which must differ
    from the one in force), _pow a verification difficulty, a nonce
    start and an attempt cap, and entropy_analysis the row, block-side,
    failure and population counts and a binomial's n and k; _read_integer
    the digit count of integer text, which Python converts up to a limit."""


class ConfigInvalid(ChipChainError, ValueError):
    """Scenario configuration text failed validation, or a scenario run
    refused one of its schedule actions."""


class FixtureInvalid(ChipChainError, ValueError):
    """Chip fixture record failed validation."""


class ChainInvalid(ChipChainError, ValueError):
    """Serialized proof-of-work chain failed to parse."""


def _shown(number: int) -> str:
    """number as a refusal prints it: its digits, or only its sign and
    length past the most digits Python converts to text."""
    try:
        return str(number)
    except ValueError:
        sign = "a negative" if number < 0 else "an"
        return (f"{sign} integer of more than "
                f"{sys.get_int_max_str_digits()} digits")


def _integer(value, what: str, error: type = NumberInvalid) -> int:
    """value through operator.index: an integer, neither truncated nor
    parsed; else `error`, the class the value's owner raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _number_in(value, what: str, high: int, shown: str | None = None) -> int:
    """value as an integer in [0, high], which `shown` may spell."""
    number = _integer(value, what)
    if not 0 <= number <= high:
        raise NumberInvalid(f"{what} must be in [0, {shown or high}], "
                            f"got {_shown(number)}")
    return number


def _number_from(value, what: str, low: int) -> int:
    """value as an integer of at least low."""
    number = _integer(value, what)
    if number < low:
        raise NumberInvalid(f"{what} must be >= {low}, got {_shown(number)}")
    return number


def _read_integer(text: str) -> int:
    """int(text), the one reader of integer text; decimal text longer than
    Python converts raises NumberInvalid giving its digit count."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        limit = sys.get_int_max_str_digits()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise NumberInvalid(f"integer has {len(digits)} digits, more "
                                f"than the {limit} Python converts") from None
        raise
