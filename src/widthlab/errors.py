"""Shared exception types, and the checked integer-token parser that turns
malformed numbers in files and flags into them."""


class WidthlabError(Exception):
    """Base class for errors raised by this package."""


class InputError(WidthlabError, ValueError):
    """Malformed or out-of-range input supplied by the caller."""


class FormatError(InputError):
    """Ill-formed file content (DIMACS, PACE, branching-program text)."""


class CapacityError(WidthlabError, ValueError):
    """Instance exceeds a configured exhaustive-computation cap."""


class InvariantViolationError(WidthlabError, RuntimeError):
    """An internal self-check failed; indicates an implementation bug."""


class WitnessNotFoundError(WidthlabError, LookupError):
    """No prefix cut with the requested matching size exists."""


class ProgramIncorrectError(WidthlabError, RuntimeError):
    """A branching program rejects an assignment it is required to accept."""


def int_token(token: str, where: str, error: type[InputError] = FormatError) -> int:
    """Parse one integer token.  A malformed token raises `error` (FormatError
    for file content, InputError for flags) with a message led by `where`."""
    try:
        return int(token)
    except ValueError:
        raise error(f"{where}: expected an integer, got {token!r}") from None
