"""Exception hierarchy shared by all modules.

The CLI maps InputFormatError / ValueError to exit code 2 and
CapacityError (including budget refusals) to exit code 3.
"""


def _shown(x: int) -> int | str:
    """x for an error message, or its bound past 10^18: one short line."""
    if abs(x) < 10**18:
        return x
    return "over 10^18" if x > 0 else "under -10^18"


class ExpdegError(Exception):
    pass


class InputFormatError(ExpdegError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(ExpdegError):
    """Input exceeds a hard size cap (vertex capacity, dense-table size, ...)."""


class BudgetExceededError(CapacityError):
    """A brute-force oracle refused to run past its work budget."""
