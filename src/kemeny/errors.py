"""Exception hierarchy shared by all modules, and the deadline check
that raises one."""

import time


class KemenyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KemenyError):
    """A caller-supplied value violates a documented precondition."""


class CapabilityError(KemenyError):
    """The request exceeds a hard size or time cap of this implementation."""


class InternalError(KemenyError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def check_deadline(deadline: float | None) -> None:
    """Raise CapabilityError once the monotonic clock passes the deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise CapabilityError("solve aborted: wall-clock timeout")
