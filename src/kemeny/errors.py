"""Exception hierarchy shared by all modules, and the deadline and bound
checks that raise them."""

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


def check_bound(what: str, count: int, bound: int) -> None:
    """Raise InternalError if a solver keeps more states than its proven
    bound allows; ``what`` names the kind of state counted."""
    if count > bound:
        raise InternalError(f"{what} count {count} exceeds its bound {bound}")
