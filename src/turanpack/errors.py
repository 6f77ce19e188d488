"""Exception types shared across the package, and the one check that a
key=value parameter set is complete and integer.

The CLI maps these onto its documented exit codes: PreconditionError -> 2,
SizeGuardError -> 3, SoundnessAlarm -> 4.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class SizeGuardError(RuntimeError):
    """An exact routine refused an instance larger than its size guard."""


class SoundnessAlarm(RuntimeError):
    """An internal cross-check failed; results must not be trusted."""


def is_int(value) -> bool:
    """An int that is not a bool: JSON true/false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_params(what: str, params: dict, required: tuple[str, ...] = (),
                 optional: tuple[str, ...] = (), ints: tuple[str, ...] | None = None) -> None:
    """Refuse a key outside required and optional, a missing required key,
    a value of a key in ints (default: every key) that is not an integer,
    and a negative n. what names the parameter set in the messages."""
    extra = set(params) - {*required, *optional}
    if extra:
        raise PreconditionError(f"unknown parameters: {', '.join(sorted(extra))}")
    missing = [key for key in required if key not in params]
    if missing:
        raise PreconditionError(f"{what} needs parameters: {', '.join(missing)}")
    checked = tuple(params) if ints is None else ints
    not_int = [key for key in checked if key in params and not is_int(params[key])]
    if not_int:
        raise PreconditionError(f"{what} needs integer parameters: {', '.join(not_int)}")
    if "n" in checked and params.get("n", 0) < 0:
        raise PreconditionError("vertex count must be nonnegative")
