"""Range checks on input values: one checker per kind of value, each
message written once, and one way to build a record whose fields are
already checked.  A checker refuses a number, or an array with a refused
entry (the first is shown), with ``ValueError("<name> must be <rule>, got
<value>")``.  ``positive`` and ``non_negative`` refuse what does not compare
above or at zero, NaN too; ``integer`` refuses a bool, a non-integer or a
value below its bound, where NumPy integers pass.  A passing Python scalar
costs a comparison and a call, so the round path calls the checkers as
every other caller does."""

from __future__ import annotations

import math

import numpy as np


def _shown(value, bad):
    """``value`` as its message shows it: an array's first ``bad`` entry."""
    return np.asarray(value)[bad].flat[0] if np.ndim(bad) else value


def finite(name: str, value, sign: str = "") -> None:
    """Refuse a ``value`` that is not finite or, with ``sign`` "positive"
    or "non-negative", not of that sign."""
    if sign:
        ok = (value > 0.0 if sign == "positive" else value >= 0.0) & (value < math.inf)
    else:
        ok = np.isfinite(value) if isinstance(value, np.ndarray) else math.isfinite(value)
    if ok is not True and not np.all(ok):
        shown = _shown(value, np.logical_not(ok))
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}, got {shown}")


def positive(name: str, value) -> None:
    """Refuse a ``value`` at or below zero, and NaN."""
    ok = value > 0.0
    if ok is not True and not np.all(ok):
        raise ValueError(f"{name} must be positive, got {_shown(value, np.logical_not(ok))}")


def non_negative(name: str, value) -> None:
    """Refuse a ``value`` below zero, and NaN."""
    ok = value >= 0
    if ok is not True and not np.all(ok):
        raise ValueError(f"{name} must be non-negative, got {_shown(value, np.logical_not(ok))}")


def integer(name: str, value, lo) -> None:
    """Refuse a ``value`` that is a bool, not an integer, or below ``lo``."""
    if value.__class__ is not int and (  # a plain int skips the type tests
        isinstance(value, bool) or not isinstance(value, (int, np.integer))
    ) or value < lo:
        raise ValueError(f"{name} must be an integer of at least {lo}, got {value}")


def in_range(name: str, value, lo, hi) -> None:
    """Refuse a number outside ``[lo, hi]``, and NaN."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


def adopt(cls, fields: dict):
    """A ``cls`` record holding ``fields``, built without running its
    constructor, whose checks already hold for them: its arrays are fresh
    or read-only, referenced nowhere else that writes them, so they are
    frozen in place rather than copied and checked again."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record
