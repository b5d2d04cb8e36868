"""Range checks on input values: one checker per kind of value, each
message written once.  A checker refuses a number, or an array with a
refused entry (the first is shown), with ``ValueError("<name> must be
<rule>, got <value>")``.  ``positive``, ``non_negative`` and ``at_least``
refuse what does not compare above or at their bound, NaN too; ``integer``
also refuses a bool or a non-integer, where NumPy integers pass.  The round
path tests a rule inline and calls its checker only to raise: a passing
value costs no call there."""

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
    if not np.all(ok):
        shown = _shown(value, np.logical_not(ok))
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}, got {shown}")


def positive(name: str, value) -> None:
    """Refuse a ``value`` at or below zero, and NaN."""
    ok = value > 0.0
    if not np.all(ok):
        raise ValueError(f"{name} must be positive, got {_shown(value, np.logical_not(ok))}")


def non_negative(name: str, value) -> None:
    """Refuse a ``value`` below zero, and NaN."""
    ok = value >= 0
    if not np.all(ok):
        raise ValueError(f"{name} must be non-negative, got {_shown(value, np.logical_not(ok))}")


def at_least(name: str, value, lo) -> None:
    """Refuse a ``value`` below ``lo``, and NaN."""
    ok = value >= lo
    if not np.all(ok):
        raise ValueError(f"{name} must be at least {lo}, got {_shown(value, np.logical_not(ok))}")


def integer(name: str, value, lo) -> None:
    """Refuse a ``value`` that is a bool, not an integer, or below ``lo``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer of at least {lo}, got {value}")


def in_range(name: str, value, lo, hi) -> None:
    """Refuse a number outside ``[lo, hi]``, and NaN."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
