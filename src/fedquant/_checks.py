"""Range checks on input values, one checker per kind of number, and one
way to build a record whose fields are already checked.  ``integer`` takes
a Python or NumPy integer in ``[lo, hi]``, ``finite`` a real number in
``[lo, hi]`` and ``positive`` one in ``(0, hi]``, a bound of None being
none.  Each refuses a bool, and the float checkers refuse NaN, ±inf and
an int that no float holds, or an array with such an entry, or a list or
tuple with one or with a bool (the first is shown), with
``ValueError("<name> must be <rule>, got <value>")``.  A plain ``int``
or ``float`` that passes skips the type tests."""

from __future__ import annotations

import math
import sys

import numpy as np

_INF = math.inf
_MAX = np.float64(sys.float_info.max)  # a NumPy float, so float32 entries are compared as float64


def _refused(value, lo, hi, above: bool):
    """None if ``value``, or each entry of it, is a real number and no bool,
    finite as a float, at least ``lo`` (above it, with ``above``) and at
    most ``hi``; else ``value``, or an array's first refused entry.  An int
    beyond int64 is compared as a Python int, and a list or tuple entry by
    entry as given, so that a bool in it is not read as 0 or 1."""
    x = np.asarray(value)
    ok = (x.dtype != bool) & (-_MAX <= x) & (x <= _MAX)
    if lo is not None:
        ok &= x > lo if above else x >= lo
    if hi is not None:
        ok &= x <= hi
    if isinstance(value, (list, tuple)):
        x = np.asarray(value, dtype=object)
        ok &= np.array([not isinstance(v, (bool, np.bool_)) for v in x.flat], dtype=bool).reshape(x.shape)
    if np.all(ok):
        return None
    return x[np.logical_not(ok)].flat[0] if x.ndim else value


def integer(name: str, value, lo, hi=None) -> None:
    """Refuse a ``value`` that is a bool, not an integer, or outside ``[lo, hi]``."""
    if value.__class__ is not int and (  # a plain int skips the type tests
        isinstance(value, bool) or not isinstance(value, (int, np.integer))
    ) or value < lo or hi is not None and value > hi:
        span = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


def finite(name: str, value, lo=None, hi=None) -> None:
    """Refuse a ``value`` that is not a finite real number in ``[lo, hi]``."""
    if value.__class__ is float and -_INF < value < _INF and (lo is None or lo <= value) and (
        hi is None or value <= hi
    ):
        return  # a plain float skips the type tests
    shown = _refused(value, lo, hi, above=False)
    if shown is not None:
        at_least = "" if lo is None else f" and at least {lo}"
        at_most = "" if hi is None else f" and at most {hi}"
        raise ValueError(f"{name} must be finite{at_least}{at_most}, got {shown}")


def positive(name: str, value, hi=None) -> None:
    """Refuse a ``value`` that is not a finite real number in ``(0, hi]``."""
    if value.__class__ is float and 0.0 < value < _INF and (hi is None or value <= hi):
        return  # a plain float skips the type tests
    shown = _refused(value, 0, hi, above=True)
    if shown is not None:
        rule = "finite and positive" if hi is None else f"positive and at most {hi}"
        raise ValueError(f"{name} must be {rule}, got {shown}")


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
