"""The one number policy for JSON inputs, and the one writer of [re, im] pairs.

Every JSON reader takes its values through here.  A number is a finite JSON
int or float, never a bool or a string ("0.1" and "1+2j" included); an
integer is a JSON int, never a bool, from a stated lower bound up to 2^63 - 1
(int64 frequencies, float divisions); a complex value is a [re, im] pair of
two numbers.  Anything else raises ValidationError naming the field.  NaN
and Infinity are no JSON numbers (RFC 8259, section 6): the CLI refuses them
while parsing, and literals that overflow, such as 1e400, are refused here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def _show(value) -> str:
    return repr(value)[:60]


def fields(value, what: str, keys) -> dict:
    """`value` as a JSON object holding every one of `keys`."""
    if not isinstance(value, dict):
        names = ", ".join(f"'{k}'" for k in keys)
        raise ValidationError(f"{what} must be an object with {names}, got {_show(value)}")
    for key in keys:
        if key not in value:
            raise ValidationError(f"{what} is missing '{key}'")
    return value


def items(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {_show(value)}")
    return value


def integer(value, what: str, low: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value < 2**63:
        raise ValidationError(f"{what} must be an integer >= {low}, below 2^63, got {_show(value)}")
    return value


def _finite(value) -> float | None:
    """A JSON number as a finite float, or None."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return x if math.isfinite(x) else None


def number(value, what: str) -> float:
    x = _finite(value)
    if x is None:
        raise ValidationError(f"{what} must be a finite number, got {_show(value)}")
    return x


def numbers(value, what: str) -> list:
    out = [_finite(v) for v in value] if isinstance(value, list) else [None]
    if None in out:
        raise ValidationError(f"{what} must be a list of numbers, got {_show(value)}")
    return out


def pairs(value, what: str, n: int | None = None) -> np.ndarray:
    """A list of [re, im] pairs, n of them if n is given, as a complex array."""
    if not isinstance(value, list) or n not in (None, len(value)):
        count = "" if n is None else f"{n} "
        raise ValidationError(f"{what} must be a list of {count}[re, im] pairs, got {_show(value)}")
    out = np.empty(len(value), dtype=np.complex128)
    for i, pair in enumerate(value):
        parts = [_finite(x) for x in pair] if isinstance(pair, list) else []
        if len(parts) != 2 or None in parts:
            raise ValidationError(f"{what} entry {i} is not two numbers [re, im]: {_show(pair)}")
        out[i] = complex(*parts)
    return out


def pairs_to_json(values) -> list:
    """Complex values as [re, im] pairs of floats, in row-major order."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=np.complex128).ravel()]
