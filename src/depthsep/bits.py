"""Bit-vector kernel: parity inner products, XOR, and coordinate rounding,
plus the package's argument rules: _sizes for sizes and counts (positive
integers), _seed for seeds (non-negative integers), _positive for accuracies
and bounds (positive finite reals) and _json_array for numbers read from JSON.

Everything here is stateless and safe to call from multiple threads.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["as_bits", "ip_mod2", "xor_bits", "round_half_away"]


def _sizes(**sizes) -> tuple[int, ...]:
    """The sizes as Python ints, or ValueError naming the first that is not
    a positive integer; numpy integers are read as ints (an unsigned one
    would wrap in 100 d or 2d + 2D), bools and floats are rejected."""
    for name, value in sizes.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return tuple(map(int, sizes.values()))


def _seed(seed) -> int:
    """The seed as a Python int, or ValueError unless it is a non-negative
    integer; a bool is not one."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _positive(**values) -> tuple[float, ...]:
    """The values as floats, or ValueError naming the first that is not a
    positive finite real; bools are not reals here, NaN fails both tests."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return tuple(map(float, values.values()))


def _json_array(value, name: str, ndim: int, integral: bool = False) -> np.ndarray:
    """A number (ndim 0) or a rectangular ndim-deep list parsed from JSON, as
    a float64 (int64 if ``integral``) array, or ValueError naming the field if
    it is ragged or holds anything but numbers (integers if ``integral``):
    strings, booleans and nulls are refused, not coerced."""
    arr = np.asarray(value, dtype=object)
    kinds, what = ((int,), "integer") if integral else ((int, float), "number")
    if arr.ndim != ndim or not all(type(v) in kinds for v in arr.flat):
        shape = f"a {ndim}-d array of JSON {what}s" if ndim else f"a JSON {what}"
        raise ValueError(f"{name} must be {shape}")
    return arr.astype(np.int64 if integral else np.float64)


def _all_bits(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is exactly 0 or 1 (tested before any
    cast, since 256 and 257 wrap to 0 and 1 in int8)."""
    return bool(((arr == 0) | (arr == 1)).all())


def as_bits(x, length: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to an int8 array of 0/1 entries.

    Raises ValueError if any entry is not exactly 0 or 1, or if ``length``
    is given and does not match.
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit vector, got shape {arr.shape}")
    if not _all_bits(arr):
        raise ValueError("bit vector entries must be exactly 0 or 1")
    out = arr.astype(np.int8)
    if length is not None and out.size != length:
        raise ValueError(f"expected length {length}, got {out.size}")
    return out


def _check_same_length(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")


def ip_mod2(x, y):
    """Inner product mod 2 of equal-shape integer arrays along the last axis.

    The parity of sum_i x_i y_i is the XOR of the low bits of x_i & y_i, so
    one row gives a scalar and an (n, d) array n parities, in the inputs'
    integer dtype (int8 bits stay int8).  Accepts arbitrary integer entries
    (not just bits) so that composition with rounding stays total off the
    nominal support; raises ValueError on non-integer entries.
    """
    xa, ya = np.asarray(x), np.asarray(y)
    if xa.dtype.kind not in "biu" or ya.dtype.kind not in "biu":
        raise ValueError(f"ip_mod2 needs integer entries, got {xa.dtype} and {ya.dtype}")
    _check_same_length(xa, ya)
    return np.bitwise_xor.reduce(xa & ya, axis=-1) & 1


def xor_bits(x, y) -> np.ndarray:
    """Coordinatewise sum mod 2 of two equal-length bit vectors."""
    xa = as_bits(x)
    ya = as_bits(y)
    _check_same_length(xa, ya)
    return xa ^ ya


def round_half_away(v) -> np.ndarray:
    """Coordinatewise nearest integer, ties rounded away from zero.

    numpy's ``round`` uses banker's rounding; the fixed away-from-zero rule
    keeps the target function total on all inputs (ties never occur on the
    sampled support, where scaled coordinates lie in [0, 1/4] u [3/4, 1]).
    Raises ValueError on non-finite entries and on magnitudes of 2^53 or
    more, where float64 no longer holds every integer.
    """
    arr = np.asarray(v, dtype=np.float64)
    if not (np.abs(arr) < 2.0**53).all():
        raise ValueError("rounding needs finite entries of magnitude below 2^53")
    # trunc and the fraction are exact, unlike floor(v + 0.5), which rounds
    # 0.49999999999999994 and odd integers above 2^52 up by one
    whole = np.trunc(arr)
    return (whole + np.where(np.abs(arr - whole) >= 0.5, np.sign(arr), 0.0)).astype(np.int64)
