"""Argument-validation helpers shared across the library.

The helpers raise :class:`repro.exceptions.ValidationError` with descriptive
messages; they are deliberately small so call sites stay readable.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError


def check_array(
    values,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
    dtype=np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Convert ``values`` to a numpy array and validate its shape.

    Parameters
    ----------
    values:
        Anything convertible to a numpy array of ``dtype``.
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions, or ``None`` to accept any.
    allow_empty:
        Whether zero-size arrays are acceptable.
    """
    try:
        array = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} could not be converted to a numeric array: {exc}") from exc
    if ndim is not None and array.ndim != ndim:
        raise ValidationError(f"{name} must have {ndim} dimension(s), got shape {array.shape}")
    if not allow_empty and array.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if np.issubdtype(array.dtype, np.floating) and not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return array


def check_batch_values(values, rows: int, *, name: str) -> np.ndarray:
    """``values`` as float64, checked to hold one value per row of a ``rows``-row batch.

    Objectives and swarms call their callables once on a whole matrix.  A
    per-vector callable handed one returns a 0-d value that would broadcast
    silently, so the shape is checked instead of trusted.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (rows,):
        raise ValidationError(
            f"{name} must return shape ({rows},) for a batch of {rows} rows, got shape {values.shape}"
        )
    return values


def canonical_float(value, *, significant_digits: int = 12) -> float:
    """Round a scalar to ``significant_digits`` decimal digits of precision.

    Used wherever floats act as dictionary/cache keys: values that differ only
    by float noise (serialisation round trips, ``float32`` upcasts, summation
    order) map to one canonical representative.  The default 12 significant
    digits tolerate relative noise up to ~1e-13 while staying far below any
    statistically meaningful digit, and a 12-digit decimal survives the
    decimal→binary→decimal round trip exactly, so the mapping is idempotent:
    ``canonical_float(canonical_float(x)) == canonical_float(x)``.
    """
    if not 1 <= int(significant_digits) <= 17:
        raise ValidationError(
            f"significant_digits must be in [1, 17], got {significant_digits}"
        )
    value = float(value)
    if not np.isfinite(value):
        return value
    return float(f"{value:.{int(significant_digits)}g}")


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite scalar."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies within ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if inclusive:
        if not (low <= value <= high):
            raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    else:
        if not (low < value < high):
            raise ValidationError(f"{name} must be in ({low}, {high}), got {value}")
    return value


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    return check_in_range(value, 0.0, 1.0, name=name)


def check_same_length(first: Sequence, second: Sequence, *, names: tuple[str, str] = ("first", "second")) -> None:
    """Validate that two sequences have the same length."""
    if len(first) != len(second):
        raise DimensionMismatchError(
            f"{names[0]} and {names[1]} must have the same length, got {len(first)} and {len(second)}"
        )


def check_dimensions_match(dim_a: int, dim_b: int, *, names: tuple[str, str] = ("a", "b")) -> None:
    """Validate that two dimensionalities are identical."""
    if int(dim_a) != int(dim_b):
        raise DimensionMismatchError(
            f"{names[0]} has dimensionality {dim_a} but {names[1]} has {dim_b}"
        )
