"""Complex-valued JSON plumbing.

Every file format in this package serializes a complex number as a
two-element ``[re, im]`` list.  ``dumps`` sorts keys so that identical
inputs produce byte-identical output.  A vector made only of numeric
pairs is decoded as one array (a matrix row by row); anything else is
decoded entry by entry by ``decode_complex``, which judges malformed
input.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InputError


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    # numbers only: float() would also read the string "1.5"
    numbers = isinstance(obj, (list, tuple)) and all(isinstance(v, (int, float)) for v in obj)
    if numbers and len(obj) == 2:
        try:
            return complex(float(obj[0]), float(obj[1]))
        except OverflowError:
            pass
    raise InputError(f"expected [re, im] pair, got {obj!r}")


def decode_int(obj: Any, name: str) -> int:
    if type(obj) is not int:  # not int(), which truncates 2.9, parses "2" and reads true
        raise InputError(f"{name} must be an integer, got {obj!r}")
    return obj


def decode_ints(obj: Any, name: str) -> np.ndarray:
    """A list, or regular nested lists, of JSON integers as one int64 array."""
    cells = np.array(obj, dtype=object) if isinstance(obj, list) else None
    # a ragged list leaves lists among the cells
    if cells is None or not all(type(v) is int and -(2**63) <= v < 2**63 for v in cells.flat):
        raise InputError(f"{name} must be a regular list of integers, got {obj!r}")
    return cells.astype(np.int64)


def decode_real(obj: Any, name: str) -> float:
    if type(obj) in (int, float):  # not float(), which parses "0.5" and reads true
        try:
            return float(obj)
        except OverflowError:
            pass
    raise InputError(f"{name} must be a number, got {obj!r}")


def encode_cvector(values) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(values).ravel()]


def decode_cvector(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        raise InputError("expected a list of [re, im] pairs")
    try:
        block = np.array(obj)
    except (TypeError, ValueError, OverflowError):  # ragged or out of range
        block = np.empty(0)
    if block.ndim == 2 and block.shape[1] == 2 and block.dtype.kind in "biuf":
        # the (re, im) floats bit for bit: re + 1j * im would make 1j * inf a NaN real part
        return np.ascontiguousarray(block, dtype=np.float64).view(np.complex128)[:, 0]
    return np.array([decode_complex(z) for z in obj], dtype=np.complex128)


def encode_cmatrix(m) -> list[list[list[float]]]:
    m = np.asarray(m)
    return [encode_cvector(row) for row in m]


def decode_cmatrix(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InputError("expected a nested list of [re, im] pairs")
    # row by row: one block for the whole matrix would double its peak memory
    rows = [decode_cvector(row) for row in obj]
    if len({row.shape for row in rows}) > 1:
        raise InputError("matrix rows differ in length")
    return np.array(rows, dtype=np.complex128)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_file(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
