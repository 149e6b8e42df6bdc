"""Complex-valued JSON plumbing.

Every file format in this package serializes a complex number as a
two-element ``[re, im]`` list.  ``dumps`` sorts keys so that identical
inputs produce byte-identical output.  Arrays are encoded with one
``tolist``; a vector of numeric pairs, or a regular matrix of them, is
decoded in one flat pass, and anything else entry by entry by
``decode_complex``, which judges malformed input.

``load_file`` can stream one square matrix member of a top-level object:
the scanner of ``json.loads`` walks a window of ``_CHUNK`` characters of the
file and reads that member's rows into one array sized from the first row,
so neither its tree nor the whole text exists.  Where the walk does not apply
(another document, malformed rows, trailing data, a matrix not square or
over the cell cap), ``json.loads`` reads the text.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from typing import Any, Callable

import numpy as np

from .errors import InputError, check_cells

_CHUNK = 2**18  # characters the kernel file's window reads at a time


class Fresh(np.ndarray):
    """A view of an array its maker has just built: its reader adopts it without a copy."""


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any) -> complex:
    if isinstance(obj, (int, float)):  # a bare real number, read as decode_real reads it
        return complex(decode_real(obj, "bare complex entry"))
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
    return np.asarray(values, dtype=np.complex128).ravel().view(np.float64).reshape(-1, 2).tolist()


def decode_cvector(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        raise InputError("expected a list of [re, im] pairs")
    try:  # struct's "d" takes exactly int, float and bool, and keeps the (re, im) bits
        if set(map(len, obj)) == {2}:
            out = np.empty(len(obj), dtype=np.complex128)
            struct.pack_into(f"{2 * len(obj)}d", out, 0, *chain.from_iterable(obj))
            return out
    except (TypeError, struct.error):  # a bare number, a string, null or out of range
        pass
    return np.array([decode_complex(z) for z in obj], dtype=np.complex128)


def encode_cmatrix(m) -> list[list[list[float]]]:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


def decode_cmatrix(obj) -> np.ndarray:
    if isinstance(obj, np.ndarray):  # a Fresh member, or a caller's array
        return obj
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InputError("expected a nested list of [re, im] pairs")
    if all(isinstance(row, (list, tuple)) for row in obj) and len(set(map(len, obj))) == 1:
        # a regular matrix: one vector of its entries in row order
        return decode_cvector(list(chain.from_iterable(obj))).reshape(len(obj), len(obj[0]))
    for row in obj:  # a row that is not a list of [re, im] pairs fails here
        decode_cvector(row)
    raise InputError("matrix rows differ in length")


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def _stream(fh, matrix: str) -> dict | None:
    """The top-level object in fh, its square member matrix decoded row by row
    by decode_cvector into one array; None where the walk does not apply.  A token
    counts once it ends over two characters before the window's end ('12', '1.'
    or '1e+' may be cut) or at the end of fh; until then the window doubles."""
    scan, ws = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match
    text, i, eof = "", 0, False

    def take(char: bool = False) -> Any:
        """The next non-whitespace character (char) or JSON value."""
        nonlocal text, i, eof
        size = _CHUNK if len(text) - i < _CHUNK // 2 else 0  # topped up, rarely scanned twice
        while True:
            if size and not eof:
                text, i = text[i:], 0  # the text walked goes before more is read
                more = fh.read(size)
                text, eof = text + more, not more
            try:
                j = ws(text, i).end()
                token, end = (text[j], j + 1) if char else scan(text, j)
                if end + 2 < len(text) or eof:
                    i = end
                    return token
            except (ValueError, IndexError):
                if eof:
                    raise
            size = max(_CHUNK, len(text) - i)

    try:
        out, c = {}, take(char=True)
        while c == ("," if out else "{"):  # one member a pass; a repeated key's last wins
            key = take()
            if type(key) is not str or take(char=True) != ":":
                return None
            if key != matrix:
                out[key] = take()
            else:  # the rows, into one square array sized from the first row
                rows, count = None, 0
                while (c := take(char=True)) == ("," if count else "["):
                    row = decode_cvector(take())
                    if rows is None:
                        check_cells(row.size * row.size)  # the file sets this size
                        rows = np.empty((row.size, row.size), dtype=np.complex128)
                    if row.shape != rows.shape[1:] or count == len(rows):
                        return None
                    rows[count], count = row, count + 1
                if c != "]" or rows is None or count < len(rows):
                    return None
                out[key] = rows.view(Fresh)
            c = take(char=True)
        rest = text[i:] + fh.read()
        return out if c == "}" and ws(rest).end() == len(rest) else None
    except (ValueError, IndexError, InputError, RecursionError):  # the tree path judges these
        return None


def load_file(path: str, decode: Callable[[Any], Any] = lambda obj: obj, matrix: str = "") -> Any:
    """The file's JSON tree, passed through decode; with matrix, that member
    of a top-level object arrives as one Fresh array (see ``_stream``)."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = _stream(fh, matrix) if matrix else None
        if tree is None:
            fh.seek(0)
            tree = json.loads(fh.read())  # the text is not held while decode builds its arrays
    return decode(tree)


def dump_file(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
