"""The exception types, one per failing exit code of the CLI, and the input
rules that more than one command group shares, here because every command
runs this module: the cell cap of every large allocation (``check_cells``;
2**24 cells unless WAVELAB_MAX_CELLS sets it, read once per CLI run), the
band count of a bank (``band_count``, at least 2) and the branch weights of
an IFS (``branch_weights``: positive, summing to 1 within WEIGHT_SUM_TOL).
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_MAX_CELLS = 2**24
_CELLS_ENV = "WAVELAB_MAX_CELLS"
WEIGHT_SUM_TOL = 1e-14
_HELD_CAP: ContextVar[int | None] = ContextVar("held_cell_cap", default=None)  # set in a CLI run


class InputError(Exception):
    """Malformed or inconsistent input, a bad option or a size over the cell cap: exit 2."""


class CellCapError(InputError):
    """A size over the cell cap, reported as it stands, not as a malformed file."""


class VerificationError(Exception):
    """A check, a precondition or an iterative solve failed on well-formed input: exit 1."""


def max_cells() -> int:
    """Cap on the values one allocation may hold: a CLI run's, else the environment's."""
    if (held := _HELD_CAP.get()) is not None:
        return held
    raw = os.environ.get(_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{_CELLS_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{_CELLS_ENV} must be positive, got {cap}")
    return cap


@contextmanager
def held_cell_cap():
    """Read the cap once, failing here on a bad value, and hold it for the body."""
    token = _HELD_CAP.set(max_cells())
    try:
        yield
    finally:
        _HELD_CAP.reset(token)


def check_cells(n_values: int) -> None:
    cap = max_cells()
    if n_values > cap:
        raise CellCapError(
            f"{n_values} cells exceed the cap of {cap}; "
            f"set {_CELLS_ENV} to raise it"
        )


def band_count(n: int) -> int:
    """n, once checked: a bank splits into at least two bands."""
    if n < 2:
        raise InputError("band count must be >= 2")
    return n


def branch_weights(weights, count: int) -> tuple[float, ...]:
    """The weights as floats, uniform when empty; NaN weights fail."""
    w = tuple(float(p) for p in weights) if weights else (1.0 / count,) * count
    if len(w) != count:
        raise InputError(f"expected {count} weights, got {len(w)}")
    if not all(p > 0 for p in w):
        raise InputError(f"branch weights must be positive, got {w}")
    if not abs(sum(w) - 1.0) < WEIGHT_SUM_TOL:
        raise InputError(f"branch weights must sum to 1, got {sum(w)!r}")
    return w
