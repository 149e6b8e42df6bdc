"""Array decode of complex JSON against the per-entry path it replaces."""

import json

import numpy as np
import pytest

from wavelab import jsonio
from wavelab.errors import InputError

SPECIALS = [0.0, -0.0, 1.5, -2, 7, float("inf"), float("-inf"), float("nan"), True, False, 10**17]


def per_entry_vector(obj) -> np.ndarray:
    return np.array([jsonio.decode_complex(z) for z in obj], dtype=np.complex128)


def per_entry_matrix(obj) -> np.ndarray:
    return np.array([per_entry_vector(row) for row in obj], dtype=np.complex128)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def pairs(rng, count: int) -> list:
    values = list(rng.normal(scale=10.0 ** rng.integers(-300, 300), size=2 * count))
    for i in rng.integers(0, 2 * count, size=count):
        values[i] = SPECIALS[rng.integers(len(SPECIALS))]
    return [[values[2 * i], values[2 * i + 1]] for i in range(count)]


@pytest.mark.parametrize("seed", range(8))
def test_vector_decode_is_bit_exact(seed):
    rng = np.random.default_rng(seed)
    obj = pairs(rng, 1 + seed * 7)
    assert same_bits(jsonio.decode_cvector(obj), per_entry_vector(obj))
    # the same through a JSON round trip (NaN and inf as json.dumps writes them)
    back = json.loads(json.dumps(obj))
    assert same_bits(jsonio.decode_cvector(back), per_entry_vector(back))


@pytest.mark.parametrize("seed", range(4))
def test_matrix_decode_is_bit_exact(seed):
    rng = np.random.default_rng(100 + seed)
    rows, cols = 1 + seed, 3 + seed
    obj = [pairs(rng, cols) for _ in range(rows)]
    assert same_bits(jsonio.decode_cmatrix(obj), per_entry_matrix(obj))


def test_special_values_keep_their_bits():
    obj = [[-0.0, float("inf")], [float("nan"), -0.0], [True, 3], [False, -1]]
    got = jsonio.decode_cvector(obj)
    assert same_bits(got, per_entry_vector(obj))
    # re + 1j * im would have made the first real part NaN
    assert got[0].real == 0.0 and np.signbit(got[0].real) and got[0].imag == np.inf
    assert np.signbit(got[1].imag)


def test_mixed_forms_take_the_per_entry_path():
    assert same_bits(jsonio.decode_cvector([1.5, 2]), np.array([1.5, 2.0], dtype=complex))
    mixed = [1.5, [2, 3]]
    assert same_bits(jsonio.decode_cvector(mixed), per_entry_vector(mixed))
    bare_rows = [[1, 2], [3, 4]]  # a real matrix written without pairs
    assert same_bits(jsonio.decode_cmatrix(bare_rows), per_entry_matrix(bare_rows))
    assert jsonio.decode_cvector([]).shape == (0,)


BAD_VECTORS = {
    "string entry": ["abc", [1, 2]],
    "string in pair": [["abc", 1.0]],
    "3-element row": [[1.0, 2.0, 3.0]],
    "3-element rows": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    "ragged rows": [[1.0, 2.0], [3.0]],
    "None entry": [None],
    "None in pair": [[None, 1.0]],
    "nested pair": [[[1, 2], [3, 4]]],
    "not a list": "abc",
}


@pytest.mark.parametrize("name", sorted(BAD_VECTORS))
def test_malformed_vector_raises(name):
    obj = BAD_VECTORS[name]
    with pytest.raises(InputError):
        jsonio.decode_cvector(obj)
    with pytest.raises(InputError):
        jsonio.decode_cmatrix([obj, obj])


def test_malformed_matrix_raises():
    for obj in ([], None, [[[1, 2]], [[3, 4], [5, 6]]], [[[1, 2, 3]]], [["ab"]]):
        with pytest.raises(InputError):
            jsonio.decode_cmatrix(obj)
