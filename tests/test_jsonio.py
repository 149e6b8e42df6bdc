"""Array codecs of complex JSON against the per-entry paths and the former
numpy-discovery decoders they replace."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
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
    "numeric strings in pair": [["1.5", "2"]],
    "nan string in pair": [["nan", 0]],
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


def test_pair_takes_numbers_not_numeric_strings():
    assert jsonio.decode_complex([1.5, 2]) == 1.5 + 2j
    assert jsonio.decode_complex([True, 0]) == 1.0
    for obj in (["1.5", "2"], [1.5, "2"], ["nan", 0], ["inf", 1.0]):
        with pytest.raises(InputError):
            jsonio.decode_complex(obj)


def test_malformed_matrix_raises():
    for obj in ([], None, [[[1, 2]], [[3, 4], [5, 6]]], [[[1, 2, 3]]], [["ab"]]):
        with pytest.raises(InputError):
            jsonio.decode_cmatrix(obj)


# ---------------------------------------------------------------------------
# one-tolist encoders against the former per-entry encoders
# ---------------------------------------------------------------------------

ENCODE_SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1.5, -2.0]


def encode_inputs():
    rng = np.random.default_rng(7)
    yield np.array(ENCODE_SPECIALS)  # real parts only
    yield np.array([complex(a, b) for a in ENCODE_SPECIALS for b in ENCODE_SPECIALS])
    yield ENCODE_SPECIALS  # a list of floats
    yield [True, False, True]
    yield np.array([True, False])
    yield [2**60, -(2**60), 2**53 + 1, 7]
    yield np.array([2**60, 3], dtype=np.int64)
    yield np.array([1 + 2j, -0.5j], dtype=np.complex64)
    yield rng.normal(size=40) + 1j * rng.normal(size=40)
    yield 10.0 ** rng.integers(-300, 300, size=20) * (rng.normal(size=20) + 1j * rng.normal(size=20))
    yield []


def test_vector_encoder_matches_the_per_entry_encoder():
    for values in encode_inputs():
        assert jsonio.dumps(jsonio.encode_cvector(values)) == jsonio.dumps(oracle.encode_cvector(values))
    # one value, and a matrix flattened in row order
    assert jsonio.encode_cvector(2.5) == oracle.encode_cvector(2.5)
    m = np.arange(12.0).reshape(3, 4).T - 1j
    assert jsonio.dumps(jsonio.encode_cvector(m)) == jsonio.dumps(oracle.encode_cvector(m))


def test_matrix_encoder_matches_the_per_entry_encoder():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    specials = np.array([complex(a, b) for a in ENCODE_SPECIALS for b in ENCODE_SPECIALS]).reshape(9, 9)
    for m in (z, z.T, z[::2, 1:], specials, np.eye(3), [[1, 0], [0, -1]], [[True, False]], np.zeros((0, 3))):
        assert jsonio.dumps(jsonio.encode_cmatrix(m)) == jsonio.dumps(oracle.encode_cmatrix(m))


# ---------------------------------------------------------------------------
# flat-pass decoders against the former numpy-discovery decoders
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.integers(-(2**70), 2**70),  # past int64 and uint64
    st.sampled_from([2**63 - 1, -(2**63), 2**63, 2**64 - 1, 2**64, 10**400, -(10**400)]),
    st.booleans(),
)
ODD = st.one_of(st.none(), st.sampled_from(["1.5", "2", "nan", "inf", "ab", "12"]))
GOOD_PAIR = st.lists(NUMBERS, min_size=2, max_size=2)
ANY_ENTRY = st.one_of(
    GOOD_PAIR,
    st.lists(st.one_of(NUMBERS, ODD), max_size=3),  # short, long or with odd members
    NUMBERS,  # a bare number
    ODD,
    st.lists(GOOD_PAIR, min_size=1, max_size=2),  # nested pairs
)
VECTORS = st.one_of(st.lists(GOOD_PAIR, max_size=6), st.lists(ANY_ENTRY, max_size=4), NUMBERS, ODD)
MATRICES = st.one_of(
    st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(GOOD_PAIR, min_size=n, max_size=n), max_size=4)),
    st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(ANY_ENTRY, min_size=n, max_size=n), max_size=3)),
    st.lists(st.lists(GOOD_PAIR, max_size=3), max_size=3),  # ragged most likely
    st.lists(st.one_of(GOOD_PAIR, NUMBERS, ODD), max_size=3),  # rows that are no lists of pairs
    NUMBERS,
    ODD,
)


def same_outcome(decode, former, obj) -> None:
    """The same bits as the former decoder, or an InputError from both."""
    try:
        want = former(obj)
    except InputError:
        with pytest.raises(InputError):
            decode(obj)
        return
    assert same_bits(decode(obj), want)


@given(VECTORS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_vector_decoder_matches_the_former_decoder(obj):
    same_outcome(jsonio.decode_cvector, oracle.decode_cvector, obj)


@given(MATRICES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_matrix_decoder_matches_the_former_decoder(obj):
    same_outcome(jsonio.decode_cmatrix, oracle.decode_cmatrix, obj)


# ---------------------------------------------------------------------------
# a matrix member streamed row by row against the whole-tree decode
# ---------------------------------------------------------------------------

REALS = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e-310, 1e308, -1e308, 2**53 + 1]),  # subnormals
)
# a pair, booleans allowed, or a bare real (a bare boolean is malformed)
ENTRIES = st.one_of(st.lists(st.one_of(REALS, st.booleans()), min_size=2, max_size=2), REALS)
SQUARE_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
)
OTHERS = st.tuples(
    st.sampled_from(["tol", "", "matri", "matrix ", "é"]),
    st.one_of(st.none(), st.integers(), st.sampled_from(["", 'a"b', "é\\n", "]}"]),
              st.lists(st.integers(), max_size=2),
              st.dictionaries(st.sampled_from(["matrix", "a"]), st.integers(), max_size=2)),
)
LAYOUTS = {  # (indent, separators) of json.dumps, and the object's own whitespace
    "compact": (None, (",", ":"), ",", ":", "", ""),
    "default": (None, (", ", ": "), ", ", ": ", "", ""),
    "pretty": (2, (",", ": "), ",\n  ", ": ", "\n  ", "\n"),
    "loose": (None, (" ,\t", " :\r\n"), " ,\t", " :\r\n", "\n\t ", " \r\n"),
}


def document(members, layout: str) -> str:
    """members as a JSON object in one layout; a key may repeat, as json allows."""
    indent, separators, comma, colon, opening, closing = LAYOUTS[layout]
    body = comma.join(
        json.dumps(key) + colon + json.dumps(value, indent=indent, separators=separators)
        for key, value in members
    )
    return "{" + opening + body + closing + "}"


# windows of 1, 2 and 7 characters put a window's edge inside every token
CHUNKS = (1, 2, 7, jsonio._CHUNK)


def stream(text: str, chunk: int) -> dict | None:
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        return jsonio._stream(io.StringIO(text), "matrix")


@given(
    st.lists(OTHERS, max_size=2),
    st.lists(SQUARE_MATRICES, min_size=1, max_size=2),  # two: the last "matrix" wins
    st.lists(OTHERS, max_size=2),
    st.sampled_from(sorted(LAYOUTS)),
    st.sampled_from(CHUNKS),
)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_a_streamed_matrix_member_matches_the_tree(before, matrices, after, layout, chunk):
    text = document([*before, *(("matrix", m) for m in matrices), *after], layout)
    tree = json.loads(text)
    streamed = stream(text, chunk)
    assert streamed is not None, text  # the walk applies to every well-formed object here
    assert list(streamed) == list(tree)
    want = jsonio.decode_cmatrix(tree.pop("matrix"))
    got = streamed.pop("matrix")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert jsonio.decode_cmatrix(got) is got  # the decoded member passes through
    assert json.dumps(streamed) == json.dumps(tree)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 2], [3, 4], [5, 6]], [[]], []])
def test_a_matrix_that_is_not_square_is_left_to_the_tree(matrix, chunk):
    text = json.dumps({"matrix": matrix, "tol": 1})
    assert stream(text, chunk) is None


def test_the_first_row_is_checked_against_the_cell_cap_before_the_array_exists(monkeypatch):
    text = json.dumps({"matrix": [[[1, 0]] * 3] * 3})
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "8")
    with mock.patch.object(np, "empty", wraps=np.empty) as empty:
        assert stream(text, jsonio._CHUNK) is None  # the tree path judges it
    assert all(call.args[0] != (3, 3) for call in empty.call_args_list)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "9")
    assert stream(text, jsonio._CHUNK)["matrix"].shape == (3, 3)


def test_load_file_streams_only_the_named_member(tmp_path):
    path = tmp_path / "k.json"
    path.write_text('{"matrix": [[[1, -0.0], 2], [2, 3]], "tol": [[3, 4]]}', encoding="utf-8")
    got = jsonio.load_file(str(path), matrix="matrix")
    assert got["tol"] == [[3, 4]] and got["matrix"].tolist() == [[1 - 0j, 2 + 0j], [2, 3]]
    assert jsonio.load_file(str(path)) == json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scalar", ["12345", "-12.25e-3", "1.5E+10", "-Infinity", "true", '"a\\u00e9b"'])
def test_a_scalar_cut_at_any_window_edge_decodes_whole(scalar):
    text = '{"tol": ' + scalar + ', "matrix": [[[1, 2]]], "b": ' + scalar + "}"
    tree = json.loads(text)
    for chunk in range(1, len(text) + 1):
        streamed = stream(text, chunk)
        assert streamed is not None, chunk
        assert streamed.pop("matrix").tolist() == [[1 + 2j]]
        assert json.dumps(streamed) == json.dumps({"tol": tree["tol"], "b": tree["b"]}), chunk
