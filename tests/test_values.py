"""Runtime value model: wrapping, payload checks, JSON round-trips."""

import enum
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from opsforge.errors import DimensionMismatchError, RegistrationError
from opsforge.stdlib import default_environment
from opsforge.types import SemanticType, parse_type
from opsforge.values import (
    BOOLEAN,
    BYTE_ARRAY,
    IMAGE_F64,
    IMAGE_U8,
    INTEGER,
    REAL,
    REAL_ARRAY,
    TEXT,
    Value,
    _check_payload,
    _numbers,
    from_json_obj,
    image_f64,
    image_u8,
    is_number,
    wrap,
    write_back,
)


def test_wrap_infers_scalars():
    assert wrap(3).type.base == "Integer"
    assert wrap(3.5).type.base == "Real"
    assert wrap(True).type.base == "Boolean"
    assert wrap("hi").type.base == "Text"


def test_bool_is_not_integer():
    # bool subclasses int in Python; the type tags must still disagree
    assert wrap(True).type.base == "Boolean"
    with pytest.raises(RegistrationError):
        Value(parse_type("Integer"), True)


@pytest.mark.parametrize(
    "base, payload",
    [
        ("RealArray", np.zeros((1, 3))),
        ("RealArray", np.zeros(3, dtype=np.float32)),
        ("ImageU8", np.zeros(4, dtype=np.uint8)),
        ("ImageU8", np.zeros((2, 2))),
        ("ImageF64", np.zeros((1, 2, 2))),
        ("ImageF64", np.zeros((2, 2), dtype=np.uint8)),
    ],
    ids=repr,
)
def test_an_array_payload_needs_its_types_ndim_and_dtype(base, payload):
    with pytest.raises(RegistrationError) as err:
        Value(parse_type(base), payload)
    assert str(err.value) == f"payload ndarray does not fit type {base}"


def test_wrap_keeps_bytearray_identity():
    data = bytearray(b"\x00\x05")
    v = wrap(data)
    assert v.payload is data
    v.payload[0] = 7
    assert data[0] == 7


def test_wrap_copies_immutable_bytes():
    v = wrap(b"\x01\x02")
    assert isinstance(v.payload, bytearray)
    assert list(v.payload) == [1, 2]


def test_wrap_ndarray_kinds():
    assert wrap(np.zeros(3)).type.base == "RealArray"
    assert wrap(np.zeros((2, 2), dtype=np.uint8)).type.base == "ImageU8"
    assert wrap(np.zeros((2, 2))).type.base == "ImageF64"
    with pytest.raises(RegistrationError):
        wrap(np.zeros((2, 2, 2)))


def test_wrap_number_list_becomes_real_array():
    v = wrap([1, 2.5])
    assert v.type.base == "RealArray"
    assert v.payload.dtype == np.float64


@pytest.mark.parametrize("item", [10**400, -(10**400), 2**1024 - 2**970])
def test_wrap_rejects_a_list_item_no_float_can_hold(item):
    with pytest.raises(RegistrationError):
        wrap([1.0, item])


def _float_holds(x):
    try:
        float(x)
    except OverflowError:
        return False
    return True


@pytest.mark.parametrize("edge", [2**1024 - 2**970, -(2**1024 - 2**970)])
@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_is_number_agrees_with_float_at_the_range_edge(edge, offset):
    x = edge + offset
    assert is_number(x) == _float_holds(x)


def test_payload_must_agree_with_type():
    with pytest.raises(RegistrationError):
        Value(parse_type("Real"), 3)
    with pytest.raises(RegistrationError):
        Value(parse_type("ByteArray"), b"immutable")
    with pytest.raises(RegistrationError):
        Value(parse_type("ImageU8"), np.zeros((2, 2)))


def test_image_constructors_shape():
    img = image_u8(3, 2, range(6))
    assert img.payload.shape == (2, 3)
    with pytest.raises(ValueError):
        image_f64(3, 2, range(5))


@pytest.mark.parametrize(
    "make, pixels",
    [
        (image_u8, [1.7, 2]),
        (image_u8, [1, 300]),
        (image_u8, [-1, 2]),
        (image_u8, [True, 2]),
        (image_u8, [np.float64(1.0), 2]),
        (image_f64, ["1", 2]),
        (image_f64, [2**1024, 2]),
        (image_f64, [np.bool_(True), 2]),
    ],
)
def test_image_constructors_reject_the_pixels_json_input_rejects(make, pixels):
    type_ = IMAGE_U8 if make is image_u8 else IMAGE_F64
    with pytest.raises(RegistrationError) as from_json:
        from_json_obj(type_, {"w": 2, "h": 1, "data": list(pixels)})
    with pytest.raises(RegistrationError) as made:
        make(2, 1, pixels)
    assert str(made.value) == str(from_json.value)


def test_image_constructors_take_numpy_scalars_as_the_numbers_they_equal():
    ints = np.array([0, 7, 255, 3], dtype=np.int64)
    assert image_u8(2, 2, ints).payload.tolist() == [[0, 7], [255, 3]]
    assert image_u8(2, 2, ints.astype(np.uint8)).payload.dtype == np.uint8
    mixed = [np.float32(0.5), np.int16(-3), np.float64(2.25), 4]
    assert image_f64(2, 2, mixed).payload.tolist() == [[0.5, -3.0], [2.25, 4.0]]


def test_uids_are_unique():
    a, b = wrap(1), wrap(1)
    assert a.uid != b.uid


@pytest.mark.parametrize(
    "obj",
    [7, 2.25, False, "text", bytearray(b"\x00\xff")],
)
def test_json_round_trip_scalars_and_bytes(obj):
    v = wrap(obj)
    back = from_json_obj(v.type, v.to_json_obj())
    assert back.payload == v.payload


def test_json_round_trip_images():
    img = image_f64(2, 2, [0.0, 1.5, -2.0, 3.25])
    back = from_json_obj(img.type, img.to_json_obj())
    assert np.array_equal(back.payload, img.payload)
    u8 = image_u8(2, 1, [0, 255])
    back8 = from_json_obj(u8.type, u8.to_json_obj())
    assert np.array_equal(back8.payload, u8.payload)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_json_round_trip_real_array(xs):
    v = wrap(xs)
    back = from_json_obj(v.type, v.to_json_obj())
    assert np.array_equal(back.payload, v.payload)


@pytest.mark.parametrize("pixel", ["x", True, None])
def test_image_f64_rejects_non_number_pixels(pixel):
    with pytest.raises(RegistrationError):
        from_json_obj(parse_type("ImageF64"), {"w": 1, "h": 1, "data": [pixel]})


HUGE = 10**400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "type_text, obj",
    [
        ("Real", HUGE),
        ("RealArray", [1.0, HUGE]),
        ("ImageF64", {"w": 2, "h": 1, "data": [HUGE, 1.0]}),
        ("ImageF64", {"w": True, "h": 1, "data": [1.0]}),
        ("ImageU8", {"w": 1, "h": True, "data": [1]}),
        ("ImageF64", {"w": 0, "h": 10**30, "data": []}),
        ("ImageU8", {"w": 1, "h": 1, "data": [1.5]}),
        ("Integer", 2**63),
        ("Integer", -(2**63) - 1),
        ("Integer", 10**30),
    ],
    ids=["real", "real_array_item", "image_pixel", "bool_w", "bool_h", "huge_h",
         "u8_fraction", "int64_max_plus_1", "int64_min_minus_1", "huge_int"],
)
def test_values_no_payload_can_hold_are_rejected(type_text, obj):
    with pytest.raises(RegistrationError):
        from_json_obj(parse_type(type_text), obj)


@pytest.mark.parametrize("n", [2**63 - 1, -(2**63)])
def test_integer_from_json_accepts_int64_bounds(n):
    v = from_json_obj(parse_type("Integer"), n)
    assert v.payload == n and type(v.payload) is int


def test_write_back_preserves_container_object():
    container = wrap(np.zeros(3))
    original = container.payload
    write_back(container, np.ones(3))
    assert container.payload is original
    assert container.payload[0] == 1.0


def test_write_back_rejects_shape_mismatch_and_leaves_container():
    container = wrap(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        write_back(container, np.ones(4))
    assert container.payload[0] == 0.0


def test_write_back_scalar_replaces_payload():
    container = wrap(5)
    write_back(container, 9)
    assert container.payload == 9
    with pytest.raises(RegistrationError):
        write_back(container, "not an int")


@pytest.mark.parametrize(
    "obj, base, payload",
    [
        (np.int64(6), "Integer", 6),
        (np.uint8(255), "Integer", 255),
        (np.int8(-3), "Integer", -3),
        (np.uint64(2**64 - 1), "Integer", 2**64 - 1),
        (np.bool_(True), "Boolean", True),
        (np.bool_(False), "Boolean", False),
        (np.float32(0.5), "Real", 0.5),
        (np.float16(-2.0), "Real", -2.0),
        (np.float64(1.25), "Real", 1.25),
        # a 0-d array wraps as the scalar it holds
        (np.array(1.5), "Real", 1.5),
        (np.array(0.5, dtype=np.float32), "Real", 0.5),
        (np.array(-3, dtype=np.int8), "Integer", -3),
        (np.array(2**64 - 1, dtype=np.uint64), "Integer", 2**64 - 1),
        (np.array(True), "Boolean", True),
    ],
    ids=repr,
)
def test_wrap_numpy_scalars_as_plain_python_payloads(obj, base, payload):
    v = wrap(obj)
    assert v.type.base == base
    assert type(v.payload) is type(payload) and v.payload == payload


@pytest.mark.parametrize(
    "obj", [np.array("x"), np.array(1j), np.array(None, dtype=object)], ids=repr
)
def test_wrap_rejects_a_zero_dim_array_of_another_dtype(obj):
    with pytest.raises(RegistrationError) as info:
        wrap(obj)
    assert str(info.value) == f"cannot infer a type for ndarray ndim=0 dtype={obj.dtype}"


def test_a_numpy_integer_sum_is_an_op_input():
    env = default_environment(include_legacy=False)
    total = np.arange(4).sum()
    assert env.op("math.add").input(total, 1).apply().payload == 7
    assert env.op("math.add").input_types("Integer", "Integer").function()(total, 1).payload == 7


# ---------------------------------------------------------------------------
# wrap against the isinstance chain it replaced
# ---------------------------------------------------------------------------


def _reference_wrap(obj):
    """wrap as it was before its exact-type table: the isinstance chain, and
    since then a 0-d bool, integer or floating array as the item it holds."""
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return Value(BOOLEAN, obj)
    if isinstance(obj, int):
        return Value(INTEGER, obj)
    if isinstance(obj, float):
        return Value(REAL, float(obj))
    if isinstance(obj, str):
        return Value(TEXT, obj)
    if isinstance(obj, bytearray):
        return Value(BYTE_ARRAY, obj)
    if isinstance(obj, bytes):
        return Value(BYTE_ARRAY, bytearray(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 and obj.dtype.kind in "biuf":
            return _reference_wrap(obj.item())
        if obj.ndim == 1 and obj.dtype == np.float64:
            return Value(REAL_ARRAY, obj)
        if obj.ndim == 2 and obj.dtype == np.uint8:
            return Value(IMAGE_U8, obj)
        if obj.ndim == 2 and obj.dtype == np.float64:
            return Value(IMAGE_F64, obj)
        raise RegistrationError(
            f"cannot infer a type for ndarray ndim={obj.ndim} dtype={obj.dtype}"
        )
    if isinstance(obj, list) and _numbers(obj):
        return Value(REAL_ARRAY, np.array(obj, dtype=np.float64))
    raise RegistrationError(f"cannot infer a semantic type for {type(obj).__name__}")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class _Int(int):
    pass


class _Float(float):
    pass


class _Text(str):
    pass


class _Array(np.ndarray):
    pass


_ints = st.integers() | st.sampled_from([10**400, -(10**400), 2**63, -(2**63) - 1])
_floats = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.uint8, np.float32, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
# numpy integer, bool and float32 scalars are left out: the isinstance chain
# rejected them, wrap now gives them plain payloads (tested above)
_objects = st.one_of(
    _ints,
    st.booleans(),
    _floats,
    _floats.map(np.float64),
    st.sampled_from(list(_Level)),
    _ints.map(_Int),
    _floats.map(_Float),
    st.text(max_size=4),
    st.text(max_size=4).map(_Text),
    st.binary(max_size=4),
    st.binary(max_size=4).map(bytearray),
    _arrays,
    _arrays.map(lambda a: a.view(_Array)),
    st.lists(st.one_of(_ints, _floats, st.booleans(), st.text(max_size=1)), max_size=4),
    st.one_of(_ints, _floats, st.booleans(), st.text(max_size=2)).map(wrap),
    st.sampled_from([None, (1, 2), {1: 2}, 1j, b"".join, np.complex128(1)]),
)


def _same_payload(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", (type(exc), str(exc))


_EDGE_OBJECTS = [
    np.zeros((2, 2), dtype=np.int64),
    np.zeros((2, 2), dtype=np.float32),
    np.zeros((1, 2, 2)),
    np.array(1.5),
    np.zeros(3, dtype=np.uint8),
    np.zeros((2, 2), dtype=np.uint8).view(_Array),
    wrap(1),
    _Level.HIGH,
    np.float64("nan"),
    -0.0,
    [True, 1.0],
]


@settings(max_examples=300)
@given(_objects)
def test_wrap_agrees_with_the_isinstance_chain(obj):
    _assert_wraps_as_the_reference(obj)


@pytest.mark.parametrize("obj", _EDGE_OBJECTS, ids=repr)
def test_wrap_agrees_with_the_isinstance_chain_on_each_branch(obj):
    _assert_wraps_as_the_reference(obj)


def _assert_wraps_as_the_reference(obj):
    got, want = _outcome(wrap, obj), _outcome(_reference_wrap, obj)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    new, old = got[1], want[1]
    assert new.type == old.type
    assert _same_payload(new.payload, old.payload)
    if isinstance(obj, Value):
        assert new is obj
    elif isinstance(obj, (bytearray, enum.Enum)) or getattr(obj, "ndim", 0):
        assert new.payload is obj


_BASES = ("Integer", "Real", "Boolean", "Text", "ByteArray", "RealArray", "ImageU8",
          "ImageF64")
_SCALAR_ZERO = {"Integer": 0, "Real": 0.0, "Boolean": False, "Text": ""}


@given(st.sampled_from(_BASES + ("Opaque",)), _objects)
def test_value_and_write_back_accept_exactly_what_check_payload_accepts(base, payload):
    type_ = SemanticType(base)
    want = _outcome(_check_payload, base, payload)
    got = _outcome(Value, type_, payload)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
    else:
        assert got[1].payload is payload and got[1].type is type_
    if base in _SCALAR_ZERO:
        container = Value(type_, _SCALAR_ZERO[base])
        got = _outcome(write_back, container, payload)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] == want[1]
        else:
            assert container.payload is payload
