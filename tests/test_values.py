"""Runtime value model: wrapping, payload checks, JSON round-trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opsforge.errors import DimensionMismatchError, RegistrationError
from opsforge.types import parse_type
from opsforge.values import (
    Value,
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
    ],
    ids=["real", "real_array_item", "image_pixel", "bool_w", "bool_h", "huge_h"],
)
def test_values_no_payload_can_hold_are_rejected(type_text, obj):
    with pytest.raises(RegistrationError):
        from_json_obj(parse_type(type_text), obj)


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
