"""Runtime values: a semantic type tag paired with a payload.

Each base type's payload is fixed by one table, ``_EXACT``: a scalar or
byte payload by its Python class, a numpy payload by its (ndim, dtype);
images are (height, width), row-major. Integer arithmetic's 64-bit wrap is
documented by the arithmetic ops, not enforced here. An Integer read from
JSON must fit int64, so every op it reaches sees the same number.

The type tag and payload identity of a Value never change after
construction; payload CONTENTS are the mutable compute surface that
computer and inplace ops write into. Scalar payloads are replaced
wholesale via write_back because Python scalars are immutable.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from .errors import DimensionMismatchError, RegistrationError
from .types import SemanticType

INTEGER = SemanticType("Integer")
REAL = SemanticType("Real")
BOOLEAN = SemanticType("Boolean")
TEXT = SemanticType("Text")
BYTE_ARRAY = SemanticType("ByteArray")
REAL_ARRAY = SemanticType("RealArray")
IMAGE_U8 = SemanticType("ImageU8")
IMAGE_F64 = SemanticType("ImageF64")

# Each base type's payload rule, the one copy, read both ways: a scalar or
# byte payload by its exact class, a numpy payload by its (ndim, dtype). wrap
# builds a Value of a listed payload with no check, and Value and write_back
# skip _check_payload for a payload of the exact class its base wants.
# Subclasses (IntEnum, np.float64) and numpy scalars take the isinstance
# paths.
_EXACT = {
    bool: BOOLEAN,
    int: INTEGER,
    float: REAL,
    str: TEXT,
    bytearray: BYTE_ARRAY,
    (1, np.dtype(np.float64)): REAL_ARRAY,
    (2, np.dtype(np.uint8)): IMAGE_U8,
    (2, np.dtype(np.float64)): IMAGE_F64,
}
_EXACT_PAYLOAD = {t.base: rule for rule, t in _EXACT.items()}
# The payloads that change in place, ByteArray's and every numpy entry's;
# the scalar classes are immutable, so a scalar payload is replaced.
_IN_PLACE = (bytearray, np.ndarray)

_uid_counter = itertools.count(1)


def _check_payload(base: str, payload: Any) -> None:
    rule = _EXACT_PAYLOAD.get(base)
    if rule is None:
        raise RegistrationError(f"type {base!r} carries no payload")
    if type(rule) is tuple:
        ok = isinstance(payload, np.ndarray) and (payload.ndim, payload.dtype) == rule
    else:
        # a payload of a listed class fits its own base only: a bool is an
        # int, but not an Integer
        cls = type(payload)
        ok = isinstance(payload, rule) and (cls is rule or cls not in _EXACT)
    if not ok:
        raise RegistrationError(
            f"payload {type(payload).__name__} does not fit type {base}"
        )


class Value:
    """A typed runtime value with a process-unique identity.

    ``_record`` is unset until a history records the value: a runner or
    ``OpHistory.record`` writes it, and ``OpHistory.lookup`` reads it.
    """

    __slots__ = ("uid", "type", "payload", "_record")

    def __init__(self, type_: SemanticType, payload: Any):
        if type(payload) is not _EXACT_PAYLOAD.get(type_.base):
            _check_payload(type_.base, payload)
        self.uid = next(_uid_counter)
        self.type = type_
        self.payload = payload

    def __repr__(self) -> str:
        return f"Value(#{self.uid}, {self.type}, {self.payload!r})"

    def to_json_obj(self) -> Any:
        """JSON-friendly rendering of the payload."""
        payload = self.payload
        if not isinstance(payload, _IN_PLACE):
            return payload
        if isinstance(payload, bytearray):
            return list(payload)
        if payload.ndim == 1:
            return payload.tolist()
        h, w = payload.shape
        return {"w": w, "h": h, "data": payload.reshape(-1).tolist()}


_new_value = Value.__new__


def _int(x) -> bool:
    """Is x an int, booleans excluded?"""
    return isinstance(x, int) and not isinstance(x, bool)


# The least int float() overflows on; every int of smaller magnitude rounds
# to a finite float.
_FLOAT_LIMIT = 2**1024 - 2**970


def is_number(x) -> bool:
    """Is x a float, or an int (booleans excluded) that a float can hold?"""
    return isinstance(x, float) or (_int(x) and -_FLOAT_LIMIT < x < _FLOAT_LIMIT)


def _numbers(xs) -> bool:
    """Are all items numbers a float can hold (see ``is_number``)?"""
    return all(map(is_number, xs))


def _bytes(xs) -> bool:
    """Are all items ints in 0..255?"""
    return all(_int(x) and 0 <= x <= 255 for x in xs)


def from_json_obj(type_: SemanticType, obj: Any) -> Value:
    """Build a Value of the given type from its JSON rendering.

    Input that makes no payload of the type raises RegistrationError, also
    where the payload cannot hold it: an Integer outside int64, an int too
    large for a float, or an image too large for an array.
    """
    try:
        return _from_json(type_, obj)
    except ValueError as e:
        raise RegistrationError(f"{type_.base} cannot hold the input: {e}") from e


# The JSON elements an array dtype holds, and how an error names them.
_ELEMENTS = {
    np.dtype(np.uint8): (_bytes, "ints in 0..255"),
    np.dtype(np.float64): (_numbers, "numbers"),
}


def _from_json(type_: SemanticType, obj: Any) -> Value:
    base = type_.base
    if base == "Integer":
        if not _int(obj):
            raise RegistrationError(f"Integer wants an int, got {obj!r}")
        if not -(2**63) <= obj < 2**63:
            raise RegistrationError(
                f"Integer cannot hold the input: wants an int64, got {obj!r}"
            )
        return Value(type_, obj)
    if base == "Real":
        if not is_number(obj):
            raise RegistrationError(
                f"Real cannot hold the input: wants a number a float can hold, got {obj!r}"
            )
        return Value(type_, float(obj))
    if base == "Boolean":
        if not isinstance(obj, bool):
            raise RegistrationError(f"Boolean wants true/false, got {obj!r}")
        return Value(type_, obj)
    if base == "Text":
        if not isinstance(obj, str):
            raise RegistrationError(f"Text wants a string, got {obj!r}")
        return Value(type_, obj)
    if base == "ByteArray":
        if not isinstance(obj, list) or not _bytes(obj):
            raise RegistrationError("ByteArray wants a list of ints in 0..255")
        return Value(type_, bytearray(obj))
    rule = _EXACT_PAYLOAD.get(base)
    if type(rule) is not tuple:
        raise RegistrationError(f"type {base!r} carries no payload")
    ndim, dtype = rule
    if ndim == 1:
        fits, elements = _ELEMENTS[dtype]
        if not isinstance(obj, list) or not fits(obj):
            raise RegistrationError(f"{base} wants a list of {elements}")
        return Value(type_, np.array(obj, dtype=dtype))
    if (
        not isinstance(obj, dict)
        or not _int(obj.get("w"))
        or not _int(obj.get("h"))
        or not isinstance(obj.get("data"), list)
    ):
        raise RegistrationError('images want {"w": int, "h": int, "data": [...]}')
    w, h, data = obj["w"], obj["h"], obj["data"]
    if w < 0 or h < 0 or len(data) != w * h:
        raise RegistrationError("image data length must equal w*h")
    return _image(type_, w, h, data)


def wrap(obj: Any) -> Value:
    """Wrap a plain Python/numpy object in a Value, inferring the type tag.

    Lists of numbers become RealArray; use explicit constructors for the
    other array kinds when inference would be ambiguous. numpy bool,
    integer and floating scalars become Boolean, Integer and Real with a
    plain Python payload, and so does a 0-d array of one of those dtypes.
    """
    type_ = _EXACT.get(type(obj))
    if type_ is None:
        if isinstance(obj, Value):
            return obj
        type_, obj = _infer(obj)
    # the type was read off the payload: build without a check
    value = _new_value(Value)
    value.uid = next(_uid_counter)
    value.type = type_
    value.payload = obj
    return value


def payload_of(obj: Any) -> Any:
    """The payload ``wrap(obj)`` would carry, read without building a Value."""
    if type(obj) in _EXACT:
        return obj
    if isinstance(obj, Value):
        return obj.payload
    return _infer(obj)[1]


def _infer(obj: Any) -> tuple[SemanticType, Any]:
    """wrap's type and payload for an object whose exact class is not listed:
    arrays, subclasses of the listed classes, numpy scalars, bytes and lists.
    Arrays and bytearrays are not copied, so callers observe in-place edits
    through their own reference.
    """
    if isinstance(obj, np.ndarray):
        type_ = _EXACT.get((obj.ndim, obj.dtype))
        if type_ is not None:
            return type_, obj
        if obj.ndim == 0 and obj.dtype.kind in "biuf":
            return _infer(obj[()])  # the numpy scalar it holds
        raise RegistrationError(
            f"cannot infer a type for ndarray ndim={obj.ndim} dtype={obj.dtype}"
        )
    if isinstance(obj, np.bool_):
        return BOOLEAN, bool(obj)
    if isinstance(obj, int):
        return INTEGER, obj
    if isinstance(obj, np.integer):
        return INTEGER, int(obj)
    if isinstance(obj, (float, np.floating)):
        return REAL, float(obj)
    if isinstance(obj, str):
        return TEXT, obj
    if isinstance(obj, bytearray):
        return BYTE_ARRAY, obj
    if isinstance(obj, bytes):
        return BYTE_ARRAY, bytearray(obj)
    if isinstance(obj, list) and _numbers(obj):
        return REAL_ARRAY, _array(REAL_ARRAY, obj)
    raise RegistrationError(f"cannot infer a semantic type for {type(obj).__name__}")


def _array(type_: SemanticType, data) -> np.ndarray:
    """A flat array of the dtype array type ``type_`` holds."""
    return np.array(data, dtype=_EXACT_PAYLOAD[type_.base][1])


def _image(type_: SemanticType, width: int, height: int, data) -> Value:
    """An image of ``type_`` from row-major pixels, which must be the numbers
    from_json_obj takes for it; a numpy scalar counts as the Python number
    it equals. A data length other than width * height raises ValueError.
    """
    pixels = [x.item() if isinstance(x, np.generic) else x for x in data]
    fits, elements = _ELEMENTS[_EXACT_PAYLOAD[type_.base][1]]
    if not fits(pixels):
        raise RegistrationError(f"{type_.base} wants pixel {elements}")
    return Value(type_, _array(type_, pixels).reshape(height, width))


def image_u8(width: int, height: int, data) -> Value:
    return _image(IMAGE_U8, width, height, data)


def image_f64(width: int, height: int, data) -> Value:
    return _image(IMAGE_F64, width, height, data)


def write_back(container: Value, content: Any) -> None:
    """Copy freshly computed content into a container Value.

    Array and image containers keep their payload object and receive the
    content in place; shape disagreement raises DimensionMismatchError and
    leaves the container untouched. Scalar containers have their payload
    replaced. This is the single write path for computer-style execution,
    which is what makes op-body failures unable to corrupt containers.
    """
    if isinstance(container.payload, _IN_PLACE):
        copy_into(container.payload, content)
        return
    base = container.type.base
    if type(content) is not _EXACT_PAYLOAD[base]:
        _check_payload(base, content)
    container.payload = content


def copy_into(dst: Any, content: Any) -> None:
    """Copy content into a bytearray or numpy payload, keeping the object.

    Content of the wrong kind, length, shape or dtype raises
    DimensionMismatchError and leaves the payload untouched. write_back,
    conversion copy-back and adapters that fill a fresh payload all copy
    through here.
    """
    if isinstance(dst, bytearray):
        if not isinstance(content, (bytes, bytearray)):
            raise DimensionMismatchError(
                f"expected byte content for ByteArray, got {type(content).__name__}"
            )
        if len(content) != len(dst):
            raise DimensionMismatchError(
                f"content length {len(content)} does not fit container "
                f"length {len(dst)}"
            )
        dst[:] = content
        return
    if not isinstance(content, np.ndarray):
        raise DimensionMismatchError(
            f"expected array content, got {type(content).__name__}"
        )
    if content.shape != dst.shape:
        raise DimensionMismatchError(
            f"content shape {content.shape} does not fit container "
            f"shape {dst.shape}"
        )
    if content.dtype != dst.dtype:
        raise DimensionMismatchError(
            f"content dtype {content.dtype} does not fit container "
            f"dtype {dst.dtype}"
        )
    np.copyto(dst, content)
