"""Runtime values: a semantic type tag paired with a payload.

Payload kinds are fixed per base type name:

    Integer    int (64-bit signed semantics, wrap on overflow is documented
               by the arithmetic ops, not enforced here)
    Real       float
    Boolean    bool
    Text       str
    ByteArray  bytearray
    RealArray  1-D numpy float64 array
    ImageU8    2-D numpy uint8 array, shape (height, width), row-major
    ImageF64   2-D numpy float64 array, shape (height, width), row-major

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

_SCALAR_BASES = {"Integer", "Real", "Boolean", "Text"}

# The payload types that fit a base by their exact type alone, and the type
# each wraps as: one table for both directions. wrap builds a Value of such
# a payload with no check, and Value and write_back skip _check_payload for
# a payload of the exact type its base wants. Subclasses (IntEnum, np.float64)
# and numpy scalars take the isinstance paths.
_EXACT = {bool: BOOLEAN, int: INTEGER, float: REAL, str: TEXT, bytearray: BYTE_ARRAY}
_EXACT_PAYLOAD = {t.base: cls for cls, t in _EXACT.items()}

_uid_counter = itertools.count(1)


def _check_payload(base: str, payload: Any) -> None:
    if base == "Integer":
        ok = isinstance(payload, int) and not isinstance(payload, bool)
    elif base == "Real":
        ok = isinstance(payload, float)
    elif base == "Boolean":
        ok = isinstance(payload, bool)
    elif base == "Text":
        ok = isinstance(payload, str)
    elif base == "ByteArray":
        ok = isinstance(payload, bytearray)
    elif base == "RealArray":
        ok = (
            isinstance(payload, np.ndarray)
            and payload.ndim == 1
            and payload.dtype == np.float64
        )
    elif base == "ImageU8":
        ok = (
            isinstance(payload, np.ndarray)
            and payload.ndim == 2
            and payload.dtype == np.uint8
        )
    elif base == "ImageF64":
        ok = (
            isinstance(payload, np.ndarray)
            and payload.ndim == 2
            and payload.dtype == np.float64
        )
    else:
        raise RegistrationError(f"type {base!r} carries no payload")
    if not ok:
        raise RegistrationError(
            f"payload {type(payload).__name__} does not fit type {base}"
        )


class Value:
    """A typed runtime value with a process-unique identity."""

    __slots__ = ("uid", "type", "payload")

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
        base = self.type.base
        if base in _SCALAR_BASES:
            return self.payload
        if base == "ByteArray":
            return list(self.payload)
        if base == "RealArray":
            return [float(x) for x in self.payload]
        h, w = self.payload.shape
        data = [x.item() for x in self.payload.reshape(-1)]
        return {"w": w, "h": h, "data": data}


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
    where the payload cannot hold it: an int too large for a float, or an
    image too large for an array.
    """
    try:
        return _from_json(type_, obj)
    except ValueError as e:
        raise RegistrationError(f"{type_.base} cannot hold the input: {e}") from e


def _from_json(type_: SemanticType, obj: Any) -> Value:
    base = type_.base
    if base == "Integer":
        if not _int(obj):
            raise RegistrationError(f"Integer wants an int, got {obj!r}")
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
    if base == "RealArray":
        if not isinstance(obj, list) or not _numbers(obj):
            raise RegistrationError("RealArray wants a list of numbers")
        return Value(type_, np.array(obj, dtype=np.float64))
    if base in ("ImageU8", "ImageF64"):
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
        dtype = np.uint8 if base == "ImageU8" else np.float64
        if base == "ImageU8" and not _bytes(data):
            raise RegistrationError("ImageU8 wants pixel ints in 0..255")
        if base == "ImageF64" and not _numbers(data):
            raise RegistrationError("ImageF64 wants pixel numbers")
        arr = np.array(data, dtype=dtype).reshape(h, w)
        return Value(type_, arr)
    raise RegistrationError(f"type {base!r} carries no payload")


def wrap(obj: Any) -> Value:
    """Wrap a plain Python/numpy object in a Value, inferring the type tag.

    Lists of numbers become RealArray; use explicit constructors for the
    other array kinds when inference would be ambiguous. numpy bool,
    integer and floating scalars become Boolean, Integer and Real with a
    plain Python payload.
    """
    type_ = _EXACT.get(type(obj))
    if type_ is not None:
        # the lookup just read the payload's type: build without a check
        value = _new_value(Value)
        value.uid = next(_uid_counter)
        value.type = type_
        value.payload = obj
        return value
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            return Value(REAL_ARRAY, obj)
        if obj.ndim == 2 and obj.dtype == np.uint8:
            return Value(IMAGE_U8, obj)
        if obj.ndim == 2 and obj.dtype == np.float64:
            return Value(IMAGE_F64, obj)
        raise RegistrationError(
            f"cannot infer a type for ndarray ndim={obj.ndim} dtype={obj.dtype}"
        )
    # subclasses of the exact types, numpy scalars, bytes and lists
    if isinstance(obj, np.bool_):
        return Value(BOOLEAN, bool(obj))
    if isinstance(obj, int):
        return Value(INTEGER, obj)
    if isinstance(obj, np.integer):
        return Value(INTEGER, int(obj))
    if isinstance(obj, (float, np.floating)):
        return Value(REAL, float(obj))
    if isinstance(obj, str):
        return Value(TEXT, obj)
    if isinstance(obj, bytearray):
        # no copy: mutable payloads keep their identity so callers observe
        # in-place edits through their own reference
        return Value(BYTE_ARRAY, obj)
    if isinstance(obj, bytes):
        return Value(BYTE_ARRAY, bytearray(obj))
    if isinstance(obj, list) and _numbers(obj):
        return Value(REAL_ARRAY, np.array(obj, dtype=np.float64))
    raise RegistrationError(f"cannot infer a semantic type for {type(obj).__name__}")


def image_u8(width: int, height: int, data) -> Value:
    arr = np.array(list(data), dtype=np.uint8).reshape(height, width)
    return Value(IMAGE_U8, arr)


def image_f64(width: int, height: int, data) -> Value:
    arr = np.array(list(data), dtype=np.float64).reshape(height, width)
    return Value(IMAGE_F64, arr)


def write_back(container: Value, content: Any) -> None:
    """Copy freshly computed content into a container Value.

    Array and image containers keep their payload object and receive the
    content in place; shape disagreement raises DimensionMismatchError and
    leaves the container untouched. Scalar containers have their payload
    replaced. This is the single write path for computer-style execution,
    which is what makes op-body failures unable to corrupt containers.
    """
    base = container.type.base
    if base in _SCALAR_BASES:
        if type(content) is not _EXACT_PAYLOAD[base]:
            _check_payload(base, content)
        container.payload = content
        return
    copy_into(container.payload, content)


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
