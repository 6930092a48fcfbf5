"""Bodies for the builtin ops.

Every function here is payload-level: scalars come in as int/float/bool/str,
arrays as numpy arrays, byte buffers as bytearray. Functions return fresh
payloads, computers return the content to be written into the caller's
container, inplaces mutate their first argument and return it. Dependency
callables, when declared, arrive as leading arguments.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PreconditionError
from ..runtime import current_pool, report_steps
from .adapt import elementwise

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _wrap64(x: int) -> int:
    return ((x - _INT64_MIN) % 2**64) + _INT64_MIN


# -- math -------------------------------------------------------------------


def add_ints(a: int, b: int) -> int:
    return _wrap64(a + b)


def sub_ints(a: int, b: int) -> int:
    return _wrap64(a - b)


def mul_ints(a: int, b: int) -> int:
    return _wrap64(a * b)


@elementwise
def add_reals(a: float, b: float) -> float:
    return a + b


@elementwise
def sub_reals(a: float, b: float) -> float:
    return a - b


@elementwise
def mul_reals(a: float, b: float) -> float:
    return a * b


def div_reals(a: float, b: float) -> float:
    if b == 0.0:
        raise PreconditionError("division by zero")
    return float(a / b)


# -- engine.create ----------------------------------------------------------
# Take a model payload, return a fresh zeroed payload of the same shape.


def create_bytearray(model: bytearray) -> bytearray:
    return bytearray(len(model))


def create_array(model: np.ndarray) -> np.ndarray:
    return np.zeros_like(model)


# -- engine.copy ------------------------------------------------------------
# Computers whose content is the source itself; the framework write-back
# (or the adapter's fill) performs the physical copy.


def copy_content(src):
    return src


# -- engine.convert ---------------------------------------------------------


def int_to_real(x: int) -> float:
    return float(x)


def real_to_int(x: float) -> int:
    if math.isnan(x):
        raise PreconditionError("cannot convert NaN to an integer")
    v = math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)
    return min(max(int(v), _INT64_MIN), _INT64_MAX)


def u8_to_f64(image: np.ndarray) -> np.ndarray:
    return image.astype(np.float64)


def _round_clamp_u8(values: np.ndarray) -> np.ndarray:
    # round-half-away-from-zero on [0, 255]: floor(x + 0.5) after clipping
    return np.floor(np.clip(values, 0.0, 255.0) + 0.5).astype(np.uint8)


def f64_to_u8(image: np.ndarray) -> np.ndarray:
    return _round_clamp_u8(image)


def bytes_to_reals(data: bytearray) -> np.ndarray:
    return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)


def reals_to_bytes(values: np.ndarray) -> bytearray:
    return bytearray(_round_clamp_u8(values).tobytes())


# -- engine.describe --------------------------------------------------------


def describe_integer(_value) -> str:
    return "integer"


def describe_real(_value) -> str:
    return "number"


def describe_boolean(_value) -> str:
    return "boolean"


def describe_text(_value) -> str:
    return "text"


def describe_array(_value) -> str:
    return "array"


def describe_image(_value) -> str:
    return "image"


# -- filters ----------------------------------------------------------------


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian of radius ceil(3*sigma)."""
    if not sigma > 0:
        raise PreconditionError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


# Row-pass pixels per band of the compute pool. Each band past the first
# starts a thread, which a smaller band does not earn back (timings in
# CHANGES.md).
BAND_PIXELS = 1 << 16


def _weighted_sum(kernel: np.ndarray, shifted: list, out: np.ndarray) -> np.ndarray:
    """``out = sum(kernel[d] * shifted[d])``, accumulated in kernel order."""
    np.multiply(shifted[0], kernel[0], out=out)
    term = np.empty_like(out)
    for d in range(1, len(kernel)):
        np.multiply(shifted[d], kernel[d], out=term)
        out += term
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with clamp-to-edge borders.

    Each pass is 2r+1 shifted whole-array multiply-adds over an edge-padded
    copy, summed in kernel order. The row pass is split into bands of rows
    through the compute pool, one band per ``BAND_PIXELS`` pixels up to the
    pool's budget; every row depends only on its own pixels, so any budget
    gives bitwise identical output. The column pass runs on the calling
    thread, which then reports per-row progress ending at exactly 1.0.
    """
    if image.size == 0:
        raise PreconditionError("image must be non-empty")
    kernel = gaussian_kernel(float(sigma))
    k = len(kernel)
    radius = k // 2
    h, w = image.shape
    padded = np.empty((h, w + 2 * radius), dtype=np.float64)
    padded[:, radius : radius + w] = image
    padded[:, :radius] = image[:, :1]
    padded[:, radius + w :] = image[:, -1:]
    # the row pass writes into the middle of the column pass's padded input
    tall = np.empty((h + 2 * radius, w), dtype=np.float64)
    rows = tall[radius : radius + h]

    pool = current_pool()
    bands = max(1, min(pool.budget, h, h * w // BAND_PIXELS))
    edges = [h * i // bands for i in range(bands + 1)]

    def row_band(i: int) -> None:
        lo, hi = edges[i], edges[i + 1]
        shifted = [padded[lo:hi, d : d + w] for d in range(k)]
        _weighted_sum(kernel, shifted, rows[lo:hi])

    pool.map_indexed(row_band, bands)
    tall[:radius] = rows[0]
    tall[radius + h :] = rows[-1]
    out = _weighted_sum(kernel, [tall[d : d + h] for d in range(k)], np.empty((h, w)))
    report_steps(h, "columns")
    return out


def difference_of_gaussians(gauss1, gauss2, sub, image: np.ndarray, sigma1: float, sigma2: float) -> np.ndarray:
    """Entirely built from dependencies: two blurs and a subtraction."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise PreconditionError(
            f"sigmas must be positive, got {sigma1}, {sigma2}"
        )
    wide = gauss2(image, sigma2)
    narrow = gauss1(image, sigma1)
    return sub(narrow, wide)


def fft_stub(image, fft_type, border_size=0, fast=True):
    raise NotImplementedError("not implemented")


# -- transforms -------------------------------------------------------------


def rescale2d(image: np.ndarray, width: int, height: int | None = None) -> np.ndarray:
    """Nearest-neighbour resize; omitted height keeps the aspect ratio."""
    width = int(width)
    if width < 1:
        raise PreconditionError(f"width must be >= 1, got {width}")
    src_h, src_w = image.shape
    if height is None:
        height = max(1, int(math.floor(width * src_h / src_w + 0.5)))
    else:
        height = int(height)
        if height < 1:
            raise PreconditionError(f"height must be >= 1, got {height}")
    # centre-of-pixel mapping: src = floor((dst + 0.5) * src/dst)
    ys = np.minimum(
        (np.floor((np.arange(height) + 0.5) * src_h / height)).astype(np.int64),
        src_h - 1,
    )
    xs = np.minimum(
        (np.floor((np.arange(width) + 0.5) * src_w / width)).astype(np.int64),
        src_w - 1,
    )
    return image[np.ix_(ys, xs)].astype(np.float64)


# -- benchmarking -----------------------------------------------------------


def increment_u8(data: bytearray) -> bytearray:
    # touches one byte so dispatch cost dominates any timing of this op
    if not data:
        raise PreconditionError("array must be non-empty")
    data[0] = (data[0] + 1) & 0xFF
    return data
