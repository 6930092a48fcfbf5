"""Bodies for the builtin ops.

Every function here is payload-level: scalars come in as int/float/bool/str,
arrays as numpy arrays, byte buffers as bytearray. Functions return fresh
payloads, computers return the content to be written into the caller's
container, inplaces mutate their first argument and return it. Dependency
callables, when declared, arrive as leading arguments.
"""

from __future__ import annotations

import functools
import math
import threading

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
    # round-half-away-from-zero on [0, 255]: floor(x + 0.5) after clipping,
    # in place on the clipped copy
    out = np.clip(values, 0.0, 255.0)
    out += 0.5
    return np.floor(out, out=out).astype(np.uint8)


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
    if not 0 < sigma < math.inf:
        raise PreconditionError(f"sigma must be positive and finite, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


# Row-pass pixels per band of the compute pool. Each band past the first
# starts a thread, which a smaller band does not earn back (timings in
# CHANGES.md).
BAND_PIXELS = 1 << 16

# Product terms of one batched blur pass: a pass of n sums over k taps with
# k * n up to this runs as one broadcast multiply and one reduction instead
# of k multiply-adds. Larger blocks, such as 128² passes, lose to the
# per-tap loop (timings in CHANGES.md). A band split needs
# h * w >= 2 * BAND_PIXELS, so a batched pass never runs on a pool thread.
TAPS_BLOCK = 1 << 16

# Float64s of gauss scratch a thread keeps between calls (4 MiB). A larger
# buffer is allocated for the one call that asks for it and not kept.
SCRATCH_CAP = 1 << 19

_SCRATCH = threading.local()


def _scratch(n: int) -> np.ndarray:
    """The first ``n`` float64s of the calling thread's scratch buffer.

    The buffer grows to ``n`` when that is within SCRATCH_CAP and is kept
    for the thread's next call; a larger ``n`` gets a fresh buffer that is
    not kept. A later call on the same thread may reuse the same memory.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is not None and len(buf) >= n:
        return buf[:n]
    buf = np.empty(n)
    if n <= SCRATCH_CAP:
        _SCRATCH.buf = buf
    return buf


@functools.lru_cache(maxsize=64)
def _kernel(sigma: float) -> np.ndarray:
    kernel = gaussian_kernel(sigma)
    kernel.flags.writeable = False
    return kernel


def _terms(k: int, n: int) -> int:
    """Float64s of terms ``_weighted_sum`` takes for ``n`` sums over ``k`` taps.

    ``k * n`` when the pass is batched, else ``n``. A single sum (``n = 1``)
    is never batched: numpy would reduce its one contiguous row pairwise,
    out of kernel order.
    """
    return k * n if 2 <= n and k * n <= TAPS_BLOCK else n


def _weighted_sum(kernel: np.ndarray, src: np.ndarray, step: int, n: int, out: np.ndarray) -> None:
    """``out[x] = sum(kernel[d] * src[x + d * step])`` for x < n, in kernel order.

    ``src`` and ``out`` are flat and ``src`` is contiguous; each shift is one
    contiguous run of ``src``. The products go through the head of this
    thread's scratch (``_terms(len(kernel), n)`` float64s), so callers carve
    their own scratch views after it. A batched pass multiplies a ``(k, n)``
    strided view of ``src`` by the kernel column into the terms block and
    adds its rows with ``np.add.reduce`` along axis 0, which numpy does row
    by row, in kernel order. Otherwise each tap is one multiply and one add.
    """
    out = out[:n]
    k = len(kernel)
    terms = _scratch(_terms(k, n))
    if len(terms) > n:  # batched: k * n terms
        taps = np.ndarray((k, n), buffer=src, strides=(step * 8, 8))
        terms = terms.reshape(k, n)
        np.multiply(taps, kernel[:, None], out=terms)
        np.add.reduce(terms, axis=0, out=out)
        return
    np.multiply(src[:n], kernel[0], out=out)
    for d in range(1, k):
        np.multiply(src[d * step : d * step + n], kernel[d], out=terms)
        out += terms


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with clamp-to-edge borders.

    Each pass is 2r+1 shifted multiply-adds over a flat edge-padded copy,
    summed in kernel order (see ``_weighted_sum``); a pass whose
    ``(2r+1) * n`` terms fit ``TAPS_BLOCK`` runs them as one block, so a
    small image costs a few numpy calls per pass instead of 4r+1. The row
    pass runs over the padded rows end to end, so the 2r sums per row that
    straddle two rows are computed and dropped. It is split into bands of
    rows through the compute pool, one band per ``BAND_PIXELS`` pixels up
    to the pool's budget; every row depends only on its own pixels, so any
    budget gives bitwise identical output. The column pass runs on the
    calling thread, which then reports per-row progress ending at exactly
    1.0. Every buffer but the result is this thread's scratch (see
    ``_scratch``), with the larger pass's terms at its head, and no other
    code runs while it is in use.
    """
    if image.size == 0:
        raise PreconditionError("image must be non-empty")
    kernel = _kernel(float(sigma))
    k = len(kernel)
    radius = k // 2
    h, w = image.shape
    wide = w + 2 * radius
    # [terms | padded | row sums | tall]: _weighted_sum's terms take the head,
    # sized for the larger of the two passes; a band's terms are no larger
    head = max(h * wide, _terms(k, h * wide - 2 * radius), _terms(k, h * w))
    scratch = _scratch(head + 2 * h * wide + (h + 2 * radius) * w)
    padded = scratch[head : head + h * wide].reshape(h, wide)
    sums = scratch[head + h * wide : head + 2 * h * wide]
    tall = scratch[head + 2 * h * wide :].reshape(h + 2 * radius, w)
    padded[:, radius : radius + w] = image
    padded[:, :radius] = image[:, :1]
    padded[:, radius + w :] = image[:, -1:]
    flat = padded.reshape(-1)

    pool = current_pool()
    bands = max(1, min(pool.budget, h, h * w // BAND_PIXELS))
    edges = [h * i // bands for i in range(bands + 1)]

    def row_band(i: int) -> None:
        lo, hi = edges[i] * wide, edges[i + 1] * wide
        _weighted_sum(kernel, flat[lo:hi], 1, hi - lo - 2 * radius, sums[lo:hi])

    pool.map_indexed(row_band, bands)
    # the column pass's input: the row sums' first w per row, edge-padded
    rows = tall[radius : radius + h]
    rows[...] = sums.reshape(h, wide)[:, :w]
    tall[:radius] = rows[0]
    tall[radius + h :] = rows[-1]
    out = np.empty((h, w))
    _weighted_sum(kernel, tall.reshape(-1), w, h * w, out.reshape(-1))
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
