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
    try:
        return float(x)
    except OverflowError:
        raise PreconditionError("cannot convert an integer this large to a Real") from None


def real_to_int(x: float) -> int:
    if math.isnan(x):
        raise PreconditionError("cannot convert NaN to an integer")
    if math.isinf(x):
        return _INT64_MAX if x > 0 else _INT64_MIN
    v = math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)
    return min(max(int(v), _INT64_MIN), _INT64_MAX)


def u8_to_f64(image: np.ndarray) -> np.ndarray:
    return image.astype(np.float64)


def _round_clamp_u8(values: np.ndarray) -> np.ndarray:
    # round-half-away-from-zero on [0, 255]: floor(x + 0.5) after clipping,
    # in place on the clipped copy; NaN survives the clip and fails the cast
    out = np.clip(values, 0.0, 255.0)
    out += 0.5
    np.floor(out, out=out)
    try:
        with np.errstate(invalid="raise"):
            return out.astype(np.uint8)
    except FloatingPointError:
        raise PreconditionError("cannot convert NaN to a byte") from None


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
    """Normalized 1-D Gaussian of radius ceil(3*sigma).

    Below sigma ~0.02 the two taps at ±1 are exp(-1 / 2σ²) = 0.0, so the
    kernel is [0, 1, 0]; it is returned as such, since 2σ² itself
    underflows to 0 (or 1 / 2σ² overflows) for the smallest sigmas.
    """
    if not 0 < sigma < math.inf:
        raise PreconditionError(f"sigma must be positive and finite, got {sigma}")
    two_var = 2.0 * sigma * sigma
    if two_var < 1e-3:  # exp(-1000) is 0.0
        return np.array([0.0, 1.0, 0.0])
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / two_var)
    return kernel / kernel.sum()


# Row-pass pixels per band of the compute pool. Each band past the first
# starts a thread, which a smaller band does not earn back (timings in
# CHANGES.md).
BAND_PIXELS = 1 << 16

# A padded pass of n sums over k taps runs batched (one broadcast multiply
# and one reduction instead of k multiply-adds) when k * n is at most
# TAPS_BLOCK and n is at most BUFFERED_BATCH_SUMS or over BUFFERED_SUMS and
# at most BATCH_SUMS. numpy 2.4 buffers the broadcast multiply (its kernel
# column has stride 0) for passes of up to BUFFERED_SUMS sums (2,730 was
# buffered and 2,731 was not, by tracemalloc), which makes batching lose
# from about 2^10 sums up to that bound; past it, batching wins until the
# block outgrows the core's cache. The bounds are fitted to a sweep over
# 8² to 128² and sigma 0.5 to 11 (table in CHANGES.md). A band split needs
# h * w >= 2 * BAND_PIXELS, more sums than BATCH_SUMS, so a batched pass
# never runs on a pool thread.
BUFFERED_BATCH_SUMS = 1 << 10
BUFFERED_SUMS = 8192 // 3
BATCH_SUMS = 1 << 13
TAPS_BLOCK = 1 << 18

# Pixels and product terms of a tiny blur: an image of 2 to TINY_PIXELS
# pixels whose k * h * w is at most TINY_TERMS gathers each pass's taps into
# one (k, h, w) block (see ``_tiny_blur``). In the sweep that ran every such
# blur fastest: 8x8 ~2x, 32x32 ~1.4x and 40x40 ~1.2x faster than the padded
# paths. By 48x48 the gain is gone, as the blocks (24 bytes a term) outgrow
# the core's cache. TINY_TERMS also bounds each cached ``_tiny_taps`` entry
# to 768 KiB.
TINY_PIXELS = 1 << 11
TINY_TERMS = 1 << 15

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


@functools.lru_cache(maxsize=8)
def _tiny_taps(sigma: float, h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (h, w) image's row and column pass taps, and their kernel weights.

    Three (k, h, w) blocks. The two index blocks hold flat source pixels:
    tap d of pixel (y, x) reads ``y*w + clip(x+d-r, 0, w-1)`` in the row
    pass and ``clip(y+d-r, 0, h-1)*w + x`` in the column pass, which is the
    clamp-to-edge border without a padded copy. They stay writeable, since
    ``take`` copies a read-only index array on every call. The read-only
    weights are the kernel column repeated over every pixel, so each pass
    multiplies two dense blocks: a stride-0 kernel column would send
    numpy's multiply through its buffered path, which takes 2-7x longer at
    these sizes and allocates up to a second block. An entry takes 24 bytes
    a term, at most 768 KiB under ``TINY_TERMS``, so the cache's 8 entries
    keep at most 6 MiB.
    """
    kernel = _kernel(sigma)
    k = len(kernel)
    r = k // 2
    d = np.arange(-r, r + 1)[:, None, None]
    ys = np.arange(h)[:, None]
    xs = np.arange(w)
    rows = ys * w + np.clip(xs + d, 0, w - 1)
    cols = np.clip(ys + d, 0, h - 1) * w + xs
    weights = np.repeat(kernel, h * w).reshape(k, h, w)
    weights.flags.writeable = False
    return rows, cols, weights


def _gathered_sum(src: np.ndarray, index: np.ndarray, weights: np.ndarray,
                  taps: np.ndarray, out: np.ndarray) -> None:
    """``out = sum(weights * src.flat[index], axis=0)``, in kernel order.

    ``taps`` is a (k, h, w) float64 block and ``out`` is (h, w). The
    reduction runs along the outermost axis of a C-contiguous block of at
    least two pixels, which numpy adds row by row; a layout with the taps
    innermost would be summed pairwise, out of kernel order. ``mode="clip"``
    (every index is in range) keeps ``take`` from buffering its output.
    """
    src.take(index, out=taps, mode="clip")
    np.multiply(taps, weights, out=taps)
    np.add.reduce(taps, axis=0, out=out)


def _is_tiny(k: int, h: int, w: int) -> bool:
    """Whether ``gaussian_blur`` runs an (h, w) image over k taps on ``_tiny_blur``."""
    return 2 <= h * w <= TINY_PIXELS and k * h * w <= TINY_TERMS


def _tiny_blur(image: np.ndarray, sigma: float, h: int, w: int) -> np.ndarray:
    """``gaussian_blur`` of an image that ``_is_tiny`` admits.

    Both passes gather their taps into one fresh (k, h, w) block; the row
    sums go into the result, which the column pass then reads. So the call
    allocates its result and that block, and touches no scratch.
    """
    if image.dtype != np.float64:
        image = image.astype(np.float64)
    rows, cols, weights = _tiny_taps(sigma, h, w)
    taps = np.empty(weights.shape)
    out = np.empty((h, w))
    current_pool().map_indexed(lambda _: _gathered_sum(image, rows, weights, taps, out), 1)
    _gathered_sum(out, cols, weights, taps, out)
    report_steps(h, "columns")
    return out


def _terms(k: int, n: int) -> int:
    """Float64s of terms ``_weighted_sum`` takes for ``n`` sums over ``k`` taps.

    ``k * n`` when the pass is batched (see ``TAPS_BLOCK``), else ``n``. A
    single sum (``n = 1``) is never batched: numpy would reduce its one
    contiguous row pairwise, out of kernel order.
    """
    short = 2 <= n <= BUFFERED_BATCH_SUMS
    unbuffered = BUFFERED_SUMS < n <= BATCH_SUMS
    return k * n if (short or unbuffered) and k * n <= TAPS_BLOCK else n


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

    Every pixel of each pass is the sum of its 2r+1 = k taps times the
    kernel, added in kernel order, so all three paths below give bitwise
    identical output; they differ only in what a call spends outside that
    arithmetic.

    - Tiny images (``_is_tiny``: 2 to ``TINY_PIXELS`` pixels and k * h * w
      at most ``TINY_TERMS``, such as 8x8 and 32x32 up to sigma 5) gather
      each pass's taps straight into one (k, h, w) block through cached
      index blocks and scale it by a cached block of weights
      (``_tiny_blur``): three numpy calls per pass, with no padded copy and
      no scratch. Its gain shrinks with size and is gone by 48², so larger
      images take the paths below; so does a single pixel, whose one sum
      numpy would add pairwise.
    - Otherwise each pass is k shifted multiply-adds over a flat edge-padded
      copy (see ``_weighted_sum``). A pass that ``_terms`` batches, such as
      either pass of a 64² blur up to sigma 5, runs its k * n terms as one
      block, so it costs a few numpy calls instead of 2k - 1; the others,
      where the block does not pay, such as every 128² pass, run per tap.

    The row pass runs through the compute pool. On the padded paths it runs
    over the padded rows end to end, so the 2r sums per row that straddle
    two rows are computed and dropped, and it is split into bands of rows,
    one band per ``BAND_PIXELS`` pixels up to the pool's budget; every row
    depends only on its own pixels, so any budget gives bitwise identical
    output. The column pass runs on the calling thread, which then reports
    per-row progress ending at exactly 1.0. On the padded paths every
    buffer but the result is this thread's scratch (see ``_scratch``), with
    the larger pass's terms at its head, and no other code runs while it is
    in use.
    """
    if image.size == 0:
        raise PreconditionError("image must be non-empty")
    sigma = float(sigma)
    kernel = _kernel(sigma)
    k = len(kernel)
    h, w = image.shape
    if _is_tiny(k, h, w):
        return _tiny_blur(image, sigma, h, w)
    radius = k // 2
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
