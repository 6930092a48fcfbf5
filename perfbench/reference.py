"""Hand-written references the benchmark checks opsforge's outputs against.

Nothing here calls opsforge: the numeric references are restated in numpy
from the documented contracts (radius ceil(3 sigma), clamp-to-edge borders,
round half up after clamping to [0, 255]), and the expected plans are
literal tables of what the matcher must choose at this commit.
"""

from __future__ import annotations

import math

import numpy as np

# Float outputs agree within this share of the output scale: vectorised
# code may add the same terms in another order.
FLOAT_RTOL = 1e-9


def wrap64(x: int) -> int:
    """Two's-complement 64-bit wrap of a Python integer."""
    return ((x + 2**63) % 2**64) - 2**63


def gauss_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def gauss(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian, clamp-to-edge, as shifted weighted sums."""
    k = gauss_kernel(sigma)
    r = len(k) // 2
    h, w = image.shape
    p = np.pad(image.astype(np.float64), ((0, 0), (r, r)), mode="edge")
    rows = sum(k[d] * p[:, d : d + w] for d in range(2 * r + 1))
    q = np.pad(rows, ((r, r), (0, 0)), mode="edge")
    return sum(k[d] * q[d : d + h, :] for d in range(2 * r + 1))


def dog(image: np.ndarray, narrow: float, wide: float) -> np.ndarray:
    return gauss(image, narrow) - gauss(image, wide)


def to_u8(values: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(values, 0.0, 255.0) + 0.5).astype(np.uint8)


def rescale(image: np.ndarray, width: int, height: int | None = None) -> np.ndarray:
    """Nearest neighbour with centre-of-pixel mapping; height keeps aspect."""
    src_h, src_w = image.shape
    if height is None:
        height = max(1, math.floor(width * src_h / src_w + 0.5))
    out = np.empty((height, width), dtype=np.float64)
    for y in range(height):
        sy = min(math.floor((y + 0.5) * src_h / height), src_h - 1)
        for x in range(width):
            sx = min(math.floor((x + 0.5) * src_w / width), src_w - 1)
            out[y, x] = image[sy, sx]
    return out


def floats_close(got, ref: np.ndarray, scale: float) -> bool:
    return (
        isinstance(got, np.ndarray)
        and got.dtype == np.float64
        and got.shape == ref.shape
        and float(np.max(np.abs(got - ref), initial=0.0)) <= FLOAT_RTOL * scale
    )


def u8_close(got, ref: np.ndarray) -> bool:
    return (
        isinstance(got, np.ndarray)
        and got.dtype == np.uint8
        and got.shape == ref.shape
        and int(np.max(np.abs(got.astype(np.int16) - ref.astype(np.int16)), initial=0)) <= 1
    )


# ---------------------------------------------------------------------------
# Expected plans
# ---------------------------------------------------------------------------

# dispatch_hot: the plan each request key must run, as env.history names it.
HOT_SIGNATURES = {
    "add_int": "builtin:math/add_ints|DIRECT|[]|()",
    "add_real": "builtin:math/add_reals|DIRECT|[]|()",
    "mul_int": "builtin:math/mul_ints|DIRECT|[]|()",
    "mul_real": "builtin:math/mul_reals|DIRECT|[]|()",
    "sum": "legacy:stats/sum|DIRECT|[]|()",
    "increment": "builtin:benchmark/increment_u8|DIRECT|[]|()",
    "add_into": "builtin:math/add_reals_computer|DIRECT|[]|()",
}

_GAUSS = "builtin:filter/gauss"
_DOG_CHILDREN = (
    "(builtin:filter/gauss|DIRECT|[]|(),builtin:filter/gauss|DIRECT|[]|(),"
    "builtin:math/sub_reals|ADAPTED|[adapt:builtin:adapt/lift2_real_to_imagef64|DIRECT|[]|()]|())"
)
_INCR_ADAPT = (
    "adapt:builtin:adapt/inplace1_to_function1|DIRECT|[]|"
    "(builtin:create/bytearray|DIRECT|[]|(),builtin:copy/bytearray|DIRECT|[]|())"
)

# match_cold: one row per stdlib request. ``request`` is (name, kind, arg
# types, output or container type, mutable index). A plan row gives the
# routine, op source, adapter source, conversions as (position, in source,
# out source), copy-back source, effective arity and full signature. A miss
# row gives the exact near-miss lines instead.
PLAN_TABLE = {
    "add_int": dict(
        request=("math.add", "function", ("Integer", "Integer"), None, None),
        routine="DIRECT", source="builtin:math/add_ints", adapter=None,
        conversions=(), copyback=None, arity=2,
        signature="builtin:math/add_ints|DIRECT|[]|()",
    ),
    "sum": dict(
        request=("stats.sum", "function", ("RealArray",), None, None),
        routine="DIRECT", source="legacy:stats/sum", adapter=None,
        conversions=(), copyback=None, arity=1,
        signature="legacy:stats/sum|DIRECT|[]|()",
    ),
    "rescale_w": dict(
        request=("transform.rescale2D", "function", ("ImageF64", "Integer"), None, None),
        routine="DIRECT", source="builtin:transform/rescale2d", adapter=None,
        conversions=(), copyback=None, arity=2,
        signature="builtin:transform/rescale2d|DIRECT|[]|()",
    ),
    "rescale_wh": dict(
        request=("transform.rescale2D", "function", ("ImageF64", "Integer", "Integer"), None, None),
        routine="DIRECT", source="builtin:transform/rescale2d", adapter=None,
        conversions=(), copyback=None, arity=3,
        signature="builtin:transform/rescale2d|DIRECT|[]|()",
    ),
    "gauss_into": dict(
        request=("filter.gauss", "computer", ("ImageF64", "Real"), "ImageF64", None),
        routine="DIRECT", source=_GAUSS, adapter=None,
        conversions=(), copyback=None, arity=2,
        signature="builtin:filter/gauss|DIRECT|[]|()",
    ),
    "dog_into": dict(
        request=("filter.dog", "computer", ("ImageF64", "Real", "Real"), "ImageF64", None),
        routine="DIRECT", source="builtin:filter/dog", adapter=None,
        conversions=(), copyback=None, arity=3,
        signature="builtin:filter/dog|DIRECT|[]|" + _DOG_CHILDREN,
    ),
    "gauss_fn": dict(
        request=("filter.gauss", "function", ("ImageF64", "Real"), None, None),
        routine="ADAPTED", source=_GAUSS, adapter="builtin:adapt/computer2_to_function2",
        conversions=(), copyback=None, arity=2,
        signature="builtin:filter/gauss|ADAPTED|[adapt:builtin:adapt/computer2_to_function2|DIRECT|[]|()]|()",
    ),
    "dog_fn": dict(
        request=("filter.dog", "function", ("ImageF64", "Real", "Real"), None, None),
        routine="ADAPTED", source="builtin:filter/dog", adapter="builtin:adapt/computer3_to_function3",
        conversions=(), copyback=None, arity=3,
        signature="builtin:filter/dog|ADAPTED|[adapt:builtin:adapt/computer3_to_function3|DIRECT|[]|()]|"
        + _DOG_CHILDREN,
    ),
    "increment_fn": dict(
        request=("benchmark.increment", "function", ("ByteArray",), None, None),
        routine="ADAPTED", source="builtin:benchmark/increment_u8",
        adapter="builtin:adapt/inplace1_to_function1",
        conversions=(), copyback=None, arity=1,
        signature="builtin:benchmark/increment_u8|ADAPTED|[" + _INCR_ADAPT + "]|()",
    ),
    "sub_lifted": dict(
        request=("math.sub", "function", ("ImageF64", "ImageF64"), None, None),
        routine="ADAPTED", source="builtin:math/sub_reals",
        adapter="builtin:adapt/lift2_real_to_imagef64_fn",
        conversions=(), copyback=None, arity=2,
        signature="builtin:math/sub_reals|ADAPTED|[adapt:builtin:adapt/lift2_real_to_imagef64_fn|DIRECT|[]|()]|()",
    ),
    "increment_reals": dict(
        request=("benchmark.increment", "inplace", ("RealArray",), None, 0),
        routine="CONVERTED", source="builtin:benchmark/increment_u8", adapter=None,
        conversions=((0, "builtin:convert/reals_to_bytes", "builtin:convert/bytes_to_reals"),),
        copyback="builtin:copy/realarray", arity=1,
        signature="builtin:benchmark/increment_u8|CONVERTED|[conv0:in=builtin:convert/reals_to_bytes,"
        "out=builtin:convert/bytes_to_reals;copyback:builtin:copy/realarray]|()",
    ),
    "gauss_u8_into": dict(
        request=("filter.gauss", "computer", ("ImageU8", "Real"), "ImageU8", None),
        routine="CONVERTED", source=_GAUSS, adapter=None,
        conversions=(
            (0, "builtin:convert/u8_to_f64", None),
            (2, "builtin:convert/u8_to_f64", "builtin:convert/f64_to_u8"),
        ),
        copyback="builtin:copy/imageu8", arity=2,
        signature="builtin:filter/gauss|CONVERTED|[conv0:in=builtin:convert/u8_to_f64;"
        "conv2:in=builtin:convert/u8_to_f64,out=builtin:convert/f64_to_u8;copyback:builtin:copy/imageu8]|()",
    ),
    "increment_reals_fn": dict(
        request=("benchmark.increment", "function", ("RealArray",), None, None),
        routine="ADAPTED_AND_CONVERTED", source="builtin:benchmark/increment_u8",
        adapter="builtin:adapt/inplace1_to_function1",
        conversions=((0, "builtin:convert/reals_to_bytes", None),),
        copyback=None, arity=1,
        signature="builtin:benchmark/increment_u8|ADAPTED_AND_CONVERTED|[" + _INCR_ADAPT
        + ";conv0:in=builtin:convert/reals_to_bytes]|()",
    ),
    "gauss_u8_fn": dict(
        request=("filter.gauss", "function", ("ImageU8", "Real"), "ImageU8", None),
        routine="ADAPTED_AND_CONVERTED", source=_GAUSS,
        adapter="builtin:adapt/computer2_to_function2",
        conversions=((0, "builtin:convert/u8_to_f64", None), (2, None, "builtin:convert/f64_to_u8")),
        copyback=None, arity=2,
        signature="builtin:filter/gauss|ADAPTED_AND_CONVERTED|[adapt:builtin:adapt/computer2_to_function2"
        "|DIRECT|[]|();conv0:in=builtin:convert/u8_to_f64;conv2:out=builtin:convert/f64_to_u8]|()",
    ),
    "miss_add_text": dict(
        request=("math.add", "function", ("Text", "Text"), None, None),
        near_misses=(
            "builtin:math/add_ints :: type mismatch @ param a",
            "builtin:math/add_reals :: type mismatch @ param a",
            "builtin:math/add_ints :: missing adapter @ param *",
            "builtin:math/add_reals :: missing adapter @ param *",
            "builtin:math/add_reals_computer :: missing adapter @ param *",
            "builtin:math/add_ints :: missing convert @ param a",
            "builtin:math/add_reals :: missing convert @ param a",
            "builtin:math/add_reals :: missing convert @ param arg0",
            "builtin:math/add_reals_computer :: missing convert @ param arg0",
        ),
    ),
    "miss_gauss_flag": dict(
        request=("filter.gauss", "function", ("ImageF64", "Boolean"), None, None),
        near_misses=(
            "builtin:filter/gauss :: missing adapter @ param *",
            "builtin:filter/gauss :: missing convert @ param arg1",
        ),
    ),
    "miss_misspelt": dict(
        request=("filter.gaus", "function", ("ImageF64", "Real"), None, None),
        near_misses=(),
    ),
}

# imaging: the plans its four handles must hold.
IMAGING_SIGNATURES = {
    "gauss": PLAN_TABLE["gauss_fn"]["signature"],
    "dog": PLAN_TABLE["dog_fn"]["signature"],
    "sub": PLAN_TABLE["sub_lifted"]["signature"],
    "gauss_u8": PLAN_TABLE["gauss_u8_fn"]["signature"],
}


def plan_matches(tree, row: dict) -> bool:
    """Does a matched InfoTree agree with an expected-plan row?"""
    adapter = tree.adapter.info.source if tree.adapter is not None else None
    convs = tuple(
        (
            c.position,
            c.in_op.source if c.in_op is not None else None,
            c.out_op.source if c.out_op is not None else None,
        )
        for c in tree.conversions
    )
    copyback = tree.copyback.source if tree.copyback is not None else None
    return (
        tree.routine.value == row["routine"]
        and tree.info.source == row["source"]
        and adapter == row["adapter"]
        and convs == row["conversions"]
        and copyback == row["copyback"]
        and tree.eff_arity == row["arity"]
        and tree.signature == row["signature"]
    )
