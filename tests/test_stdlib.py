"""Builtin op bodies: kernels, filters, conversions, and the legacy wrappers."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opsforge.errors import (
    DimensionMismatchError,
    ExecutionError,
    NoMatchError,
    PreconditionError,
)
from opsforge.registry import Io, Kind
from opsforge.stdlib import BINDINGS, adapt, bodies, default_environment
from opsforge.values import image_f64, image_u8, wrap

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


@pytest.fixture()
def env():
    return default_environment(include_legacy=False)


@pytest.fixture()
def legacy_env():
    return default_environment()


def _rand_image(seed, w, h):
    rng = np.random.default_rng(seed)
    return image_f64(w, h, rng.random(w * h))


# -- gaussian kernel ----------------------------------------------------------


def _reference_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
def test_kernel_sums_to_one(sigma):
    assert abs(bodies.gaussian_kernel(sigma).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
def test_kernel_symmetric(sigma):
    kernel = bodies.gaussian_kernel(sigma)
    assert np.array_equal(kernel, kernel[::-1])


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
def test_kernel_radius_is_three_sigma(sigma):
    kernel = bodies.gaussian_kernel(sigma)
    assert len(kernel) == 2 * math.ceil(3.0 * sigma) + 1


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_kernel_rejects_nonpositive_sigma(sigma):
    with pytest.raises(PreconditionError):
        bodies.gaussian_kernel(sigma)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_kernel_rejects_nonfinite_sigma(sigma):
    with pytest.raises(PreconditionError, match="finite"):
        bodies.gaussian_kernel(sigma)


# 2σ² underflows to 0 at the first two and 1 / 2σ² overflows at the third
_VANISHING_SIGMAS = [1e-200, 5e-324, 1e-160]


@pytest.mark.parametrize("sigma", _VANISHING_SIGMAS)
def test_kernel_of_a_vanishing_sigma_is_the_identity(sigma):
    # what sigma = 1e-3 gives, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = bodies.gaussian_kernel(sigma)
    assert kernel.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()
    assert kernel.tobytes() == bodies.gaussian_kernel(1e-3).tobytes()


def _check_kernel_against_the_reference(sigma):
    with np.errstate(all="ignore"):
        expected = _reference_kernel(sigma)
    if not np.isfinite(expected).all():
        expected = np.array([0.0, 1.0, 0.0])
    assert bodies.gaussian_kernel(sigma).tobytes() == expected.tobytes(), sigma


def test_kernel_is_the_reference_formula_wherever_that_is_finite():
    # a sweep across the identity cut-off (2σ² = 1e-3 near sigma 0.0224)
    for sigma in np.geomspace(1e-300, 60.0, 3000).tolist() + [0.02236, 0.022361, 1 / 3]:
        _check_kernel_against_the_reference(sigma)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, max_value=60.0))
def test_kernel_is_the_reference_formula_for_any_sigma(sigma):
    _check_kernel_against_the_reference(sigma)


# -- gauss --------------------------------------------------------------------


def _direct_blur(image, sigma):
    # brute-force 2-D convolution with per-axis clamp-to-edge coordinates
    radius = math.ceil(3.0 * sigma)
    k1 = _reference_kernel(sigma)
    k2 = np.outer(k1, k1)
    h, w = image.shape
    out = np.zeros_like(image)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    acc += k2[dy + radius, dx + radius] * image[yy, xx]
            out[y, x] = acc
    return out


@pytest.mark.parametrize("sigma,w,h", [(0.8, 8, 8), (1.5, 7, 5)])
def test_gauss_matches_direct_convolution(env, sigma, w, h):
    img = _rand_image(20, w, h)
    out = env.op("filter.gauss").input(img, wrap(sigma)).apply()
    expected = _direct_blur(img.payload, sigma)
    assert np.max(np.abs(out.payload - expected)) <= 1e-12


def test_gauss_preserves_constant_image(env):
    img = wrap(np.full((6, 6), 3.25))
    out = env.op("filter.gauss").input(img, wrap(2.0)).apply()
    assert np.max(np.abs(out.payload - 3.25)) <= 1e-12


def test_gauss_impulse_gives_kernel_outer_product(env):
    data = np.zeros((9, 9))
    data[4, 4] = 1.0
    out = env.op("filter.gauss").input(wrap(data), wrap(1.0)).apply()
    kernel = _reference_kernel(1.0)
    expected = np.zeros((9, 9))
    expected[1:8, 1:8] = np.outer(kernel, kernel)
    assert np.max(np.abs(out.payload - expected)) <= 1e-12


def test_gauss_on_single_pixel_is_identity(env):
    out = env.op("filter.gauss").input(wrap(np.full((1, 1), 7.0)), wrap(1.0)).apply()
    assert np.max(np.abs(out.payload - 7.0)) <= 1e-12


def test_gauss_rejects_nonpositive_sigma(env):
    with pytest.raises(PreconditionError) as err:
        env.op("filter.gauss").input(_rand_image(21, 4, 4), wrap(0.0)).apply()
    assert "positive" in str(err.value)


@pytest.mark.parametrize("name, sigmas", [("filter.gauss", (math.inf,)),
                                          ("filter.dog", (1.0, math.inf))])
def test_blur_rejects_infinite_sigma(env, name, sigmas):
    with pytest.raises(PreconditionError, match="finite"):
        env.op(name).input(_rand_image(24, 4, 4), *map(wrap, sigmas)).apply()


@pytest.mark.parametrize("sigma", _VANISHING_SIGMAS)
@pytest.mark.parametrize("shape", [(8, 8), (1, 1), (40, 64)])
def test_gauss_with_a_vanishing_sigma_returns_the_image(env, sigma, shape):
    # 8x8 takes the tiny path, 1x1 the per-tap passes, 40x64 the batched ones
    img = np.random.default_rng(25).uniform(0.0, 255.0, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = env.op("filter.gauss").input(wrap(img), wrap(sigma)).apply()
    assert out.payload.tobytes() == img.tobytes()


# -- dog ----------------------------------------------------------------------


def test_dog_equal_sigmas_is_zero(env):
    img = _rand_image(22, 6, 6)
    out = env.op("filter.dog").input(img, wrap(1.5), wrap(1.5)).apply()
    assert not out.payload.any()


def test_dog_constant_image_is_zero(env):
    img = wrap(np.full((5, 5), 9.5))
    out = env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply()
    assert np.max(np.abs(out.payload)) <= 1e-12


def test_dog_rejects_nonpositive_sigma(env):
    img = _rand_image(23, 4, 4)
    with pytest.raises(PreconditionError):
        env.op("filter.dog").input(img, wrap(-1.0), wrap(2.0)).apply()


@pytest.mark.parametrize("sigma", _VANISHING_SIGMAS)
def test_dog_with_a_vanishing_sigma_is_the_image_minus_the_wide_blur(env, sigma):
    img = np.random.default_rng(26).uniform(0.0, 255.0, (8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = env.op("filter.dog").input(wrap(img), wrap(sigma), wrap(2.0)).apply()
    wide = env.op("filter.gauss").input(wrap(img), wrap(2.0)).apply().payload
    assert out.payload.tobytes() == (img - wide).tobytes()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
@pytest.mark.parametrize(
    "name, sigmas", [("filter.gauss", (1.0,)), ("filter.dog", (1.0, 2.0))]
)
def test_blur_rejects_empty_image(env, name, sigmas, shape):
    img = wrap(np.zeros(shape))
    with pytest.raises(PreconditionError) as err:
        env.op(name).input(img, *map(wrap, sigmas)).apply()
    assert "non-empty" in str(err.value)


# -- rescale ------------------------------------------------------------------


def test_rescale_omitted_height_keeps_aspect(env):
    img = image_f64(4, 2, range(8))
    out = env.op("transform.rescale2D").input(img, wrap(8)).apply()
    assert out.payload.shape == (4, 8)


def test_rescale_identity_is_pixel_equal(env):
    img = _rand_image(24, 5, 3)
    out = env.op("transform.rescale2D").input(img, wrap(5), wrap(3)).apply()
    assert np.array_equal(out.payload, img.payload)


def test_rescale_matches_index_map_oracle(env):
    img = image_f64(4, 2, [0, 1, 2, 3, 10, 11, 12, 13])
    out = env.op("transform.rescale2D").input(img, wrap(2), wrap(1)).apply()
    # src index = floor((dst + 0.5) * src_len / dst_len), one axis at a time
    expected = np.empty((1, 2))
    for y in range(1):
        for x in range(2):
            sy = min(int((y + 0.5) * 2 / 1), 1)
            sx = min(int((x + 0.5) * 4 / 2), 3)
            expected[y, x] = img.payload[sy, sx]
    assert np.array_equal(out.payload, expected)


def test_rescale_upsample_matches_index_map_oracle(env):
    img = _rand_image(25, 3, 2)
    out = env.op("transform.rescale2D").input(img, wrap(7), wrap(5)).apply()
    for y in range(5):
        for x in range(7):
            sy = min(int((y + 0.5) * 2 / 5), 1)
            sx = min(int((x + 0.5) * 3 / 7), 2)
            assert out.payload[y, x] == img.payload[sy, sx]


@pytest.mark.parametrize("width,height", [(0, 2), (3, 0), (-1, 1)])
def test_rescale_rejects_nonpositive_dims(env, width, height):
    img = _rand_image(26, 4, 4)
    with pytest.raises(PreconditionError):
        env.op("transform.rescale2D").input(img, wrap(width), wrap(height)).apply()


# -- math ---------------------------------------------------------------------


def test_add_wraps_at_int64_max(env):
    out = env.op("math.add").input(INT64_MAX, 1).apply()
    assert out.payload == INT64_MIN


def test_sub_wraps_at_int64_min(env):
    out = env.op("math.sub").input(INT64_MIN, 1).apply()
    assert out.payload == INT64_MAX


def test_mul_wraps_modulo_two_to_the_64(env):
    out = env.op("math.mul").input(2**62, 4).apply()
    assert out.payload == 0


@given(st.integers(min_value=INT64_MIN, max_value=INT64_MAX))
def test_sub_self_is_zero(x):
    assert bodies.sub_ints(x, x) == 0


@given(st.integers(min_value=INT64_MIN, max_value=INT64_MAX))
def test_mul_one_is_identity(x):
    assert bodies.mul_ints(1, x) == x


def test_div_reals(env):
    assert env.op("math.div").input(7.0, 2.0).apply().payload == 3.5


def test_div_by_zero_rejected(env):
    with pytest.raises(PreconditionError) as err:
        env.op("math.div").input(1.0, 0.0).apply()
    assert "zero" in str(err.value)


# -- conversion ---------------------------------------------------------------


def test_u8_to_f64_roundtrip_exact_for_all_values(env):
    data = np.arange(256, dtype=np.uint8).reshape(16, 16)
    widened = env.op("engine.convert").input(wrap(data.copy())).apply()
    assert widened.payload.dtype == np.float64
    back = env.op("engine.convert").input(widened).apply()
    assert back.payload.dtype == np.uint8
    assert np.array_equal(back.payload, data)


def test_f64_to_u8_clamps(env):
    img = wrap(np.array([[300.0, -5.0]]))
    out = env.op("engine.convert").input(img).apply()
    assert list(out.payload[0]) == [255, 0]


def test_f64_to_u8_rounds_half_away_from_zero(env):
    img = wrap(np.array([[0.5, 1.5, 254.5, 0.49]]))
    out = env.op("engine.convert").input(img).apply()
    assert list(out.payload[0]) == [1, 2, 255, 0]


def test_u8_round_clamp_matches_the_whole_array_expression():
    rng = np.random.default_rng(21)
    values = np.concatenate([
        rng.uniform(-50.0, 300.0, 4096),
        -rng.random(64) * 1e6,
        255.0 + rng.random(64) * 1e6,
        np.arange(-3, 259) + 0.5,
        np.nextafter(np.arange(-3, 259) + 0.5, -np.inf),
        [0.0, -0.0, 255.0, np.inf, -np.inf],
    ])
    before = values.copy()
    expected = np.floor(np.clip(values, 0.0, 255.0) + 0.5).astype(np.uint8)
    for shape in (values.shape, (1, values.size)):
        got = bodies.f64_to_u8(values.reshape(shape))
        assert got.dtype == np.uint8 and got.reshape(-1).tobytes() == expected.tobytes()
    assert bodies.reals_to_bytes(values) == bytearray(expected.tobytes())
    assert values.tobytes() == before.tobytes()


def test_int_to_real(env):
    out = env.op("engine.convert").input(5).apply()
    assert out.payload == 5.0
    assert isinstance(out.payload, float)
    # an int no float can hold is refused, as NaN is on the way back
    with pytest.raises(PreconditionError, match="to a Real"):
        env.op("engine.convert").input(10**400).output_type("Real").apply()


@pytest.mark.parametrize(
    "value,expected",
    [(2.5, 3), (-2.5, -3), (0.4, 0), (-0.4, 0), (1e300, INT64_MAX), (-1e300, INT64_MIN),
     (math.inf, INT64_MAX), (-math.inf, INT64_MIN)],
)
def test_real_to_int_rounds_and_saturates(value, expected):
    assert bodies.real_to_int(value) == expected


def test_real_to_int_rejects_nan():
    with pytest.raises(PreconditionError):
        bodies.real_to_int(float("nan"))


def test_bytes_to_reals(env):
    out = env.op("engine.convert").input(wrap(bytearray([0, 127, 255]))).apply()
    assert list(out.payload) == [0.0, 127.0, 255.0]


def test_reals_to_bytes_applies_round_clamp(env):
    out = env.op("engine.convert").input(wrap(np.array([1.4, 300.0, -5.0]))).apply()
    assert list(out.payload) == [1, 255, 0]


@pytest.mark.parametrize("body", [bodies.reals_to_bytes, bodies.f64_to_u8])
def test_real_to_byte_conversions_reject_nan(body):
    with pytest.raises(PreconditionError, match="cannot convert NaN to a byte"):
        body(np.array([[2.0, np.nan]]))


# -- create and copy ----------------------------------------------------------


def test_create_imagef64_zeroed(env):
    out = env.op("create.imagef64").input(_rand_image(27, 4, 3)).apply()
    assert out.payload.shape == (3, 4)
    assert not out.payload.any()


def test_create_bytearray_zeroed(env):
    out = env.op("create.bytearray").input(wrap(bytearray(b"hello"))).apply()
    assert out.payload == bytearray(5)


def test_create_degenerate_image(env):
    out = env.op("engine.create").input(wrap(np.zeros((0, 0)))).apply()
    assert out.payload.shape == (0, 0)


def test_copy_array_empty_into_empty(env):
    dst = wrap(bytearray())
    env.op("copy.array").input(wrap(bytearray())).container(dst).compute()
    assert dst.payload == bytearray()


def test_copy_array_length_mismatch(env):
    dst = wrap(bytearray(4))
    with pytest.raises(DimensionMismatchError):
        env.op("copy.array").input(wrap(bytearray([1, 2, 3]))).container(dst).compute()


def test_copy_image_pixel_exact(env):
    src = _rand_image(28, 2, 2)
    dst = wrap(np.zeros((2, 2)))
    env.op("copy.imagef64").input(src).container(dst).compute()
    assert np.array_equal(dst.payload, src.payload)


def test_copy_image_dimension_mismatch(env):
    dst = wrap(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        env.op("copy.imagef64").input(_rand_image(29, 2, 2)).container(dst).compute()


# -- describe ops -------------------------------------------------------------


@pytest.mark.parametrize(
    "payload,label",
    [
        (5, "integer"),
        (1.5, "number"),
        (True, "boolean"),
        ("hi", "text"),
    ],
)
def test_describe_scalars(env, payload, label):
    assert env.op("engine.describe").input(wrap(payload)).apply().payload == label


def test_describe_aggregates(env):
    arr = wrap(np.array([1.0, 2.0]))
    assert env.op("engine.describe").input(arr).apply().payload == "array"
    img = image_u8(2, 2, [1, 2, 3, 4])
    assert env.op("engine.describe").input(img).apply().payload == "image"


# -- lifting ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,scalar",
    [
        ("math.add", bodies.add_reals),
        ("math.sub", bodies.sub_reals),
        ("math.mul", bodies.mul_reals),
    ],
)
def test_lifted_element_op_equals_scalar_loop(env, name, scalar):
    a = _rand_image(30, 4, 3)
    b = _rand_image(31, 4, 3)
    out = env.op(name).input(a, b).apply()
    expected = np.empty((3, 4))
    for y in range(3):
        for x in range(4):
            expected[y, x] = scalar(a.payload[y, x], b.payload[y, x])
    assert np.array_equal(out.payload, expected)


LIFTED = ("math.add", "math.sub", "math.mul")

# Edge values for the whole-array lift: signed zeros, infinities, one NaN,
# subnormals, the largest finite values and values whose sum or product
# overflows. Only the canonical NaN appears, see
# test_lift_of_two_nans_gives_nan for operands that are both NaN.
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     1e200, -1e200, 1.0, -1.5]
)
_ELEMENTS = st.one_of(st.floats(allow_nan=False), _EDGE_FLOATS)


@pytest.fixture(scope="module")
def lift_env():
    return default_environment(include_legacy=False)


def _looped(body):
    """The per-element lift of ``body``: the wrapper carries no mark."""
    return adapt.lift2_elementwise(lambda a, b: body(a, b))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
)
def test_lifted_ops_bitwise_equal_the_element_loop(lift_env, data, shape):
    a = data.draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS))
    b = data.draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS))
    for name in LIFTED:
        body = BINDINGS[f"builtin:math/{name[5:]}_reals"]
        expected = _looped(body)(a, b).tobytes()
        applied = lift_env.op(name).input(wrap(a.copy()), wrap(b.copy())).apply()
        container = wrap(np.zeros(shape))
        lift_env.op(name).input(wrap(a.copy()), wrap(b.copy())).container(container).compute()
        assert applied.payload.tobytes() == expected, name
        assert container.payload.tobytes() == expected, name


def test_lift_of_two_nans_gives_nan():
    # IEEE 754 leaves open which payload a NaN-with-NaN result carries;
    # CPython's scalar a + b and numpy's array a + b may pick different
    # operands, so only NaN-ness is the contract there.
    quiet, negative = math.nan, -math.nan
    a = np.array([[quiet, negative, quiet, 1.0]])
    b = np.array([[negative, quiet, 2.0, negative]])
    for body in (bodies.add_reals, bodies.sub_reals, bodies.mul_reals):
        whole = adapt.lift2_elementwise(body)(a, b)
        looped = _looped(body)(a, b)
        assert np.isnan(whole[0, :2]).all()
        assert whole[0, 2:].tobytes() == looped[0, 2:].tobytes()


@pytest.mark.parametrize("marked", [True, False])
def test_lift_shape_mismatch_raises_before_any_body_call(marked):
    calls = []

    def body(a, b):
        calls.append(1)
        return a - b

    if marked:
        body = adapt.elementwise(body)
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 3\) vs \(3, 2\)"):
        adapt.lift2_elementwise(body)(np.zeros((2, 3)), np.zeros((3, 2)))
    assert calls == []


@pytest.mark.parametrize("name", LIFTED)
@pytest.mark.parametrize("terminal", ["apply", "compute"])
def test_lifted_plan_shape_mismatch_names_the_same_error(env, name, terminal):
    builder = env.op(name).input(wrap(np.zeros((2, 3))), wrap(np.zeros((3, 2))))
    if terminal == "compute":
        builder = builder.container(wrap(np.zeros((2, 3))))
    with pytest.raises(ExecutionError) as err:
        getattr(builder, terminal)()
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == "shape mismatch: (2, 3) vs (3, 2)"


@pytest.mark.parametrize("marked,calls_expected", [(True, 1), (False, 12)])
def test_compiled_lift_calls_a_marked_body_once(marked, calls_expected):
    calls = []

    def sub(a, b):
        calls.append(1)
        return a - b

    if marked:
        sub = adapt.elementwise(sub)
    env = default_environment(
        include_legacy=False, extra_bindings={"builtin:math/sub_reals": sub}
    )
    a, b = _rand_image(32, 4, 3), _rand_image(33, 4, 3)
    out = env.op("math.sub").input(a, b).apply()
    assert calls == [1] * calls_expected
    assert out.payload.tobytes() == (a.payload - b.payload).tobytes()


def test_only_the_ieee_bodies_are_marked_elementwise():
    marked = {fn.__name__ for fn in BINDINGS.values() if getattr(fn, "elementwise", False)}
    assert marked == {"add_reals", "sub_reals", "mul_reals"}


@pytest.mark.parametrize("terminal", ["apply", "compute"])
def test_lifted_div_keeps_the_loop_and_rejects_a_zero_divisor(env, terminal):
    builder = env.op("math.div").input(
        wrap(np.ones((2, 2))), wrap(np.array([[1.0, 2.0], [0.0, 4.0]]))
    )
    if terminal == "compute":
        builder = builder.container(wrap(np.zeros((2, 2))))
    with pytest.raises(PreconditionError, match="zero"):
        getattr(builder, terminal)()


@pytest.mark.parametrize("name", LIFTED)
def test_scalar_real_ops_return_plain_floats(env, name):
    out = env.op(name).input(1.5, 2.25).apply()
    assert type(out.payload) is float
    container = wrap(0.0)
    env.op(name).input(1.5, 2.25).container(container).compute()
    assert type(container.payload) is float


def test_lifted_function_leaves_original_untouched(env):
    data = bytearray([41, 7])
    out = env.op("benchmark.increment").input(wrap(bytearray(data))).apply()
    assert list(out.payload) == [42, 7]
    original = wrap(bytearray(data))
    env.op("benchmark.increment").input(original).apply()
    assert list(original.payload) == [41, 7]


# -- legacy wrapping ----------------------------------------------------------


def test_legacy_sum_via_yaml_only(legacy_env):
    out = legacy_env.op("stats.sum").input(wrap(np.array([1.0, 2.0, 3.0]))).apply()
    assert out.payload == 6.0


class _Tagged(np.ndarray):
    """An ndarray subclass with its own sum, as np.sum honours it."""

    def sum(self, *args, **kwargs):
        return 100.0 + float(np.asarray(self).sum(*args, **kwargs))


@pytest.mark.parametrize(
    "values",
    [
        np.array([-0.0]),
        np.array([-0.0, -0.0]),
        np.array([0.0, -0.0]),
        np.array([np.inf, 1.0]),
        np.array([np.inf, -np.inf]),
        np.array([1.0, np.nan]),
        np.array([]),
        np.random.default_rng(7).normal(0.0, 1e3, size=16),
        np.random.default_rng(8).normal(0.0, 1e12, size=1001),
        np.ma.masked_array([1.0, 2.0, 3.0], mask=[False, True, False]),
        np.array([1.0, 2.0]).view(_Tagged),
    ],
    ids=["-0", "-0-0", "0-0", "inf", "inf-inf", "nan", "empty", "16", "1001", "masked",
         "subclass"],
)
def test_legacy_sum_body_is_bitwise_np_sum(values):
    with np.errstate(invalid="ignore"):  # inf - inf
        got = BINDINGS["legacy:stats/sum"](values)
        want = float(np.sum(values))
    assert type(got) is float
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_legacy_reverse(legacy_env):
    out = legacy_env.op("transform.reverse").input(wrap(np.array([1.0, 2.0, 3.0]))).apply()
    assert list(out.payload) == [3.0, 2.0, 1.0]


def test_legacy_transpose(legacy_env):
    img = image_f64(3, 2, [1, 2, 3, 4, 5, 6])
    out = legacy_env.op("transform.transpose").input(img).apply()
    assert out.payload.shape == (3, 2)
    for r in range(2):
        for c in range(3):
            assert out.payload[c, r] == img.payload[r, c]


def test_removing_legacy_descriptors_removes_ops(env):
    with pytest.raises(NoMatchError):
        env.op("stats.sum").input(wrap(np.array([1.0]))).apply()


# -- descriptor and body agreement ---------------------------------------------


def test_every_bound_body_accepts_declared_arity(legacy_env):
    # computers receive inputs only (content is returned), inplaces also get
    # the mutable argument, and dependencies arrive as extra leading args
    for info in legacy_env.infos:
        body = BINDINGS.get(info.source)
        if body is None:
            continue
        wanted_ios = (
            (Io.INPUT, Io.MUTABLE) if info.kind is Kind.INPLACE else (Io.INPUT,)
        )
        n_args = len(info.dependencies) + sum(
            1 for p in info.params if p.io in wanted_ios
        )
        params = [
            p
            for p in inspect.signature(body).parameters.values()
            if p.kind
            in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        ]
        required = sum(1 for p in params if p.default is inspect.Parameter.empty)
        assert required <= n_args <= len(params), info.source
