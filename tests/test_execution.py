"""Builder terminals, handles, history, progress, and the compute pool."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import opsforge
from opsforge.errors import (
    DimensionMismatchError,
    ExecutionError,
    NoMatchError,
    PreconditionError,
    RegistrationError,
)
from opsforge.execution import compile_tree
from opsforge.matcher import computer_request
from opsforge.runtime import ComputePool, current_pool, report_progress
from opsforge.stdlib import bodies, default_environment
from opsforge.values import Value, image_f64, image_u8, wrap

BYTE_ARRAY = "ByteArray"


@pytest.fixture()
def env():
    return default_environment(include_legacy=False)


def _rand_image(seed, w=16, h=16):
    rng = np.random.default_rng(seed)
    return image_f64(w, h, rng.random(w * h))


def test_apply_add(env):
    assert env.op("math.add").input(2, 3).apply().payload == 5


def test_apply_rejects_mixed_types(env):
    with pytest.raises(NoMatchError):
        env.op("math.add").input(2, "x").apply()


def test_apply_leaves_inputs_unmutated(env):
    img = _rand_image(1)
    before = img.payload.copy()
    env.op("filter.gauss").input(img, wrap(1.2)).apply()
    assert np.array_equal(img.payload, before)


def test_dog_equals_manual_pipeline(env):
    img = _rand_image(2, 8, 8)
    dog = env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply()
    g1 = env.op("filter.gauss").input(img, wrap(1.0)).apply()
    g2 = env.op("filter.gauss").input(img, wrap(2.0)).apply()
    manual = env.op("math.sub").input(g1, g2).apply()
    assert np.array_equal(dog.payload, manual.payload)


def test_compute_copy_array(env):
    src = wrap(bytearray([7, 8]))
    dst = wrap(bytearray(2))
    env.op("copy.array").input(src).container(dst).compute()
    assert list(dst.payload) == [7, 8]


def test_compute_and_apply_agree(env):
    img = _rand_image(3)
    container = wrap(np.zeros_like(img.payload))
    env.op("filter.gauss").input(img, wrap(1.5)).container(container).compute()
    applied = env.op("filter.gauss").input(img, wrap(1.5)).apply()
    assert np.array_equal(container.payload, applied.payload)


def test_bad_container_leaves_content_intact(env):
    img = _rand_image(4, 6, 6)
    container = wrap(np.full((3, 3), 9.0))
    with pytest.raises(DimensionMismatchError):
        env.op("filter.gauss").input(img, wrap(1.0)).container(container).compute()
    assert np.array_equal(container.payload, np.full((3, 3), 9.0))


def test_container_takes_only_a_value(env):
    with pytest.raises(ExecutionError, match=r"container\(\.\.\.\) takes a Value"):
        env.op("copy.array").input(wrap(bytearray(2))).container(bytearray(2))


def test_computer_without_a_container_is_an_execution_error(env):
    # not the RegistrationError a computer request without one raises
    builder = env.op("filter.gauss").input_types("ImageF64", "Real")
    with pytest.raises(ExecutionError, match=r"computer\(\) needs container_type"):
        builder.computer()


def test_mutate_increments_first_byte(env):
    data = bytearray([0, 5])
    env.op("benchmark.increment").input(wrap(data)).mutate()
    assert list(data) == [1, 5]


def test_mutate_wraps_at_256(env):
    data = bytearray([255])
    env.op("benchmark.increment").input(wrap(data)).mutate()
    assert list(data) == [0]


def test_mutate_empty_array_precondition(env):
    with pytest.raises(PreconditionError) as err:
        env.op("benchmark.increment").input(wrap(bytearray())).mutate()
    assert "non-empty" in str(err.value)


# -- the value boundary: payloads in, a Value only where the caller sees it ----


@pytest.fixture(params=[True, False], ids=["cached", "uncached"])
def any_env(request):
    return default_environment(include_legacy=False, cache_enabled=request.param)


def test_mutate_hands_back_the_staged_value_itself(any_env):
    value = wrap(bytearray([1, 2]))
    for k in range(3):
        assert any_env.op("benchmark.increment").input(value).mutate() is value
    assert list(value.payload) == [4, 2]
    assert any_env.history.lookup(value) is not None


def test_mutate_on_a_raw_payload_returns_a_new_value_around_it(any_env):
    data = bytearray([1, 2])
    outs = [any_env.op("benchmark.increment").input(data).mutate() for _ in range(3)]
    assert all(type(out) is Value and out.payload is data for out in outs)
    assert len({out.uid for out in outs}) == 3
    assert list(data) == [4, 2]
    assert all(any_env.history.lookup(out) is not None for out in outs)


def test_mutate_on_a_raw_scalar_returns_a_value_of_the_result(conv_env):
    for _ in range(2):
        out = conv_env.op("test.bump").input(3).mutate()
        assert (out.type, out.payload) == (opsforge.values.INTEGER, 5)


def _values_built(call) -> int:
    """How many Values ``call()`` builds: every Value takes the next uid."""
    before = next(opsforge.values._uid_counter)
    call()
    return next(opsforge.values._uid_counter) - before - 1


def _boundary_calls(env):
    add = env.op("math.add").input_types("Integer", "Integer").function()
    sub = env.op("math.sub").input_types("ImageF64", "ImageF64").output_type("ImageF64").function()
    inc = env.op("benchmark.increment").input_types(BYTE_ARRAY).inplace()
    into = env.op("math.add").input_types("Real", "Real").container_type("Real").computer()
    value, data, container = wrap(bytearray(4)), bytearray(4), wrap(0.0)
    a, b = np.ones((4, 4)), np.zeros((4, 4))
    return {
        # the result
        "apply raw ints": (lambda: env.op("math.add").input(2, 3).apply(), 1),
        "function handle raw ints": (lambda: add(2, 3), 1),
        "function handle raw arrays": (lambda: sub(a, b), 1),
        # the container or mutable argument the caller already holds
        "compute raw reals": (
            lambda: env.op("math.add").input(2.5, 1.0).container(container).compute(), 0),
        "computer handle raw reals": (lambda: into(2.5, 1.0, container=container), 0),
        "mutate a Value": (lambda: env.op("benchmark.increment").input(value).mutate(), 0),
        "inplace handle on a Value": (lambda: inc(value), 0),
        # the Value mutate() hands back for a raw payload
        "mutate a raw bytearray": (lambda: env.op("benchmark.increment").input(data).mutate(), 1),
        # an array's exact class is not in the table, so input() wraps it,
        # and only it
        "apply raw array and raw real": (
            lambda: env.op("filter.gauss").input(a, 1.0).apply(), 2),
    }


# Named here rather than read off _boundary_calls(), which builds Values:
# collecting must not advance the uid counter other modules' test ids show.
_BOUNDARY_CALL_NAMES = sorted([
    "apply raw ints", "function handle raw ints", "function handle raw arrays",
    "compute raw reals", "computer handle raw reals", "mutate a Value",
    "inplace handle on a Value", "mutate a raw bytearray", "apply raw array and raw real",
])


@pytest.mark.parametrize("name", _BOUNDARY_CALL_NAMES)
def test_a_cached_call_builds_only_the_value_it_returns(name):
    env = default_environment(include_legacy=False)
    calls = _boundary_calls(env)
    assert sorted(calls) == _BOUNDARY_CALL_NAMES
    call, built = calls[name]
    call()
    hits = env.cache.hits
    assert _values_built(call) == built
    assert env.cache.hits == hits + ("handle" not in name)


BAD_OBJECTS = [object(), None, 1j, [1.0, "x"], np.zeros((2, 2, 2)), np.zeros(3, dtype=np.int32)]


@pytest.mark.parametrize("obj", BAD_OBJECTS, ids=lambda o: type(o).__name__)
def test_a_bad_object_raises_at_input_and_at_the_handle_call_with_the_wrap_text(env, obj):
    with pytest.raises(RegistrationError) as wrapped:
        wrap(obj)
    add = env.op("math.add").input_types("Integer", "Integer").function()
    into = env.op("math.add").input_types("Real", "Real").container_type("Real").computer()
    inc = env.op("benchmark.increment").input_types(BYTE_ARRAY).inplace()
    for fails in (
        lambda: env.op("math.add").input(2, obj),
        lambda: env.op("math.add").input(2).input(obj),
        lambda: add(2, obj),
        lambda: add(obj),  # the object fails before the arity check
        lambda: into(2.5, obj, container=wrap(0.0)),
        lambda: inc(obj),
    ):
        with pytest.raises(RegistrationError) as err:
            fails()
        assert str(err.value) == str(wrapped.value)


def test_an_inplace_handle_still_wants_its_mutable_argument_as_a_value(env):
    inc = env.op("benchmark.increment").input_types(BYTE_ARRAY).inplace()
    data = bytearray([1])
    with pytest.raises(ExecutionError, match="the mutable argument must be passed as a Value"):
        inc(data)
    assert data == bytearray([1])


# -- conversion corners --------------------------------------------------------

CONVERSION_OPS = """
ops:
  - name: test.bump
    source: "test:bump/real"
    parameters:
      - {name: x, type: Real, io: mutable}
  - name: test.spoil
    source: "test:spoil/real"
    parameters:
      - {name: x, type: Real, io: mutable}
  - name: test.spoil_into
    source: "test:spoil_into/real"
    parameters:
      - {name: x, type: Real, io: input}
      - {name: out, type: Real, io: container}
  - name: test.add_into
    source: "test:add_into/bytes"
    parameters:
      - {name: k, type: Integer, io: input}
      - {name: data, type: ByteArray, io: mutable}
  - name: test.grow
    source: "test:grow/bytes"
    parameters:
      - {name: data, type: ByteArray, io: mutable}
  - name: test.zero
    source: "test:zero/bytes"
    parameters:
      - {name: data, type: ByteArray, io: mutable}
  - name: engine.copy
    source: "test:copy/integer"
    parameters:
      - {name: src, type: Integer, io: input}
      - {name: dst, type: Integer, io: container}
"""


def _add_into(k, data):
    for i in range(len(data)):
        data[i] = (data[i] + k) % 256
    return data


def _grow(data):
    data.append(0)
    return data


def _zero(data):
    data[:] = bytes(len(data))


def _conversion_env(tmp_path, copy_integer=lambda src: src, cache_enabled=True):
    path = tmp_path / "conversion-ops.yaml"
    path.write_text(CONVERSION_OPS)
    return default_environment(
        include_legacy=False,
        extra_paths=[path],
        extra_bindings={
            "test:bump/real": lambda x: x + 1.5,
            "test:spoil/real": lambda x: "oops",
            "test:spoil_into/real": lambda x: "oops",
            "test:add_into/bytes": _add_into,
            "test:grow/bytes": _grow,
            "test:zero/bytes": _zero,
            "test:copy/integer": copy_integer,
        },
        cache_enabled=cache_enabled,
    )


@pytest.fixture()
def conv_env(tmp_path):
    return _conversion_env(tmp_path)


def test_scalar_mutable_conversion_runs(conv_env):
    v = wrap(3)
    out = conv_env.op("test.bump").input(v).mutate()
    # 3 -> 3.0, + 1.5 = 4.5, rounded half away from zero -> 5
    assert out is v and v.payload == 5
    assert conv_env.history.lookup(v).signature == (
        "test:bump/real|CONVERTED|[conv0:in=builtin:convert/int_to_real,"
        "out=builtin:convert/real_to_int;copyback:test:copy/integer]|()"
    )


@pytest.mark.parametrize("cache_enabled", [True, False], ids=["cached", "uncached"])
def test_a_converted_inplace_plan_runs_its_copy_back_once_per_call(tmp_path, cache_enabled):
    # the copy body marks what it copies back, so the caller's payload shows
    # that it ran and the log how often
    copied = []

    def copy_integer(src):
        copied.append(src)
        return src + 100

    env = _conversion_env(tmp_path, copy_integer, cache_enabled)
    v = wrap(3)
    # 3 -> 3.0, + 1.5 -> 4.5, converted out to 5, copied back as 105
    assert env.op("test.bump").input(v).mutate() is v
    assert copied == [5] and v.payload == 105
    assert env.op("test.bump").input(v).mutate() is v
    assert copied == [5, 107] and v.payload == 207
    handle = env.op("test.bump").input_types("Integer").inplace()
    assert handle(v) is v
    assert copied == [5, 107, 209] and v.payload == 309


def test_an_inplace_byte_payload_keeps_its_edits_whatever_the_body_returns(conv_env):
    # a byte or array mutable changes in place: only a scalar takes the result
    data = wrap(bytearray(b"\x01\x02"))
    original = data.payload
    out = conv_env.op("test.zero").input(data).mutate()
    assert out is data and data.payload is original
    assert data.payload == bytearray(2)


def test_inplace_scalar_result_is_checked(conv_env):
    v = wrap(1.0)
    with pytest.raises(ExecutionError) as err:
        conv_env.op("test.spoil").input(v).mutate()
    assert "produced invalid output" in str(err.value)
    assert err.value.signature == "test:spoil/real|DIRECT|[]|()"
    assert v.payload == 1.0


def test_computer_scalar_result_is_checked(conv_env):
    container = wrap(2.0)
    with pytest.raises(ExecutionError) as err:
        conv_env.op("test.spoil_into").input(wrap(1.0)).container(container).compute()
    assert "produced invalid output" in str(err.value)
    assert err.value.signature == "test:spoil_into/real|DIRECT|[]|()"
    assert container.payload == 2.0


def test_converted_container_keeps_its_payload_object(env):
    img = image_f64(6, 5, [float(8 * i) for i in range(30)])
    container = wrap(np.zeros((5, 6), dtype=np.uint8))
    original = container.payload
    out = env.op("filter.gauss").input(img, wrap(1.0)).container(container).compute()
    assert out is container and container.payload is original
    blurred = env.op("filter.gauss").input(img, wrap(1.0)).apply()
    expected = env.op("engine.convert").input(blurred).output_type("ImageU8").apply()
    assert np.array_equal(container.payload, expected.payload)


def test_inplace_conversion_of_a_later_mutable_argument(conv_env):
    data = wrap(np.array([1.0, 2.0, 250.0]))
    original = data.payload
    out = conv_env.op("test.add_into").input(wrap(10), data).mutate(index=1)
    assert out is data and data.payload is original
    assert list(data.payload) == [11.0, 12.0, 4.0]
    assert conv_env.history.lookup(data).signature == (
        "test:add_into/bytes|CONVERTED|[conv1:in=builtin:convert/reals_to_bytes,"
        "out=builtin:convert/bytes_to_reals;copyback:builtin:copy/realarray]|()"
    )


def test_copy_back_of_the_wrong_shape_leaves_the_caller_unchanged(conv_env):
    data = wrap(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError) as err:
        conv_env.op("test.grow").input(data).mutate()
    assert err.value.signature.startswith("test:grow/bytes|CONVERTED|")
    assert list(data.payload) == [1.0, 2.0]


def test_execution_error_carries_plan_signature(env):
    img = wrap(np.zeros((4, 4)))
    with pytest.raises(ExecutionError) as err:
        env.op("filter.fft").input(img, wrap("forward")).apply()
    assert err.value.signature
    assert "filter/fft_stub" in err.value.signature


def test_function_handle_reuses_one_match(env):
    before = env.match_calls
    add = env.op("math.add").input_types("Integer", "Integer").function()
    matched = env.match_calls - before
    assert add(2, 3).payload == 5
    assert add(4, 5).payload == 9
    for _ in range(1000):
        add(1, 1)
    assert env.match_calls == before + matched


def test_handle_arity_checked(env):
    add = env.op("math.add").input_types("Integer", "Integer").function()
    with pytest.raises(ExecutionError):
        add(1)


def test_computer_handle(env):
    gauss = (
        env.op("filter.gauss")
        .input_types("ImageF64", "Real")
        .container_type("ImageF64")
        .computer()
    )
    img = _rand_image(5)
    out = wrap(np.zeros_like(img.payload))
    gauss(img, wrap(1.0), container=out)
    assert out.payload.any()


def test_inplace_handle(env):
    inc = env.op("benchmark.increment").input_types(BYTE_ARRAY).inplace()
    data = wrap(bytearray([9]))
    inc(data)
    assert data.payload[0] == 10


def test_handle_survives_builder_and_new_requests(env):
    add = env.op("math.add").input_types("Integer", "Integer").function()
    env.op("math.sub").input(9, 3).apply()
    assert add(2, 2).payload == 4


def test_kind_equivalence_for_increment(env):
    # one op reachable as inplace (direct), function and computer (adapted)
    data = bytearray([41, 7])
    env.op("benchmark.increment").input(wrap(data)).mutate()

    fn_result = env.op("benchmark.increment").input(wrap(bytearray([41, 7]))).apply()

    container = wrap(bytearray(2))
    env.op("benchmark.increment").input(wrap(bytearray([41, 7]))).container(
        container
    ).compute()

    assert list(data) == list(fn_result.payload) == list(container.payload) == [42, 7]


def test_history_records_dog_tree(env):
    img = _rand_image(6, 8, 8)
    out = env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply()
    rec = env.history.lookup(out)
    assert rec is not None
    assert "filter/dog" in rec.signature
    assert rec.signature.count("filter/gauss") == 2


def test_history_none_for_unproduced_value(env):
    assert env.history.lookup(wrap(5)) is None


def test_history_counts_both_fills_of_a_container(env):
    src = wrap(bytearray([1]))
    dst = wrap(bytearray(1))
    before = len(env.history)
    env.op("copy.array").input(src).container(dst).compute()
    first = env.history.lookup(dst)
    env.op("copy.array").input(wrap(bytearray([2]))).container(dst).compute()
    second = env.history.lookup(dst)
    assert second.uid == first.uid == dst.uid
    assert (first.seq, second.seq) == (before, before + 1)
    assert second.signature is first.signature
    assert len(env.history) == before + 2


def test_progress_monotone_one_report_per_row():
    env = default_environment(include_legacy=False)
    seen = []
    env.add_progress_listener(lambda report: seen.append(report))
    img = _rand_image(7, 5, 9)
    env.op("filter.gauss").input(img, wrap(1.0)).apply()
    fractions = [r.fraction for r in seen]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert len(fractions) == 9


def test_progress_listener_sees_op_label():
    env = default_environment(include_legacy=False)
    labels = set()
    env.add_progress_listener(lambda report: labels.add(report.op_label))
    env.op("filter.gauss").input(_rand_image(8, 4, 4), wrap(0.8)).apply()
    assert "filter.gauss" in labels


def test_nested_op_reports_under_its_own_label():
    env = default_environment(include_legacy=False)
    seen = []
    env.add_progress_listener(seen.append)
    env.op("filter.dog").input(_rand_image(8, 4, 6), wrap(1.0), wrap(2.0)).apply()
    # dog reports nothing itself; each of its two gauss children reports rows
    assert [r.op_label for r in seen] == ["filter.gauss"] * 12


def test_progress_and_pool_outside_any_op_are_defaults():
    env = default_environment(include_legacy=False, pool=ComputePool(3))
    seen = []
    env.add_progress_listener(seen.append)
    env.op("math.add").input(2, 3).apply()
    report_progress(0.5)
    assert seen == []
    assert current_pool() is not env.pool and current_pool().budget == 1


def test_gauss_runs_in_its_own_frame_on_every_path():
    # The frame sits at the plan boundary (runner or compile_tree), outside
    # any adapter or conversion; a body sees the same label and pool on
    # every path that runs it.
    pool = ComputePool(3)
    pools = []

    def probe(image, sigma):
        pools.append(current_pool())
        report_progress(1.0)
        return image.copy()

    env = default_environment(
        include_legacy=False, pool=pool, extra_bindings={"builtin:filter/gauss": probe}
    )
    reports = []
    env.add_progress_listener(reports.append)
    img = _rand_image(9, 6, 4)
    u8 = image_u8(6, 4, range(24))
    gauss_plan = env.match(computer_request("filter.gauss", ["ImageF64", "Real"], "ImageF64"))
    paths = {
        "DIRECT compute": lambda: env.op("filter.gauss")
        .input(img, wrap(1.0))
        .container(wrap(np.zeros((4, 6))))
        .compute(),
        "ADAPTED apply": lambda: env.op("filter.gauss").input(img, wrap(1.0)).apply(),
        "CONVERTED u8 compute": lambda: env.op("filter.gauss")
        .input(u8, wrap(1.0))
        .container(image_u8(6, 4, [0] * 24))
        .compute(),
        "handle": lambda: env.op("filter.gauss")
        .input_types("ImageF64", "Real")
        .container_type("ImageF64")
        .computer()(img, wrap(1.0), container=wrap(np.zeros((4, 6)))),
        "compile_tree": lambda: compile_tree(env, gauss_plan)(img.payload, 1.0),
        "filter.dog children": lambda: env.op("filter.dog")
        .input(img, wrap(1.0), wrap(2.0))
        .apply(),
    }
    for path, call in paths.items():
        runs = 2 if path == "filter.dog children" else 1
        for _ in range(2):  # the second call runs the cached runner
            del pools[:], reports[:]
            call()
            assert [(r.op_label, r.fraction) for r in reports] == [
                ("filter.gauss", 1.0)
            ] * runs, path
            assert len(pools) == runs and all(p is pool for p in pools), path


def test_pool_budget_bounds_parallelism():
    pool = ComputePool(budget=3)
    env = default_environment(include_legacy=False, pool=pool)
    env.op("filter.gauss").input(_rand_image(9, 32, 32), wrap(2.0)).apply()
    assert pool.peak_slots <= 3


def test_determinism_across_pool_budgets():
    img_data = np.random.default_rng(10).random((24, 24))
    outs = []
    for budget in (1, 4):
        env = default_environment(include_legacy=False, pool=ComputePool(budget))
        img = wrap(img_data.copy())
        out = env.op("filter.gauss").input(img, wrap(1.7)).apply()
        outs.append(out.payload)
    assert np.array_equal(outs[0], outs[1])


def _shifted_sum_blur(image, sigma):
    # both passes as whole-array shifted sums over an edge-padded copy, in
    # kernel order: the arithmetic gaussian_blur must reproduce bit for bit
    kernel = bodies.gaussian_kernel(sigma)
    r = len(kernel) // 2
    h, w = image.shape
    p = np.pad(image, ((0, 0), (r, r)), mode="edge")
    rows = kernel[0] * p[:, :w]
    for d in range(1, len(kernel)):
        rows = rows + kernel[d] * p[:, d : d + w]
    q = np.pad(rows, ((r, r), (0, 0)), mode="edge")
    out = kernel[0] * q[:h]
    for d in range(1, len(kernel)):
        out = out + kernel[d] * q[d : d + h]
    return out


def test_gauss_above_band_threshold_splits_rows_bitwise_equal():
    # the smallest square image whose row pass fills two bands
    side = math.isqrt(2 * bodies.BAND_PIXELS - 1) + 1
    data = np.random.default_rng(12).random((side, side))
    expected = _shifted_sum_blur(data, 1.0).tobytes()
    for budget, peak in ((1, 1), (2, 2), (4, 2)):
        pool = ComputePool(budget)
        env = default_environment(include_legacy=False, pool=pool)
        fractions = []
        env.add_progress_listener(lambda report: fractions.append(report.fraction))
        out = env.op("filter.gauss").input(wrap(data.copy()), wrap(1.0)).apply()
        assert out.payload.tobytes() == expected, budget
        assert pool.peak_slots == peak, budget
        assert len(fractions) == side
        assert all(x < y for x, y in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0


def test_gauss_scratch_reuse_across_shapes_and_sigmas_bitwise_equal():
    # r > w at 32x32 with sigma 11; each shape follows a larger or smaller one
    rng = np.random.default_rng(13)
    cases = [((128, 128), 2.0), ((7, 300), 1.3), ((1, 1), 0.7), ((32, 32), 11.0),
             ((128, 128), 3.0), ((300, 7), 0.5), ((32, 32), 1.0)]
    images = {shape: rng.uniform(0.0, 255.0, shape) for shape, _ in cases}
    for shape, sigma in cases + cases[::-1]:
        out = bodies.gaussian_blur(images[shape], sigma)
        assert out.tobytes() == _shifted_sum_blur(images[shape], sigma).tobytes(), (shape, sigma)


def test_gauss_in_a_progress_listener_leaves_the_outer_result_intact():
    env = default_environment(include_legacy=False)
    rng = np.random.default_rng(14)
    outer, inner = rng.random((40, 24)), rng.random((24, 40))
    nested = []

    def listener(report):
        # one nested blur, at the outer one's first report; the nested
        # blur's own reports come back here and must not start another
        if not nested:
            nested.append(None)
            nested[0] = env.op("filter.gauss").input(wrap(inner), wrap(2.5)).apply().payload

    env.add_progress_listener(listener)
    out = env.op("filter.gauss").input(wrap(outer), wrap(1.5)).apply().payload
    assert out.tobytes() == _shifted_sum_blur(outer, 1.5).tobytes()
    assert nested[0].tobytes() == _shifted_sum_blur(inner, 2.5).tobytes()


def test_gauss_on_eight_threads_at_once_bitwise_equal():
    rng = np.random.default_rng(15)
    jobs = [(rng.random((20 + 9 * i, 60 - 5 * i)), 0.8 + 0.4 * i) for i in range(8)]
    expected = [_shifted_sum_blur(img, sigma).tobytes() for img, sigma in jobs]
    start = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def run(i):
        img, sigma = jobs[i]
        start.wait()
        got[i] = [bodies.gaussian_blur(img, sigma).tobytes() for _ in range(20)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, outs in enumerate(got):
        assert outs == [expected[i]] * 20, i


def test_gauss_above_the_scratch_cap_keeps_at_most_the_cap():
    img = np.random.default_rng(16).random((300, 640))
    wide = 640 + 2 * math.ceil(3 * 2.0)
    assert 3 * 300 * wide > bodies.SCRATCH_CAP

    small = np.ones((128, 128))
    got = {}

    def run():
        # a fresh thread, so the scratch it keeps is this test's alone
        bodies.gaussian_blur(small, 2.0)
        got["large"] = bodies.gaussian_blur(img, 2.0)
        got["small"] = bodies.gaussian_blur(small, 2.0)
        got["kept"] = len(bodies._SCRATCH.buf)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert got["large"].tobytes() == _shifted_sum_blur(img, 2.0).tobytes()
    assert got["small"].tobytes() == _shifted_sum_blur(small, 2.0).tobytes()
    assert 0 < got["kept"] <= bodies.SCRATCH_CAP


def _batched(shape, sigma):
    # (row pass, column pass): whether each runs as one block of k*n terms
    k = len(bodies.gaussian_kernel(sigma))
    r = k // 2
    h, w = shape
    return tuple(bodies._terms(k, n) > n for n in (h * (w + 2 * r) - 2 * r, h * w))


@pytest.mark.parametrize("sigma", [0.8, 1.6, 3.2, 11.0])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 40), (40, 1), (8, 8)])
def test_gauss_batched_passes_bitwise_equal(shape, sigma):
    # k >= 9 from sigma 1.3 up, where numpy's pairwise order would show; a
    # pairwise sum of one pixel's taps differs in the last bit for about
    # half of all pixel values, so each case blurs several images
    if shape == (1, 1):
        assert _batched(shape, sigma) == (False, False)
    elif shape == (8, 8):
        assert _batched(shape, sigma) == (True, True)
    rng = np.random.default_rng(18)
    for _ in range(8):
        img = rng.uniform(0.0, 255.0, shape)
        out = bodies.gaussian_blur(img, sigma)
        assert out.tobytes() == _shifted_sum_blur(img, sigma).tobytes()


def test_gauss_just_under_and_over_the_taps_block_bitwise_equal():
    # the largest square whose row pass is batched, and the next one up,
    # whose row pass runs per tap while its column pass is still batched
    side = max(s for s in range(2, 200) if _batched((s, s), 2.0)[0])
    assert _batched((side, side), 2.0) == (True, True)
    assert _batched((side + 1, side + 1), 2.0) == (False, True)
    rng = np.random.default_rng(19)
    for s in (side, side + 1, side):
        img = rng.uniform(0.0, 255.0, (s, s))
        assert bodies.gaussian_blur(img, 2.0).tobytes() == _shifted_sum_blur(img, 2.0).tobytes(), s


def test_gauss_batched_then_per_tap_keeps_at_most_the_cap():
    assert _batched((64, 64), 2.0) == (True, True)
    assert _batched((128, 128), 2.0) == (False, False)
    rng = np.random.default_rng(20)
    small, large = rng.random((64, 64)), rng.random((128, 128))
    got = {}

    def run():
        # a fresh thread, so the scratch it keeps is this test's alone
        got["small"] = bodies.gaussian_blur(small, 2.0)
        got["large"] = bodies.gaussian_blur(large, 2.0)
        got["kept"] = len(bodies._SCRATCH.buf)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert got["small"].tobytes() == _shifted_sum_blur(small, 2.0).tobytes()
    assert got["large"].tobytes() == _shifted_sum_blur(large, 2.0).tobytes()
    assert 0 < got["kept"] <= bodies.SCRATCH_CAP


def test_gauss_batched_blur_once_warm_allocates_only_its_result():
    # a terms block that overlapped the padded copy or the row sums would
    # still give the right output, since numpy copies an overlapping operand
    # first; that copy is what this catches
    tracemalloc = pytest.importorskip("tracemalloc")
    img = np.random.default_rng(21).random((64, 64))
    for sigma, k, n in ((2.0, 13, 4852), (3.0, 19, 5230)):  # n: the row pass's sums
        assert _batched((64, 64), sigma) == (True, True)
        got = {}

        def run():
            bodies.gaussian_blur(img, sigma)
            tracemalloc.start()
            try:
                got["out"] = bodies.gaussian_blur(img, sigma)
                got["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert got["out"].tobytes() == _shifted_sum_blur(img, sigma).tobytes()
        # less than half the row pass's k * n float64s of terms
        assert got["peak"] - got["out"].nbytes < k * n * 8 // 2, sigma


def _tiny(shape, sigma):
    # whether gaussian_blur gathers both passes' taps (bodies._tiny_blur)
    return bodies._is_tiny(len(bodies.gaussian_kernel(sigma)), *shape)


# the last square at sigma 1 (k = 7) and line at sigma 2 (k = 13) on the
# tiny path, where TINY_PIXELS binds, and the last square at sigma 3
# (k = 19) and line at sigma 11 (k = 67), where TINY_TERMS does; one pixel
# more, or one row and column more for a square, takes the padded path
_SQUARE = math.isqrt(bodies.TINY_PIXELS)
_LINE = bodies.TINY_PIXELS
_TERMS_SQUARE = math.isqrt(bodies.TINY_TERMS // 19)
_TERMS_LINE = bodies.TINY_TERMS // 67


@pytest.mark.parametrize("shape, sigma, tiny", [
    ((1, 2), 0.8, True), ((2, 1), 0.8, True), ((1, 2), 3.2, True), ((2, 1), 3.2, True),
    ((8, 8), 0.8, True), ((8, 8), 1.2, True), ((8, 8), 1.6, True), ((8, 8), 2.4, True),
    ((8, 8), 3.2, True), ((1, 40), 2.0, True), ((40, 1), 2.0, True), ((40, 1), 3.2, True),
    ((7, 7), 11.0, True), ((3, 5), 0.2, True), ((1, 1), 11.0, False),
    ((_SQUARE, _SQUARE), 1.0, True), ((_SQUARE + 1, _SQUARE + 1), 1.0, False),
    ((_LINE, 1), 2.0, True), ((_LINE + 1, 1), 2.0, False),
    ((1, _LINE), 2.0, True), ((1, _LINE + 1), 2.0, False),
    ((_TERMS_SQUARE, _TERMS_SQUARE), 3.0, True), ((_TERMS_SQUARE + 1, _TERMS_SQUARE + 1), 3.0, False),
    ((_TERMS_LINE, 1), 11.0, True), ((_TERMS_LINE + 1, 1), 11.0, False),
])
def test_gauss_tiny_path_bitwise_equal(shape, sigma, tiny):
    # r > w at 7x7 with sigma 11; k >= 9 from sigma 1.3 up, where a pairwise
    # sum of a pixel's taps would show (an (h, k, w) block did at 40x1);
    # each case blurs several images, as in the batched test above
    assert _tiny(shape, sigma) == tiny
    rng = np.random.default_rng(22)
    for _ in range(8):
        img = rng.uniform(0.0, 255.0, shape)
        assert bodies.gaussian_blur(img, sigma).tobytes() == _shifted_sum_blur(img, sigma).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
def test_tiny_gauss_of_a_non_float64_image_blurs_its_float64_values(dtype):
    # as the padded paths do by copying the image into float64 scratch
    img = np.random.default_rng(28).integers(0, 256, (8, 8)).astype(dtype)
    assert _tiny(img.shape, 1.6)
    expected = _shifted_sum_blur(img.astype(np.float64), 1.6)
    assert bodies.gaussian_blur(img, 1.6).tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma", [1.6, 3.2])
@pytest.mark.parametrize("side", [math.isqrt(bodies.BUFFERED_SUMS) + 1, 64])
def test_gauss_batched_passes_past_the_tiny_path_bitwise_equal(side, sigma):
    # past the tiny path a pass of more than 2^10 and at most BUFFERED_SUMS
    # sums runs per tap; the first square whose passes both have more sums,
    # and imaging's 64x64, batch both
    assert not _tiny((side, side), sigma)
    assert _batched((side, side), sigma) == (True, True)
    rng = np.random.default_rng(23)
    for _ in range(4):
        img = rng.uniform(0.0, 255.0, (side, side))
        assert bodies.gaussian_blur(img, sigma).tobytes() == _shifted_sum_blur(img, sigma).tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (40, 1), (1, 40)])
def test_tiny_gauss_reports_one_step_per_row_ending_at_one(shape):
    assert _tiny(shape, 1.2)
    env = default_environment(include_legacy=False)
    reports = []
    env.add_progress_listener(lambda report: reports.append((report.op_label, report.fraction)))
    env.op("filter.gauss").input(wrap(np.ones(shape)), wrap(1.2)).apply()
    h = shape[0]
    assert reports == [("filter.gauss", i / h) for i in range(1, h + 1)]
    assert reports[-1][1] == 1.0


@pytest.mark.parametrize("side", [8, 64])
def test_one_band_gauss_maps_its_row_pass_through_the_pool_once(side):
    # every path runs its row pass through the environment's pool, so a
    # traced run of any blur times a pool map
    assert _tiny((side, side), 1.0) == (side == 8)
    pool = ComputePool(2)
    counts = []
    map_indexed = pool.map_indexed

    def counting(fn, count):
        counts.append(count)
        return map_indexed(fn, count)

    pool.map_indexed = counting
    env = default_environment(include_legacy=False, pool=pool)
    img = np.random.default_rng(24).random((side, side))
    out = env.op("filter.gauss").input(wrap(img), wrap(1.0)).apply()
    assert counts == [1]
    assert out.payload.tobytes() == _shifted_sum_blur(img, 1.0).tobytes()


def test_tiny_and_padded_blurs_interleaved_on_one_thread_bitwise_equal():
    # a tiny blur touches no scratch; each padded blur here follows a tiny
    # one, and each tiny one follows a padded one
    rng = np.random.default_rng(25)
    cases = [((8, 8), 3.2), ((128, 128), 2.0), ((7, 7), 11.0), ((48, 48), 1.0),
             ((40, 1), 2.0), ((300, 7), 0.5), ((1, 40), 1.6), ((64, 64), 3.2)]
    assert [_tiny(shape, sigma) for shape, sigma in cases] == [True, False] * 4
    images = {shape: rng.uniform(0.0, 255.0, shape) for shape, _ in cases}
    for shape, sigma in cases + cases[::-1]:
        out = bodies.gaussian_blur(images[shape], sigma)
        assert out.tobytes() == _shifted_sum_blur(images[shape], sigma).tobytes(), (shape, sigma)


def test_tiny_and_padded_gauss_on_eight_threads_at_once_bitwise_equal():
    # each thread alternates a tiny blur and a padded one
    rng = np.random.default_rng(26)
    tiny = [((8, 8), 0.8), ((7, 7), 11.0), ((40, 1), 2.0), ((1, 40), 3.2),
            ((16, 16), 2.0), ((8, 8), 1.6), ((3, 5), 1.2), ((24, 24), 1.0)]
    padded = [((40 + 9 * i, 60 - 5 * i), 0.8 + 0.4 * i) for i in range(8)]
    assert all(_tiny(*case) for case in tiny) and not any(_tiny(*case) for case in padded)
    jobs = [[(rng.random(shape), sigma) for shape, sigma in pair] for pair in zip(tiny, padded)]
    expected = [[_shifted_sum_blur(img, sigma).tobytes() for img, sigma in pair] * 10 for pair in jobs]
    start = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def run(i):
        start.wait()
        got[i] = [bodies.gaussian_blur(img, sigma).tobytes() for _ in range(10) for img, sigma in jobs[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, outs in enumerate(got):
        assert outs == expected[i], i


@pytest.mark.parametrize("shape, sigma", [((16, 16), 2.0), ((_LINE, 1), 2.0), ((32, 32), 3.0)])
def test_tiny_gauss_once_warm_allocates_its_result_and_one_block(shape, sigma):
    # a second block (a buffered broadcast multiply, a copied index block)
    # would show, and so would a padded copy, which at _LINE x 1 is as large
    # as the block; 4 KiB is for array headers and numpy's iterators
    # (~2.7 KiB on numpy 2.4)
    tracemalloc = pytest.importorskip("tracemalloc")
    assert _tiny(shape, sigma)
    img = np.random.default_rng(27).random(shape)
    got = {}

    def run():
        # a fresh thread, so any scratch it holds is this call's
        bodies.gaussian_blur(img, sigma)
        tracemalloc.start()
        try:
            got["out"] = bodies.gaussian_blur(img, sigma)
            got["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got["scratch"] = getattr(bodies._SCRATCH, "buf", None)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert got["out"].tobytes() == _shifted_sum_blur(img, sigma).tobytes()
    block = len(bodies.gaussian_kernel(sigma)) * img.size * 8
    assert got["peak"] - got["out"].nbytes - block < 4096
    assert got["scratch"] is None


def test_tiny_taps_cache_keeps_at_most_6_mib():
    # an entry is two int64 index blocks and one float64 weight block of
    # k * h * w terms each; 32x32 at sigma 5 (k = 31) is among the largest
    # the tiny rule admits, and sigma 5.2 (k = 33) takes the padded path
    assert _tiny((32, 32), 5.0) and not _tiny((32, 32), 5.2)
    assert sum(block.nbytes for block in bodies._tiny_taps(5.0, 32, 32)) == 24 * 31 * 32 * 32
    largest = 24 * bodies.TINY_TERMS
    assert bodies._tiny_taps.cache_info().maxsize * largest <= 6 << 20


def _path(shape, sigma):
    if _tiny(shape, sigma):
        return "tiny"
    return {(True, True): "batched", (False, False): "per-tap"}.get(_batched(shape, sigma), "mixed")


# perfbench's traffic: imaging blurs 32x32, 64x64 and 128x128 at sigma 1,
# 1.5, 2 and 3; match_cold blurs 8x8 at sigma 0.8 to 3.2
@pytest.mark.parametrize("shape, sigma, path", [
    *[((32, 32), s, "tiny") for s in (1.0, 1.5, 2.0, 3.0)],
    *[((64, 64), s, "batched") for s in (1.0, 1.5, 2.0, 3.0)],
    *[((128, 128), s, "per-tap") for s in (1.0, 1.5, 2.0, 3.0)],
    *[((8, 8), s, "tiny") for s in (0.8, 1.2, 1.6, 2.4, 3.2)],
])
def test_gauss_traffic_cells_take_their_path_bitwise_equal(shape, sigma, path):
    assert _path(shape, sigma) == path
    rng = np.random.default_rng(29)
    for _ in range(4):
        img = rng.uniform(0.0, 255.0, shape)
        assert bodies.gaussian_blur(img, sigma).tobytes() == _shifted_sum_blur(img, sigma).tobytes()


# one-row images, whose two passes both have w sums: each bound of the
# batched rule, on each side; none of these images is tiny
@pytest.mark.parametrize("w, sigma, path", [
    (bodies.BUFFERED_BATCH_SUMS, 11.0, "batched"), (bodies.BUFFERED_BATCH_SUMS + 1, 11.0, "per-tap"),
    (bodies.BUFFERED_SUMS, 2.0, "per-tap"), (bodies.BUFFERED_SUMS + 1, 2.0, "batched"),
    (bodies.TAPS_BLOCK // 67, 11.0, "batched"), (bodies.TAPS_BLOCK // 67 + 1, 11.0, "per-tap"),
    (bodies.BATCH_SUMS, 0.5, "batched"), (bodies.BATCH_SUMS + 1, 0.5, "per-tap"),
])
def test_gauss_batched_pass_bounds_bitwise_equal(w, sigma, path):
    assert _path((1, w), sigma) == path
    rng = np.random.default_rng(30)
    for _ in range(4):
        img = rng.uniform(0.0, 255.0, (1, w))
        assert bodies.gaussian_blur(img, sigma).tobytes() == _shifted_sum_blur(img, sigma).tobytes()


# A fresh process, since how often freed pages go back to the kernel depends
# on what the process allocated and freed before.
_FAULTS_AT_128 = """
import resource
import numpy as np
from opsforge.stdlib import bodies
img = np.random.default_rng(17).uniform(0.0, 255.0, (128, 128))
for _ in range(3):
    bodies.gaussian_blur(img, 2.0)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(20):
    bodies.gaussian_blur(img, 2.0)
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
"""


def test_gauss_at_128_makes_no_page_faults_once_warm():
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("no per-thread rusage on this platform")
    src = os.path.dirname(os.path.dirname(opsforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FAULTS_AT_128], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 20


def test_repeat_runs_bitwise_equal(env):
    img = _rand_image(11)
    a = env.op("filter.dog").input(img, wrap(0.9), wrap(1.8)).apply()
    b = env.op("filter.dog").input(img, wrap(0.9), wrap(1.8)).apply()
    assert a.payload.tobytes() == b.payload.tobytes()


def test_help_namespace_lists_names(env):
    text = env.help("math")
    assert "math.add" in text
    assert "math.sub" in text
    assert "math.mul" in text
    # with no query, every name, one to a line
    assert env.help().splitlines() == env.distinct_names()


def test_help_full_name_uses_simple_type_words(env):
    text = env.help("filter.gauss")
    assert "image" in text
    assert "ImageF64" not in text
    # a function's output follows the arrow, not the inputs
    assert "math.add(a: integer, b: integer) -> integer" in env.help("math.add").splitlines()


def test_help_marks_the_mutable_parameter_and_names_a_computers_container(env):
    assert "benchmark.increment(data: array*) [inplace]" in env.help("benchmark.increment").splitlines()
    assert (
        "filter.gauss(input: image, sigma: number, output: image) [computer -> output]"
        in env.help("filter.gauss").splitlines()
    )


def test_help_verbose_adds_detail(env):
    text = env.help("math.add", verbose=True)
    assert "builtin:math/add_ints" in text
    assert "priority" in text
    dog = env.help("filter.dog", verbose=True).splitlines()
    assert "  Difference of Gaussians, composed entirely from dependencies." in dog
    assert [line for line in dog if line.startswith("  dependency ")] == [
        "  dependency gauss1 -> filter.gauss [computer]",
        "  dependency gauss2 -> filter.gauss [computer]",
        "  dependency sub -> math.sub [computer]",
    ]


def test_help_unknown_with_suggestion(env):
    text = env.help("math.ad")
    assert "No ops found matching" in text
    assert "math.add" in text


def test_help_unknown_no_suggestions(env):
    text = env.help("zzz")
    assert "No ops found matching" in text
    assert "did you mean" not in text.lower() or "zzz" in text
