"""Builder terminals, handles, history, progress, and the compute pool."""

import math

import numpy as np
import pytest

from opsforge.errors import (
    DimensionMismatchError,
    ExecutionError,
    NoMatchError,
    PreconditionError,
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
  - name: test.add_into
    source: "test:add_into/bytes"
    parameters:
      - {name: k, type: Integer, io: input}
      - {name: data, type: ByteArray, io: mutable}
  - name: test.grow
    source: "test:grow/bytes"
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


@pytest.fixture()
def conv_env(tmp_path):
    path = tmp_path / "conversion-ops.yaml"
    path.write_text(CONVERSION_OPS)
    return default_environment(
        include_legacy=False,
        extra_paths=[path],
        extra_bindings={
            "test:bump/real": lambda x: x + 1.5,
            "test:spoil/real": lambda x: "oops",
            "test:add_into/bytes": _add_into,
            "test:grow/bytes": _grow,
            "test:copy/integer": lambda src: src,
        },
    )


def test_scalar_mutable_conversion_runs(conv_env):
    v = wrap(3)
    out = conv_env.op("test.bump").input(v).mutate()
    # 3 -> 3.0, + 1.5 = 4.5, rounded half away from zero -> 5
    assert out is v and v.payload == 5
    assert conv_env.history.lookup(v).signature == (
        "test:bump/real|CONVERTED|[conv0:in=builtin:convert/int_to_real,"
        "out=builtin:convert/real_to_int;copyback:test:copy/integer]|()"
    )


def test_inplace_scalar_result_is_checked(conv_env):
    v = wrap(1.0)
    with pytest.raises(ExecutionError) as err:
        conv_env.op("test.spoil").input(v).mutate()
    assert "produced invalid output" in str(err.value)
    assert err.value.signature == "test:spoil/real|DIRECT|[]|()"
    assert v.payload == 1.0


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


def test_history_keeps_append_only_log(env):
    src = wrap(bytearray([1]))
    dst = wrap(bytearray(1))
    env.op("copy.array").input(src).container(dst).compute()
    first = env.history.lookup(dst)
    env.op("copy.array").input(wrap(bytearray([2]))).container(dst).compute()
    second = env.history.lookup(dst)
    assert second.at >= first.at
    records = [r for r in env.history.snapshot() if r.uid == dst.uid]
    assert len(records) == 2


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


def test_help_full_name_uses_simple_type_words(env):
    text = env.help("filter.gauss")
    assert "image" in text
    assert "ImageF64" not in text


def test_help_verbose_adds_detail(env):
    text = env.help("math.add", verbose=True)
    assert "builtin:math/add_ints" in text
    assert "priority" in text


def test_help_unknown_with_suggestion(env):
    text = env.help("math.ad")
    assert "No ops found matching" in text
    assert "math.add" in text


def test_help_unknown_no_suggestions(env):
    text = env.help("zzz")
    assert "No ops found matching" in text
    assert "did you mean" not in text.lower() or "zzz" in text
