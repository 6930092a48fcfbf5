"""The three seeded workloads, their operation streams and their checks.

Everything a run feeds opsforge is generated here from the seed before any
timing starts: payload pools, the operation stream and, for match_cold, the
synthetic descriptor file. An operation is a (kind, index) pair: ``kind``
picks an ``Op`` (what to call and how), ``index`` picks its payload.

- dispatch_hot: bodies below 1 us on a cached environment, so each call is
  almost all dispatch (request, cache lookup, compile hit, frame, result
  wrap, history). Predicts what dispatch-path changes move.
- match_cold: a cache-off environment with a 10x synthetic registry; every
  operation matches, compiles and runs from scratch, as ``ops run`` does.
  Predicts what matcher and registry changes move.
- imaging: handles matched once, then 32^2 to 128^2 image filters, so
  dispatch is under 1% of a call. Predicts what numeric changes move; the
  other two predict no change for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from opsforge import NoMatchError, Value, parse_type
from opsforge.registry import Kind
from opsforge.runtime import ComputePool
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_environment,
    legacy_descriptors_path,
)
from opsforge.values import BYTE_ARRAY, IMAGE_F64, IMAGE_U8, REAL, REAL_ARRAY

import reference as ref
from synth import INT_REFS, REAL_REFS, SynthRegistry

OUT_DIR = Path(__file__).resolve().parent / "out"

# The timed stream is cut into CHUNKS chunks of equal work; per-chunk
# throughput is reported so a reader can see how steady the host was.
CHUNKS = 24


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Op:
    """One kind of operation in a stream.

    ``via`` is how the caller reaches opsforge: a builder terminal, a handle
    prebuilt on the environment, a handle built and called once (``fresh``,
    the ``ops run`` path), or a history lookup of the previous result.
    """

    label: str
    name: str
    kind: Kind
    types: tuple
    via: str
    args: Callable[[int], tuple]
    check: Callable[[int, Any], bool]
    out: Any = None
    container: Callable[[int], Value] | None = None
    ctype: Any = None
    mutable: int | None = None
    names: list | None = None  # per-index op names (synthetic ops)
    signature: str | None = None  # plan a prebuilt handle must hold
    progress: Callable[[int], int] | None = None  # progress reports per call

    def name_at(self, j: int) -> str:
        return self.names[j] if self.names is not None else self.name


def _types(*texts):
    return tuple(parse_type(t) for t in texts)


def make_handle(env, op: Op, j: int = 0):
    b = env.op(op.name_at(j)).input_types(*op.types)
    if op.kind is Kind.FUNCTION:
        if op.out is not None:
            b.output_type(op.out)
        return b.function()
    if op.kind is Kind.COMPUTER:
        return b.container_type(op.ctype).computer()
    return b.inplace(op.mutable)


def make_call(env, op: Op, handle=None):
    """The untraced call for one op kind: (index, previous result) -> result."""
    name, args, cont = op.name, op.args, op.container
    if op.via == "lookup":
        history = env.history
        return lambda j, prev: history.lookup(prev)
    if op.via == "builder":
        if op.kind is Kind.FUNCTION:
            if op.out is None:
                return lambda j, prev: env.op(name).input(*args(j)).apply()
            out = op.out
            return lambda j, prev: env.op(name).input(*args(j)).output_type(out).apply()
        if op.kind is Kind.COMPUTER:
            return lambda j, prev: env.op(name).input(*args(j)).container(cont(j)).compute()
        mi = op.mutable
        return lambda j, prev: env.op(name).input(*args(j)).mutate(mi)
    if op.via == "handle":
        h = handle if handle is not None else make_handle(env, op)
        if op.kind is Kind.COMPUTER:
            return lambda j, prev: h(*args(j), container=cont(j))
        return lambda j, prev: h(*args(j))

    def fresh(j, prev):
        try:
            h = make_handle(env, op, j)
        except NoMatchError as exc:
            return exc
        if op.kind is Kind.COMPUTER:
            return h.tree, h(*args(j), container=cont(j))
        return h.tree, h(*args(j))

    return fresh


class Workload:
    name = ""
    rate = 1  # operations issued per second of --seconds
    cache_enabled = True
    pool_budget: int | None = None
    handles_in_setup = False

    ROUND: int | None = None  # operations per environment; None: one for the run

    def __init__(self, seed: int, seconds: float, overrides: dict | None = None):
        self.seed = seed
        self.seconds = seconds
        self.extra_bindings: dict = dict(overrides or {})
        self.ops: list[Op] = []
        self.kinds: list[int] = []
        self.idxs: list[int] = []
        self.n_warmup = self.n_timed = 0
        self.chunks: list[tuple[int, int]] = []
        self.fresh_env: set[int] = set()  # chunks that start on a new environment

    # -- environment -------------------------------------------------------

    def write_inputs(self):
        """Write generated input files before set-up; only match_cold has any."""

    def remove_inputs(self):
        pass

    def descriptor_paths(self) -> list[Path]:
        return [builtin_descriptors_path(), legacy_descriptors_path()]

    def bindings(self) -> dict:
        return {**BINDINGS, **self.extra_bindings}

    def make_pool(self, cls=ComputePool):
        return cls(self.pool_budget or 1)

    def environment(self, pool=None, cache_enabled=None):
        """The untraced set-up: what a user of this workload builds."""
        return default_environment(
            cache_enabled=self.cache_enabled if cache_enabled is None else cache_enabled,
            pool=pool if pool is not None else self.make_pool(),
            extra_paths=self.descriptor_paths()[2:],
            extra_bindings=self.extra_bindings,
        )

    def setup(self):
        env = self.environment()
        if self.handles_in_setup:
            for op in self.ops:
                if op.via == "handle":
                    make_handle(env, op)
        return env

    def bind(self, env):
        """Calls and checks per kind; prebuilt handles must hold their plan."""
        calls, checks, plan_failures = [], [], 0
        for op in self.ops:
            handle = make_handle(env, op) if op.via == "handle" else None
            if handle is not None and op.signature is not None and handle.signature != op.signature:
                plan_failures += 1
            calls.append(make_call(env, op, handle))
            checks.append(op.check)
        return calls, checks, plan_failures

    def _stream(self, rng, blocks) -> None:
        """Lay out warm-up and timed operations as whole blocks.

        ``blocks(rng, n)`` returns (kinds, indexes) arrays of shape (n, block
        length). Every block holds the same operations in its own seeded
        order, so every timed chunk (a run of whole blocks) does equal work.
        """
        probe_kinds, _ = blocks(rng, 1)
        length = probe_kinds.shape[1]
        per_chunk = max(1, round(self.rate * self.seconds / length / CHUNKS))
        n_warm = max(1, per_chunk * CHUNKS // 20)
        kinds, idxs = blocks(rng, n_warm + per_chunk * CHUNKS)
        self.kinds, self.idxs = kinds.ravel().tolist(), idxs.ravel().tolist()
        self.n_warmup, self.n_timed = n_warm * length, per_chunk * CHUNKS * length
        size = per_chunk * length
        self.chunks = [(self.n_warmup + c * size, self.n_warmup + (c + 1) * size)
                       for c in range(CHUNKS)]
        if self.ROUND is not None:
            per_round = max(1, self.ROUND // size)
            self.fresh_env = set(range(per_round, CHUNKS, per_round))

    def _blocks(self, n_payloads: int):
        """Blocks holding every op kind once, in seeded order."""
        base = np.arange(len(self.ops))

        def blocks(rng, n):
            kinds = rng.permuted(np.tile(base, (n, 1)), axis=1)
            return kinds, rng.integers(0, n_payloads, size=kinds.shape)

        return blocks


# ---------------------------------------------------------------------------
# dispatch_hot
# ---------------------------------------------------------------------------


class DispatchHot(Workload):
    name = "dispatch_hot"
    rate = 70_000
    # History keeps one record per call today, so every ROUND operations the
    # stream moves to a fresh environment: peak memory then shows about one
    # round's history whatever --seconds is.
    ROUND = 600_000
    POOL = 64

    def __init__(self, seed, seconds, overrides=None):
        super().__init__(seed, seconds, overrides)
        rng = np.random.default_rng([seed, 0])
        P = self.POOL
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        ia = [int(x) for x in rng.integers(lo, hi, size=P, dtype=np.int64, endpoint=True)]
        ib = [int(x) for x in rng.integers(lo, hi, size=P, dtype=np.int64, endpoint=True)]
        ra = [float(x) for x in rng.normal(0.0, 1e3, size=P)]
        rb = [float(x) for x in rng.normal(0.0, 1e3, size=P)]
        # multiples of 1/16 below 2^16: every summation order is exact
        arrays = [rng.integers(-(2**20), 2**20, size=16) / 16.0 for _ in range(P)]
        bufs = [Value(BYTE_ARRAY, bytearray(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()))
                for _ in range(P)]
        conts = [Value(REAL, 0.0) for _ in range(P)]
        expect = [b.payload[0] for b in bufs]

        def exact(refs, pytype):
            return lambda j, r: type(r.payload) is pytype and r.payload == refs[j]

        def check_increment(j, r):
            expect[j] = (expect[j] + 1) & 0xFF
            return r is bufs[j] and r.payload[0] == expect[j]

        def check_into(j, r):
            return r is conts[j] and r.payload == ra[j] + rb[j]

        pair_i = lambda j: (ia[j], ib[j])  # noqa: E731
        pair_r = lambda j: (ra[j], rb[j])  # noqa: E731
        sums = [float(sum(a.tolist())) for a in arrays]
        F, C, I = Kind.FUNCTION, Kind.COMPUTER, Kind.INPLACE
        keys = [
            ("add_int", "math.add", F, ("Integer", "Integer"), pair_i,
             exact([ref.wrap64(a + b) for a, b in zip(ia, ib)], int), {}),
            ("add_real", "math.add", F, ("Real", "Real"), pair_r,
             exact([a + b for a, b in zip(ra, rb)], float), {}),
            ("mul_int", "math.mul", F, ("Integer", "Integer"), pair_i,
             exact([ref.wrap64(a * b) for a, b in zip(ia, ib)], int), {}),
            ("mul_real", "math.mul", F, ("Real", "Real"), pair_r,
             exact([a * b for a, b in zip(ra, rb)], float), {}),
            ("sum", "stats.sum", F, ("RealArray",), lambda j: (arrays[j],), exact(sums, float), {}),
            ("increment", "benchmark.increment", I, ("ByteArray",), lambda j: (bufs[j],),
             check_increment, {"mutable": 0}),
            ("add_into", "math.add", C, ("Real", "Real"), pair_r, check_into,
             {"container": lambda j: conts[j], "ctype": REAL}),
        ]
        for via in ("builder", "handle"):
            for label, name, kind, types, args, check, extra in keys:
                self.ops.append(Op(f"{via}:{label}", name, kind, _types(*types), via, args, check,
                                   signature=ref.HOT_SIGNATURES[label], **extra))
        sigs = [ref.HOT_SIGNATURES[k[0]] for k in keys]
        self.ops.append(Op(
            "lookup", "", Kind.FUNCTION, (), "lookup", lambda j: (),
            lambda j, rec: rec is not None and rec.signature == sigs[j],
        ))
        self._stream(rng, self._lookup_blocks(len(keys)))

    def _lookup_blocks(self, n_keys: int):
        """Blocks of 64: every key 6 times through a builder and twice through
        its handle, and a lookup after every 7 calls. Builders take most of
        the stream so the median falls inside their cluster of latencies,
        not in the gap between them and the much cheaper handles and lookups."""
        base = np.concatenate([np.repeat(np.arange(n_keys), 6),
                               np.repeat(np.arange(n_keys, 2 * n_keys), 2)])
        lookup = len(self.ops) - 1

        def blocks(rng, n):
            calls = rng.permuted(np.tile(base, (n, 1)), axis=1).reshape(n, 8, 7)
            idx = rng.integers(0, self.POOL, size=calls.shape)
            # a lookup's index names the request key of the call before it
            kinds = np.concatenate([calls, np.full((n, 8, 1), lookup)], axis=2)
            idxs = np.concatenate([idx, calls[:, :, -1:] % n_keys], axis=2)
            return kinds.reshape(n, 64), idxs.reshape(n, 64)

        return blocks


# ---------------------------------------------------------------------------
# match_cold
# ---------------------------------------------------------------------------


class MatchCold(Workload):
    name = "match_cold"
    rate = 2_500
    cache_enabled = False
    POOL = 16

    def __init__(self, seed, seconds, overrides=None):
        super().__init__(seed, seconds, overrides)
        self.synth = SynthRegistry(seed)
        self.extra_bindings = {**self.synth.bindings, **self.extra_bindings}
        self.synth_path = OUT_DIR / f"synth-{seed}-{os.getpid()}.yaml"
        rng = np.random.default_rng([seed, 2])
        self.ops = stdlib_ops(rng, self.POOL) + self._synth_ops(rng)
        self._stream(rng, self._blocks(self.POOL))

    def write_inputs(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.synth_path.write_text(self.synth.text, encoding="utf-8")

    def remove_inputs(self):
        self.synth_path.unlink(missing_ok=True)

    def descriptor_paths(self):
        return super().descriptor_paths() + [self.synth_path]

    def _synth_ops(self, rng) -> list[Op]:
        P = self.POOL
        optional = self.synth.with_optional
        every = self.synth.ops
        ops = []
        forms = [
            ("synth_real3", optional, ("Real", "Real", "Real"), "real"),
            ("synth_real2", every, ("Real", "Real"), "real"),
            ("synth_int", every, ("Integer", "Integer"), "int"),
        ]
        for label, pool, types, family in forms:
            chosen = [pool[int(k)] for k in rng.integers(0, len(pool), size=P)]
            if family == "real":
                vals = [(float(x), float(y), float(s)) for x, y, s in zip(
                    rng.normal(0, 100, P), rng.normal(0, 100, P), rng.uniform(0.5, 2.0, P))]
                if len(types) == 2:
                    vals = [(x, y, 1.0) for x, y, _ in vals]
                refs = [REAL_REFS[op["real"]](*v) for op, v in zip(chosen, vals)]
                sources = [op["real_source"] for op in chosen]
            else:
                vals = [(int(a), int(b)) for a, b in zip(rng.integers(-1000, 1000, P),
                                                         rng.integers(-1000, 1000, P))]
                refs = [INT_REFS[op["int"]](*v) for op, v in zip(chosen, vals)]
                sources = [op["int_source"] for op in chosen]
            arity = len(types)
            args = (lambda vals, arity: lambda j: vals[j][:arity])(vals, arity)

            def check(j, r, refs=refs, sources=sources, arity=arity):
                tree, value = r
                return (
                    tree.routine.value == "DIRECT"
                    and tree.info.source == sources[j]
                    and tree.adapter is None
                    and not tree.conversions
                    and tree.eff_arity == arity
                    and tree.signature == f"{sources[j]}|DIRECT|[]|()"
                    and value.payload == refs[j]
                )

            ops.append(Op(label, "", Kind.FUNCTION, _types(*types), "fresh", args, check,
                          names=[op["name"] for op in chosen]))
        return ops


def stdlib_ops(rng, P: int) -> list[Op]:
    """One fresh-handle op per row of the expected-plan table, 8x8 payloads."""
    imgs = [rng.uniform(0.0, 255.0, size=(8, 8)) for _ in range(P)]
    imgs_b = [rng.uniform(0.0, 255.0, size=(8, 8)) for _ in range(P)]
    u8s = [rng.integers(0, 256, size=(8, 8), dtype=np.uint8) for _ in range(P)]
    sig = [float(s) for s in rng.choice([0.8, 1.2, 1.6], size=P)]
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    ia = [int(x) for x in rng.integers(lo, hi, size=P, dtype=np.int64, endpoint=True)]
    ib = [int(x) for x in rng.integers(lo, hi, size=P, dtype=np.int64, endpoint=True)]
    arrays = [rng.integers(-(2**20), 2**20, size=16) / 16.0 for _ in range(P)]
    widths = [int(w) for w in rng.integers(2, 13, size=P)]
    heights = [int(h) for h in rng.integers(2, 13, size=P)]
    bytes_in = [bytearray(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()) for _ in range(P)]
    reals = [rng.uniform(-20.0, 280.0, size=16) for _ in range(P)]
    real_values = [Value(REAL_ARRAY, r.copy()) for r in reals]
    f64_out = [Value(IMAGE_F64, np.zeros((8, 8))) for _ in range(P)]
    u8_out = [Value(IMAGE_U8, np.zeros((8, 8), dtype=np.uint8)) for _ in range(P)]

    def incremented(u8: np.ndarray) -> np.ndarray:
        u = u8.copy()
        u[0] = (int(u[0]) + 1) % 256
        return u

    def floats(refs):
        return lambda j, v: ref.floats_close(v.payload, refs[j], 255.0)

    def check_increment_reals(j, v):
        ok = v is real_values[j] and np.array_equal(v.payload, inc_reals[j])
        v.payload[:] = reals[j]  # the next call on this payload starts from the seed state
        return ok

    inc_reals = [incremented(ref.to_u8(r)).astype(np.float64) for r in reals]
    inc_reals_fn = [bytearray(incremented(ref.to_u8(r)).tobytes()) for r in reals]
    inc_bytes = [bytearray(incremented(np.frombuffer(bytes(b), dtype=np.uint8)).tobytes())
                 for b in bytes_in]
    gauss_f = [ref.gauss(i, s) for i, s in zip(imgs, sig)]
    dog_f = [ref.dog(i, s, 2 * s) for i, s in zip(imgs, sig)]
    gauss_u8 = [ref.to_u8(ref.gauss(u.astype(np.float64), s)) for u, s in zip(u8s, sig)]
    spec = {
        "add_int": (lambda j: (ia[j], ib[j]),
                    lambda j, v: v.payload == ref.wrap64(ia[j] + ib[j])),
        "sum": (lambda j: (arrays[j],), lambda j, v: v.payload == float(sum(arrays[j].tolist()))),
        "rescale_w": (lambda j: (imgs[j], widths[j]),
                      lambda j, v: np.array_equal(v.payload, ref.rescale(imgs[j], widths[j]))),
        "rescale_wh": (lambda j: (imgs[j], widths[j], heights[j]),
                       lambda j, v: np.array_equal(
                           v.payload, ref.rescale(imgs[j], widths[j], heights[j]))),
        "gauss_into": (lambda j: (imgs[j], sig[j]), floats(gauss_f)),
        "dog_into": (lambda j: (imgs[j], sig[j], 2 * sig[j]), floats(dog_f)),
        "gauss_fn": (lambda j: (imgs[j], sig[j]), floats(gauss_f)),
        "dog_fn": (lambda j: (imgs[j], sig[j], 2 * sig[j]), floats(dog_f)),
        "increment_fn": (lambda j: (bytes_in[j],), lambda j, v: v.payload == inc_bytes[j]),
        "sub_lifted": (lambda j: (imgs[j], imgs_b[j]),
                       lambda j, v: ref.floats_close(v.payload, imgs[j] - imgs_b[j], 255.0)),
        "increment_reals": (lambda j: (real_values[j],), check_increment_reals),
        "gauss_u8_into": (lambda j: (u8s[j], sig[j]), lambda j, v: ref.u8_close(v.payload, gauss_u8[j])),
        "increment_reals_fn": (lambda j: (reals[j],), lambda j, v: v.payload == inc_reals_fn[j]),
        "gauss_u8_fn": (lambda j: (u8s[j], sig[j]), lambda j, v: ref.u8_close(v.payload, gauss_u8[j])),
    }
    containers = {"gauss_into": f64_out, "dog_into": f64_out, "gauss_u8_into": u8_out}
    gauss_calls = {"gauss_into": 1, "dog_into": 2, "gauss_fn": 1, "dog_fn": 2,
                   "gauss_u8_into": 1, "gauss_u8_fn": 1}
    ops = []
    for label, row in ref.PLAN_TABLE.items():
        name, kind_text, types, special, mutable = row["request"]
        kind = Kind(kind_text)
        extra: dict = {"mutable": mutable}
        if kind is Kind.COMPUTER:
            extra["ctype"] = parse_type(special)
            extra["container"] = (lambda c: lambda j: c[j])(containers[label])
        elif special is not None:
            extra["out"] = parse_type(special)
        if "near_misses" in row:
            lines = row["near_misses"]
            args = lambda j: ()  # noqa: E731

            def check(j, r, lines=lines):
                return isinstance(r, NoMatchError) and tuple(m.render() for m in r.near_misses) == lines
        else:
            args, out_check = spec[label]

            def check(j, r, row=row, out_check=out_check):
                return not isinstance(r, Exception) and ref.plan_matches(r[0], row) and out_check(j, r[1])
        calls = gauss_calls.get(label, 0)
        extra["progress"] = (lambda c: lambda j: 8 * c)(calls)
        ops.append(Op(label, name, kind, _types(*types), "fresh", args, check, **extra))
    return ops


# ---------------------------------------------------------------------------
# imaging
# ---------------------------------------------------------------------------


class Imaging(Workload):
    name = "imaging"
    rate = 180
    handles_in_setup = True
    # Operations per block, per op kind of each size. Halving the count as the
    # side doubles gives each size a similar share of the time, and with four
    # op kinds per size it puts the stream's median inside the gauss@64
    # cluster: 12 of 28 below it, 12 above. Equal counts would put it on the
    # edge between two clusters, where it jumps with the tails of both.
    SIZES = {32: 4, 64: 2, 128: 1}
    SIGMAS = ((1.0, 2.0), (1.5, 3.0))  # gauss uses the first, dog both
    IMAGES = 4

    def __init__(self, seed, seconds, overrides=None):
        super().__init__(seed, seconds, overrides)
        self.pool_budget = min(2, nproc())
        rng = np.random.default_rng([seed, 3])
        for size in self.SIZES:
            f64 = [rng.uniform(0.0, 255.0, size=(size, size)) for _ in range(self.IMAGES)]
            u8 = [rng.integers(0, 256, size=(size, size), dtype=np.uint8) for _ in range(self.IMAGES)]
            self.ops += self._size_ops(size, f64, u8)
        self._stream(rng, self._sigma_blocks())

    def _sigma_blocks(self):
        """Blocks with every op kind its size's count of times per sigma
        setting, so blocks cost the same; the image is drawn at random."""
        per_kind = np.repeat(list(self.SIZES.values()), len(self.ops) // len(self.SIZES))
        base = np.repeat(np.arange(len(self.ops)), per_kind * len(self.SIGMAS))

        def blocks(rng, n):
            kinds = rng.permuted(np.tile(base, (n, 1)), axis=1)
            order = np.argsort(kinds, axis=1, kind="stable")
            setting = np.zeros_like(kinds)
            np.put_along_axis(setting, order[:, 1::2], 1, axis=1)
            return kinds, rng.integers(0, self.IMAGES, size=kinds.shape) + self.IMAGES * setting

        return blocks

    def _size_ops(self, size, f64, u8) -> list[Op]:
        n, sig = self.IMAGES, self.SIGMAS
        payloads = {
            "gauss": [(f64[j % n], sig[j // n][0]) for j in range(n * len(sig))],
            "dog": [(f64[j % n], *sig[j // n]) for j in range(n * len(sig))],
            "sub": [(f64[j % n], f64[(j + 1) % n]) for j in range(n * len(sig))],
            "gauss_u8": [(u8[j % n], sig[j // n][0]) for j in range(n * len(sig))],
        }
        refs = {
            "gauss": [ref.gauss(a, s) for a, s in payloads["gauss"]],
            "dog": [ref.dog(a, s1, s2) for a, s1, s2 in payloads["dog"]],
            "sub": [a - b for a, b in payloads["sub"]],
            "gauss_u8": [ref.to_u8(ref.gauss(a.astype(np.float64), s)) for a, s in payloads["gauss_u8"]],
        }
        requests = {
            "gauss": (("ImageF64", "Real"), None, 1),
            "dog": (("ImageF64", "Real", "Real"), None, 2),
            "sub": (("ImageF64", "ImageF64"), None, 0),
            "gauss_u8": (("ImageU8", "Real"), IMAGE_U8, 1),
        }
        names = {"gauss": "filter.gauss", "dog": "filter.dog", "sub": "math.sub",
                 "gauss_u8": "filter.gauss"}
        ops = []
        for key, (types, out, gauss_calls) in requests.items():
            rs = refs[key]
            if key == "gauss_u8":
                check = (lambda rs: lambda j, v: ref.u8_close(v.payload, rs[j]))(rs)
            else:
                check = (lambda rs: lambda j, v: ref.floats_close(v.payload, rs[j], 255.0))(rs)
            ops.append(Op(
                f"{key}@{size}", names[key], Kind.FUNCTION, _types(*types), "handle",
                (lambda p: lambda j: p[j])(payloads[key]), check, out=out,
                signature=ref.IMAGING_SIGNATURES[key],
                progress=(lambda c: lambda j: c * size)(gauss_calls),
            ))
        return ops


WORKLOADS = {w.name: w for w in (DispatchHot, MatchCold, Imaging)}
