"""Turning matched plans into calls.

_compile lowers an InfoTree to a plain payload-level callable: dependency
children become leading arguments bound with functools.partial, the adapter
binding (a factory) wraps the native callable, and conversion entries wrap
individual parameters. A plan is compiled once, when its runner is made; a
cached plan keeps its runner, and so its compiled callable, in its cache
entry. The op's frame sits at the plan boundary: the runner holds it for a
top-level plan, and compile_tree adds it for dependency children, adapter
dependencies and standalone use. Execution then moves between Values and
payloads in one place, so op bodies never see framework objects.

Kind contracts enforced here:
- functions allocate a fresh Value and never touch their arguments,
- computers produce content that is written into the caller's container only
  after the body finished (a failing body leaves the container unchanged),
- inplaces mutate exactly the declared argument and return it.

Every completed invocation is recorded in the environment's history as
(value uid -> plan signature); the history keeps the newest records up to
its cap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExecutionError,
    OpsError,
)
from .matcher import InfoTree, OpRequest, _as_type, function_request, staged_key
from .runtime import runs_op
from .types import Io, Kind, SemanticType, describe_type
from .values import _SCALAR_BASES, Value, wrap, write_back

if TYPE_CHECKING:
    from .registry import OpEnvironment, OpInfo


def compile_tree(env: OpEnvironment, tree: InfoTree):
    """Payload-level callable for a plan, framed as its op."""
    return _frame_wrap(env, tree.info.name, _compile(env, tree))


def _compile(env: OpEnvironment, tree: InfoTree):
    """Payload-level callable for a plan, with no frame of its own.

    Dependency children are bound as leading arguments, the adapter factory
    wraps the result, and conversions wrap that; children and adapter
    dependencies are framed through compile_tree. A leaf plan is its bare
    body.
    """
    fn = env.binding(tree.info.source)
    if tree.children:
        fn = partial(fn, *[compile_tree(env, c) for c in tree.children])
    if tree.adapter is not None:
        factory = env.binding(tree.adapter.info.source)
        fn = factory(fn, *[compile_tree(env, c) for c in tree.adapter.children])
    if tree.conversions or tree.copyback is not None:
        fn = _conversion_wrap(env, tree, fn)
    return fn


def _frame_wrap(env: OpEnvironment, label: str, fn):
    # op_frame is never read here: runtime finds it on the Python stack
    @runs_op
    def framed(*args, op_frame=(label, env, env.pool)):
        return fn(*args)

    return framed


def _leaf_fn(env: OpEnvironment, info: OpInfo):
    return _frame_wrap(env, info.name, env.binding(info.source))


def _assign_into(dst, src) -> None:
    """Physically copy converted content back into the caller's payload."""
    if isinstance(dst, bytearray):
        if not isinstance(src, (bytes, bytearray)) or len(src) != len(dst):
            raise DimensionMismatchError(
                f"copy-back length mismatch: {len(src)} into {len(dst)}"
            )
        dst[:] = src
        return
    if isinstance(dst, np.ndarray):
        if not isinstance(src, np.ndarray) or src.shape != dst.shape or src.dtype != dst.dtype:
            raise DimensionMismatchError("copy-back shape or dtype mismatch")
        np.copyto(dst, src)
        return
    raise ExecutionError("cannot copy back into a scalar payload")


def _conversion_wrap(env: OpEnvironment, tree: InfoTree, fn):
    n = tree.eff_arity
    in_map = {}
    mutable_out = None
    special_out = None
    copy_fn = _leaf_fn(env, tree.copyback) if tree.copyback is not None else None
    for c in tree.conversions:
        if c.position < n:
            if c.in_op is not None:
                in_map[c.position] = _leaf_fn(env, c.in_op)
            if c.out_op is not None:
                mutable_out = _leaf_fn(env, c.out_op)
        else:
            # Container conv-in is recorded for provenance but has nothing to
            # feed: computers ignore incoming container content.
            if c.out_op is not None:
                special_out = _leaf_fn(env, c.out_op)

    def convert_args(args):
        return [in_map[i](a) if i in in_map else a for i, a in enumerate(args)]

    if tree.eff_kind is Kind.FUNCTION:

        def wrapped(*args):
            result = fn(*convert_args(args))
            return special_out(result) if special_out is not None else result

        return wrapped

    if tree.eff_kind is Kind.COMPUTER:

        def wrapped(*args):
            content = fn(*convert_args(args))
            if special_out is not None:
                content = special_out(content)
            if copy_fn is not None:
                content = copy_fn(content)
            return content

        return wrapped

    mi = tree.eff_mutable

    def wrapped(*args):
        converted = convert_args(args)
        mutated = fn(*converted)
        if mi in in_map:
            staged = mutable_out(mutated)
            if copy_fn is not None:
                staged = copy_fn(staged)
            _assign_into(args[mi], staged)
            return args[mi]
        return mutated

    return wrapped


def _make_runner(env: OpEnvironment, tree: InfoTree):
    """The one run path of a plan: ``run(values, container) -> Value``.

    The runner holds the op's frame in its ``op_frame`` local, where the
    runtime finds it when a body reports progress or asks for the pool. It
    calls the plan on the argument payloads, turns body failures into
    ExecutionErrors that carry the plan signature, enforces the effective
    kind's contract (assign a scalar inplace result, wrap a function
    result, write a computer result back), and records history. The plan
    is compiled here, once per runner, so a cached plan never compiles
    again; a leaf plan's call is its bare body.
    """
    info = tree.info
    history = env.history

    # The plan's data is bound as parameter defaults, not closure cells:
    # cells cost more to create (an uncached call makes one runner per
    # call) and defaults read as plain locals on every cached call.
    @runs_op
    def run(
        values,
        container,
        call=_compile(env, tree),
        op_frame=(info.name, env, env.pool),
        label=info.name,
        sig=tree.signature,
        arity=tree.eff_arity,
        inplace=tree.eff_kind is Kind.INPLACE,
        function=tree.eff_kind is Kind.FUNCTION,
        out_type=tree.out_type,
        mi=tree.eff_mutable,
        by_uid=history._by_uid,  # OpHistory.record, inlined below
        log=history._log.extend,
        entries=history._log,
        size=len,
        limit=history._limit,
        trim=history.trim,
        now=time.time,
    ):
        try:
            # the common arities spelled out: *-unpacking costs more than
            # most op bodies
            if arity == 1:
                result = call(values[0].payload)
            elif arity == 2:
                result = call(values[0].payload, values[1].payload)
            else:
                result = call(*[v.payload for v in values])
        except OpsError as exc:
            if isinstance(exc, ExecutionError) and exc.signature is None:
                exc.signature = sig
            raise
        except Exception as exc:
            raise ExecutionError(f"{label} failed: {exc}", signature=sig) from exc
        if inplace:
            out = values[mi]
            if result is not out.payload and out.type.base in _SCALAR_BASES:
                out.payload = result
        elif function:
            try:
                out = Value(out_type, result)
            except Exception as exc:
                raise ExecutionError(
                    f"{label} produced invalid output: {exc}", signature=sig
                ) from exc
        else:
            try:
                write_back(container, result)
            except DimensionMismatchError as exc:
                if exc.signature is None:
                    exc.signature = sig
                raise
            out = container
        uid, at = out.uid, now()
        by_uid[uid] = (sig, at)
        log((uid, sig, at))
        if size(entries) >= limit:
            trim()
        return out

    return run


def _resolve(env: OpEnvironment, req: OpRequest):
    """Match a request: ``(plan, runner)``, the runner cached with the plan."""
    tree = env.match(req)
    entry = env.cache.entries.get(req.cache_key) if env.cache_enabled else None
    if entry is None:
        return tree, _make_runner(env, tree)
    if entry.run is None:
        with entry.lock:  # one runner per entry under concurrent misses
            if entry.run is None:
                entry.run = _make_runner(env, entry.tree)
    return entry.tree, entry.run


@dataclass(frozen=True)
class HistoryRecord:
    uid: int
    signature: str
    at: float


HISTORY_CAP = 65_536


class OpHistory:
    """Maps produced values (by uid) to the plan signature that made them.

    Keeps the newest ``cap`` records (default HISTORY_CAP) and evicts
    oldest first: ``len`` and ``snapshot`` cover only the kept records, and
    ``lookup`` returns None once a value's newest record is evicted. The log
    is one flat list of (uid, signature, time) triples, oldest first, and
    the index maps each uid to its latest (signature, time).

    Recording is lock-free: dict assignment and list.extend with a tuple
    are each atomic under CPython, so readers always see whole records. The
    index is written before the log, so a record can never be evicted
    before its index entry exists. The flat log holds no object the cyclic
    garbage collector tracks, and recording a value again replaces its
    index tuple, so a hot loop on one value triggers no collections.

    Eviction is amortised. Records past the cap leave the index when a
    lookup next runs, and the log itself is cut back to ``cap`` records by
    the recording call that brings it to ``cap + cap // 8``. An index entry
    leaves only with the record that wrote it, so a value recorded again
    keeps its newest record. Trims take a lock that recording never takes,
    and each costs O(records evicted) in Python plus one move of the kept
    part of the log.
    """

    def __init__(self, cap: int = HISTORY_CAP):
        if cap < 1:
            raise ValueError(f"history cap must be at least 1, got {cap}")
        self.cap = cap
        self._log: list = []
        self._by_uid: dict[int, tuple[str, float]] = {}
        self._span = 3 * cap  # log items the kept records take
        # a recording call trims once the log holds this many items
        self._limit = 3 * (cap + max(1, cap // 8))
        self._head = 0  # log items at the front already gone from the index
        self._lock = threading.Lock()

    def record(self, value: Value, signature: str) -> None:
        uid, at = value.uid, time.time()
        self._by_uid[uid] = (signature, at)
        self._log.extend((uid, signature, at))
        if len(self._log) >= self._limit:
            self.trim()

    def _evict(self) -> None:
        """Drop the index entries of records past the cap; the caller holds _lock.

        An entry goes only with the record that wrote it, told apart by its
        time object, which that record alone holds. Each entry is popped
        first and put back if a newer record wrote it: one dict operation
        for a value recorded once. A lookup never sees an entry between the
        two, as it waits on the lock while records are pending eviction.
        """
        log, head = self._log, self._head
        stop = len(log) - self._span
        if stop <= head:
            return
        gone = log[head:stop]
        pop, put_back = self._by_uid.pop, self._by_uid.setdefault
        for uid, at in zip(gone[0::3], gone[2::3]):
            rec = pop(uid, None)
            if rec is not None and rec[1] is not at:
                put_back(uid, rec)
        self._head = stop

    def trim(self) -> None:
        """Evict every record past the cap, from the index and the log."""
        with self._lock:
            self._evict()
            del self._log[: self._head]
            self._head = 0

    def lookup(self, value: Value) -> HistoryRecord | None:
        if len(self._log) - self._head > self._span:
            with self._lock:
                self._evict()
        rec = self._by_uid.get(value.uid)
        return HistoryRecord(value.uid, *rec) if rec is not None else None

    def snapshot(self) -> tuple[HistoryRecord, ...]:
        log = self._log[-self._span :]
        return tuple(map(HistoryRecord, log[0::3], log[1::3], log[2::3]))

    def __len__(self) -> int:
        return min(len(self._log) // 3, self.cap)


class OpBuilder:
    """Fluent request construction: stage inputs, pick a terminal.

    Made by ``env.op(name)`` (new_builder). Value terminals (apply,
    compute, mutate) match and run once. Handle terminals (function,
    computer, inplace) match once and return a callable that never matches
    again.
    """

    __slots__ = (
        "_env",
        "_name",
        "_inputs",
        "_types",
        "_output",
        "_container",
        "_container_t",
    )

    def input(self, *objs) -> "OpBuilder":
        for obj in objs:
            if not isinstance(obj, Value):
                objs = tuple(o if isinstance(o, Value) else wrap(o) for o in objs)
                break
        self._inputs += objs
        return self

    def input_types(self, *types) -> "OpBuilder":
        self._types += tuple(_as_type(t) for t in types)
        return self

    def output_type(self, t) -> "OpBuilder":
        self._output = _as_type(t)
        return self

    def container(self, value: Value) -> "OpBuilder":
        if not isinstance(value, Value):
            raise ExecutionError("container(...) takes a Value to write into")
        self._container = value
        return self

    def container_type(self, t) -> "OpBuilder":
        self._container_t = _as_type(t)
        return self

    def _staged_types(self) -> tuple[SemanticType, ...]:
        if self._types:
            return self._types
        return tuple(v.type for v in self._inputs)

    # The value terminals below share one shape. With the cache on they
    # look the staged request up under staged_key (inlined for one input)
    # and run a cached runner directly, counting the hit; otherwise they
    # build, validate and match an OpRequest through _resolve.

    def apply(self) -> Value:
        env, inputs, out = self._env, self._inputs, self._output
        if env.cache_enabled:
            cache = env.cache
            extra = out._str if out is not None else None
            entry = cache.entries.get(
                (self._name, "function", extra, inputs[0].type._str)
                if len(inputs) == 1
                else staged_key(self._name, "function", extra, inputs)
            )
            if entry is not None and entry.run is not None:
                cache.hits += 1
                return entry.run(inputs, None)
        req = OpRequest(
            self._name,
            Kind.FUNCTION,
            tuple(v.type for v in inputs),
            output_type=out,
        )
        return _resolve(env, req)[1](inputs, None)

    def compute(self) -> Value:
        env, inputs, container = self._env, self._inputs, self._container
        if container is None:
            raise ExecutionError("compute() needs container(...) staged first")
        if env.cache_enabled:
            cache = env.cache
            extra = container.type._str
            entry = cache.entries.get(
                (self._name, "computer", extra, inputs[0].type._str)
                if len(inputs) == 1
                else staged_key(self._name, "computer", extra, inputs)
            )
            if entry is not None and entry.run is not None:
                cache.hits += 1
                return entry.run(inputs, container)
        req = OpRequest(
            self._name,
            Kind.COMPUTER,
            tuple(v.type for v in inputs),
            container_type=container.type,
        )
        return _resolve(env, req)[1](inputs, container)

    def mutate(self, index: int = 0) -> Value:
        env, inputs = self._env, self._inputs
        if env.cache_enabled:
            cache = env.cache
            entry = cache.entries.get(
                (self._name, "inplace", index, inputs[0].type._str)
                if len(inputs) == 1
                else staged_key(self._name, "inplace", index, inputs)
            )
            if entry is not None and entry.run is not None:
                cache.hits += 1
                return entry.run(inputs, None)
        req = OpRequest(
            self._name,
            Kind.INPLACE,
            tuple(v.type for v in inputs),
            mutable_index=index,
        )
        return _resolve(env, req)[1](inputs, None)

    def function(self) -> "FunctionHandle":
        req = OpRequest(
            self._name, Kind.FUNCTION, self._staged_types(), output_type=self._output
        )
        return FunctionHandle(*_resolve(self._env, req))

    def computer(self) -> "ComputerHandle":
        ct = self._container_t
        if ct is None and self._container is not None:
            ct = self._container.type
        if ct is None:
            raise ExecutionError(
                "computer() needs container_type(...) or container(...) staged first"
            )
        req = OpRequest(
            self._name, Kind.COMPUTER, self._staged_types(), container_type=ct
        )
        return ComputerHandle(*_resolve(self._env, req))

    def inplace(self, index: int = 0) -> "InplaceHandle":
        req = OpRequest(
            self._name, Kind.INPLACE, self._staged_types(), mutable_index=index
        )
        return InplaceHandle(*_resolve(self._env, req))

    def help(self, verbose: bool = False) -> str:
        return help_text(self._env, self._name, verbose=verbose)


_new = object.__new__


def new_builder(env: OpEnvironment, name: str) -> OpBuilder:
    """A fresh builder for op ``name``; this is ``env.op(name)``.

    Every builder call starts here, so the slots are filled directly
    rather than through an ``__init__`` dispatch, which alone is about a
    tenth of a cached call.
    """
    b = _new(OpBuilder)
    b._env = env
    b._name = name
    b._inputs = ()
    b._types = ()
    b._output = None
    b._container = None
    b._container_t = None
    return b


class _Handle:
    """Matched once; invocations call the plan's runner without matching."""

    def __init__(self, tree: InfoTree, run):
        self._tree = tree
        self._run = run

    @property
    def tree(self) -> InfoTree:
        return self._tree

    @property
    def signature(self) -> str:
        return self._tree.signature

    def _values(self, objs) -> tuple[Value, ...]:
        vals = tuple(o if isinstance(o, Value) else wrap(o) for o in objs)
        if len(vals) != self._tree.eff_arity:
            raise ExecutionError(
                f"{self._tree.info.name} takes {self._tree.eff_arity} "
                f"arguments, got {len(vals)}"
            )
        return vals


class FunctionHandle(_Handle):
    def __call__(self, *objs) -> Value:
        return self._run(self._values(objs), None)


class ComputerHandle(_Handle):
    def __call__(self, *objs, container: Value) -> Value:
        if not isinstance(container, Value):
            raise ExecutionError("container must be a Value")
        return self._run(self._values(objs), container)


class InplaceHandle(_Handle):
    def __call__(self, *objs) -> Value:
        vals = self._values(objs)
        if not isinstance(objs[self._tree.eff_mutable], Value):
            raise ExecutionError("the mutable argument must be passed as a Value")
        return self._run(vals, None)


# ---------------------------------------------------------------------------
# Help rendering
# ---------------------------------------------------------------------------


def describe_semantic_type(env: OpEnvironment, t: SemanticType) -> str:
    """Render a type for humans via a matched engine.describe op, if any."""
    try:
        tree = env.match(function_request("engine.describe", [t], "Text"))
        fn = compile_tree(env, tree)
        return str(fn(None))
    except OpsError:
        return describe_type(t, env.describe_table)


def render_signature(env: OpEnvironment, info: OpInfo) -> str:
    inputs = []
    for p in info.params:
        if p.io is Io.OUTPUT:
            continue
        label = describe_semantic_type(env, p.type) if p.type.is_concrete() else str(p.type)
        if p.io is Io.MUTABLE:
            label += "*"
        inputs.append(f"{p.name}: {label}")
    head = f"{info.name}({', '.join(inputs)})"
    if info.kind is Kind.FUNCTION:
        out = info.special_param.type
        label = describe_semantic_type(env, out) if out.is_concrete() else str(out)
        return f"{head} -> {label}"
    if info.kind is Kind.COMPUTER:
        return f"{head} [computer -> {info.special_param.name}]"
    return f"{head} [inplace]"


def _edit_distance(a: str, b: str) -> int:
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _suggestions(query: str, names) -> list[str]:
    scored = []
    for n in names:
        last = n.rsplit(".", 1)[-1]
        d = min(_edit_distance(query, n), _edit_distance(query, last))
        if d <= 2:
            scored.append((d, n))
    return [n for _, n in sorted(scored)[:5]]


def help_text(env: OpEnvironment, query: str = "", verbose: bool = False) -> str:
    names = env.distinct_names()
    if not query:
        return "\n".join(names) if names else "(no ops registered)"
    matches = env.candidates(query)
    if matches:
        blocks = []
        for info in matches:
            line = render_signature(env, info)
            if not verbose:
                blocks.append(line)
                continue
            extra = [line]
            if info.description:
                extra.append(f"  {info.description}")
            extra.append(f"  priority: {info.priority:g}")
            extra.append(f"  source: {info.source}")
            for p in info.params:
                desc = f": {p.description}" if p.description else ""
                opt = " (optional)" if p.optional else ""
                extra.append(f"  {p.io.value} {p.name} ({p.type}){opt}{desc}")
            for dep in info.dependencies:
                extra.append(f"  dependency {dep.field} -> {dep.op_name} [{dep.kind.value}]")
            blocks.append("\n".join(extra))
        return "\n\n".join(blocks)
    prefix = query + "."
    under = [n for n in names if n.startswith(prefix)]
    if under:
        return f"Namespace '{query}':\n" + "\n".join(under)
    msg = f"No ops found matching '{query}'"
    close = _suggestions(query, names)
    if close:
        msg += "\nDid you mean: " + ", ".join(close) + "?"
    return msg
