"""Turning matched plans into calls.

_compile lowers an InfoTree to a plain payload-level callable: dependency
children become leading arguments bound with functools.partial, the adapter
binding (a factory) wraps the native callable, and conversion entries wrap
individual parameters. A plan is compiled once, when its runner is made; a
cached plan keeps its runner, and so its compiled callable, in its cache
entry. The op's frame sits at the plan boundary: the runner holds it for a
top-level plan, and compile_tree adds it for dependency children, adapter
dependencies and standalone use. Op bodies never see framework objects:
payloads travel from the caller to the body, and a Value is built only
where the caller sees it, as the function result, the filled container or
the mutable argument handed back.

Kind contracts enforced here:
- functions allocate a fresh Value and never touch their arguments,
- computers produce content that is written into the caller's container only
  after the body finished (a failing body leaves the container unchanged),
- inplaces mutate exactly the declared argument and return it.

Every completed invocation records its plan signature on the Value it
produced or filled, where the environment's history looks it up, with the
history's next tick: the record's sequence number, which is also the count
of records.
"""

from __future__ import annotations

import operator
import sys
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionMismatchError, ExecutionError, OpsError
from .matcher import InfoTree, OpRequest, _as_type, function_request, staged_key
from .runtime import runs_op
from .types import Io, Kind, SemanticType, describe_type
from .values import _EXACT, _IN_PLACE, Value, copy_into, payload_of, wrap, write_back

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
    # runtime finds op_frame on the stack; it holds env's listeners, not env
    @runs_op
    def framed(*args, op_frame=(label, env._listeners, env.pool)):
        return fn(*args)

    return framed


def _leaf_fn(env: OpEnvironment, info: OpInfo):
    return _frame_wrap(env, info.name, env.binding(info.source))


def _conversion_wrap(env: OpEnvironment, tree: InfoTree, fn):
    """Convert the arguments in, the one converted-out result back, copy back.

    A plan has at most one out conversion: its output's, its container's or
    its mutable argument's. A container's in conversion is recorded for
    provenance but has nothing to feed: computers ignore incoming container
    content. When the mutable argument was converted, the copied-back
    content goes into the caller's byte or array payload; a scalar payload
    cannot change in place, so the content is returned for the runner to
    assign.
    """
    n = tree.eff_arity
    in_map = {}
    out_fn = None
    for c in tree.conversions:
        if c.in_op is not None and c.position < n:
            in_map[c.position] = _leaf_fn(env, c.in_op)
        if c.out_op is not None:
            out_fn = _leaf_fn(env, c.out_op)
    copy_fn = _leaf_fn(env, tree.copyback) if tree.copyback is not None else None
    mi = tree.eff_mutable if tree.eff_mutable in in_map else None

    def wrapped(*args):
        content = fn(*[in_map[i](a) if i in in_map else a for i, a in enumerate(args)])
        if out_fn is not None:
            content = out_fn(content)
        if copy_fn is not None:
            content = copy_fn(content)
        if mi is not None and isinstance(args[mi], _IN_PLACE):
            copy_into(args[mi], content)
            return args[mi]
        return content

    return wrapped


def _make_runner(env: OpEnvironment, tree: InfoTree):
    """The one run path of a plan: ``run(args, out) -> Value``.

    ``args`` are the argument payloads. ``out`` is the container Value for
    a computer, the mutable argument's Value for an inplace and None for a
    function. A one-argument inplace call may pass None for ``args``: its
    argument is then ``out.payload``, and no tuple is built for it. The runner holds the op's frame in its ``op_frame`` local,
    where the runtime finds it when a body reports progress or asks for
    the pool. It calls the plan on ``args``, turns body failures into
    ExecutionErrors that carry the plan signature, enforces the effective
    kind's contract (assign a scalar inplace result, wrap a function
    result, write a computer result back), and records history on the
    Value it returns. The plan is compiled here, once per runner, so a
    cached plan never compiles again; a leaf plan's call is its bare body.
    """
    info = tree.info
    history = env.history

    # The plan's data is bound as parameter defaults, not closure cells:
    # cells cost more to create (an uncached call makes one runner per
    # call) and defaults read as plain locals on every cached call.
    @runs_op
    def run(
        args,
        out,
        call=_compile(env, tree),
        op_frame=(info.name, env._listeners, env.pool),
        sig=tree.signature,
        inplace=tree.eff_kind is Kind.INPLACE,
        function=tree.eff_kind is Kind.FUNCTION,
        out_type=tree.out_type,
        token=history._token,  # OpHistory.record, inlined below
        tick=history._ticks.__next__,
    ):
        try:
            result = call(*args) if args is not None else call(out.payload)
        except OpsError as exc:
            if isinstance(exc, ExecutionError) and exc.signature is None:
                exc.signature = sig
            raise
        except Exception as exc:
            raise ExecutionError(f"{op_frame[0]} failed: {exc}", signature=sig) from exc
        # a DimensionMismatchError is signed; any other result that breaks
        # the kind's contract is an invalid output
        try:
            if inplace:
                if result is not out.payload and not isinstance(out.payload, _IN_PLACE):
                    write_back(out, result)
            elif function:
                out = Value(out_type, result)
            else:
                write_back(out, result)
        except DimensionMismatchError as exc:
            if exc.signature is None:
                exc.signature = sig
            raise
        except Exception as exc:
            raise ExecutionError(
                f"{op_frame[0]} produced invalid output: {exc}", signature=sig
            ) from exc
        else:
            # in the else clause the kind branches run on into the record
            # with one jump fewer per call
            out._record = (token, sig, tick())
            return out

    return run


def _resolve(env: OpEnvironment, req: OpRequest):
    """Match a request: ``(plan, runner)``, the runner cached with the plan."""
    tree = env.match(req)
    entry = env.cache.entries.get(req.cache_key)
    if entry is None:
        return tree, _make_runner(env, tree)
    if entry.run is None:
        with entry.lock:  # one runner per entry under concurrent misses
            if entry.run is None:
                entry.run = _make_runner(env, entry.tree)
    return entry.tree, entry.run


class HistoryRecord(NamedTuple):
    """One history record: a value's uid, the plan signature, its sequence number.

    ``seq`` is the record's 0-based place among all the records its history
    has made, so of two records the newer has the larger ``seq``.
    """

    uid: int
    signature: str
    seq: int


class OpHistory:
    """Which plan produced a value: its signature and its place in the order.

    A record lives on the Value it describes, in the Value's ``_record``
    slot as (token, signature, seq), so ``lookup(v)`` returns v's newest
    record made by this history for as long as v exists; no index outlives
    the values. The token tells this history's records from another's: if
    another environment's history recorded v after this one, v's contents
    are that environment's output, and ``lookup(v)`` here returns None. The
    token is a bare object, not the history itself, so a long-lived value
    keeps no discarded environment alive.

    ``len`` is the number of records this history has made, runners' and
    ``record``'s alike. The history keeps no log of them: its per-call
    state is one tick counter, whose next tick is a record's ``seq``, so a
    record costs no memory beyond its value. Recording is lock-free: an
    attribute store and a range iterator's ``__next__`` are each atomic
    under CPython, so seqs are distinct and increasing across threads.
    Signatures are interned (``InfoTree.signature`` and ``record`` alike),
    so the records of one plan share one string.
    """

    def __init__(self):
        self._token = object()
        # an exact lock-free tick: __next__ is one C call, length_hint reads it
        self._ticks = iter(range(sys.maxsize))

    def record(self, value: Value, signature: str) -> None:
        """Record ``signature`` on ``value`` and count it, as a runner does."""
        value._record = (self._token, sys.intern(signature), next(self._ticks))

    def lookup(self, value: Value) -> HistoryRecord | None:
        rec = getattr(value, "_record", None)
        if rec is None or rec[0] is not self._token:
            return None
        return HistoryRecord(value.uid, rec[1], rec[2])

    def __len__(self) -> int:
        return sys.maxsize - operator.length_hint(self._ticks)


# Staged by input() as they are: Values, and raw payloads of a class _EXACT
# lists. input() wraps anything else.
_AS_IS = frozenset([Value, *(c for c in _EXACT if type(c) is type)])


def _stage(obj):
    return obj if type(obj) in _AS_IS else wrap(obj)


def _types_of(staged) -> tuple[SemanticType, ...]:
    return tuple([_EXACT.get(type(x)) or x.type for x in staged])


def _args_of(staged) -> tuple:
    """The payloads the runner takes for staged inputs; a raw one as it is."""
    return tuple([x if type(x) in _EXACT else x.payload for x in staged])


def _key_args(name: str, kind_value: str, extra, staged) -> tuple[tuple, tuple]:
    """``(staged_key(...), _args_of(staged))``, with one input and two raw
    payloads spelled out: on a cached call they are most of the work."""
    # ``in`` and subscripts, not _EXACT.get: a method call costs more here
    n = len(staged)
    if n == 2:
        a, b = type(staged[0]), type(staged[1])
        if a in _EXACT and b in _EXACT:
            return (name, kind_value, extra, _EXACT[a]._str, _EXACT[b]._str), staged
    elif n == 1:
        x = staged[0]
        if type(x) not in _EXACT:
            return (name, kind_value, extra, x.type._str), (x.payload,)
        return (name, kind_value, extra, _EXACT[type(x)]._str), staged
    return staged_key(name, kind_value, extra, staged), _args_of(staged)


class OpBuilder:
    """Fluent request construction: stage inputs, pick a terminal.

    Made by ``env.op(name)`` (new_builder). Value terminals (apply,
    compute, mutate) match and run once. Handle terminals (function,
    computer, inplace) match once and return a callable that never matches
    again.

    ``input`` keeps a Value, or a raw payload whose exact class
    ``values._EXACT`` lists, as it is, and wraps anything else, so a bad
    object fails at that call. The value terminals hand the runner
    payloads; ``mutate`` on a raw payload wraps that one payload, and
    returns that Value.
    """

    # The fields only some terminals read are class-level defaults that
    # staging sets on the instance (its __dict__), so new_builder fills
    # three slots.
    __slots__ = ("_env", "_name", "_inputs", "__dict__")
    _types: tuple[SemanticType, ...] = ()
    _output: SemanticType | None = None
    _container: Value | None = None
    _container_t: SemanticType | None = None

    def input(self, *objs) -> "OpBuilder":
        for obj in objs:
            if type(obj) not in _AS_IS:
                objs = tuple(map(_stage, objs))
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
        return self._types or _types_of(self._inputs)

    # The value terminals below share one shape. They look the staged
    # request up under its key and run a cached runner directly, counting
    # the hit, or else build, validate and match an OpRequest through
    # _resolve. A cache-off environment's entries stay empty.

    def apply(self) -> Value:
        env, inputs, out = self._env, self._inputs, self._output
        cache = env.cache
        extra = out._str if out is not None else None
        key, args = _key_args(self._name, "function", extra, inputs)
        entry = cache.entries.get(key)
        if entry is not None and entry.run is not None:
            cache.hits += 1
            return entry.run(args, None)
        req = OpRequest(self._name, Kind.FUNCTION, _types_of(inputs), output_type=out)
        return _resolve(env, req)[1](args, None)

    def compute(self) -> Value:
        env, inputs, container = self._env, self._inputs, self._container
        if container is None:
            raise ExecutionError("compute() needs container(...) staged first")
        cache = env.cache
        key, args = _key_args(self._name, "computer", container.type._str, inputs)
        entry = cache.entries.get(key)
        if entry is not None and entry.run is not None:
            cache.hits += 1
            return entry.run(args, container)
        req = OpRequest(
            self._name, Kind.COMPUTER, _types_of(inputs), container_type=container.type
        )
        return _resolve(env, req)[1](args, container)

    def mutate(self, index: int = 0) -> Value:
        # One staged Value, the mutable argument itself, is spelled out: it
        # is handed back, and its payload reaches the runner with no tuple.
        env, inputs = self._env, self._inputs
        cache = env.cache
        try:
            (x,) = inputs
        except ValueError:
            x = None
        if x.__class__ is Value:
            entry = cache.entries.get((self._name, "inplace", index, x.type._str))
            if entry is not None and entry.run is not None:
                cache.hits += 1
                return entry.run(None, x)
            req = OpRequest(self._name, Kind.INPLACE, (x.type,), mutable_index=index)
            return _resolve(env, req)[1](None, x)
        key, args = _key_args(self._name, "inplace", index, inputs)
        entry = cache.entries.get(key)
        if entry is not None and entry.run is not None:
            cache.hits += 1
            # wrap hands a staged Value back as it is
            return entry.run(args, wrap(inputs[index]))
        req = OpRequest(self._name, Kind.INPLACE, _types_of(inputs), mutable_index=index)
        return _resolve(env, req)[1](args, wrap(inputs[index]))

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
    return b


class _Handle:
    """Matched once; invocations call the plan's runner without matching.

    A call hands the runner payloads: a raw payload of a class
    ``values._EXACT`` lists as it is, a Value's payload, and anything else
    as ``values.payload_of`` infers it, with no Value built.
    """

    def __init__(self, tree: InfoTree, run):
        self._tree = tree
        self._run = run

    @property
    def tree(self) -> InfoTree:
        return self._tree

    @property
    def signature(self) -> str:
        return self._tree.signature

    def _args(self, objs) -> tuple:
        # raw payloads of listed classes, the common call, pass as they are
        args = objs
        for obj in objs:
            if type(obj) not in _EXACT:
                args = tuple(map(payload_of, objs))
                break
        if len(args) != self._tree.eff_arity:
            raise ExecutionError(
                f"{self._tree.info.name} takes {self._tree.eff_arity} "
                f"arguments, got {len(args)}"
            )
        return args


class FunctionHandle(_Handle):
    def __call__(self, *objs) -> Value:
        return self._run(self._args(objs), None)


class ComputerHandle(_Handle):
    def __call__(self, *objs, container: Value) -> Value:
        if not isinstance(container, Value):
            raise ExecutionError("container must be a Value")
        return self._run(self._args(objs), container)


class InplaceHandle(_Handle):
    def __call__(self, *objs) -> Value:
        args = self._args(objs)
        out = objs[self._tree.eff_mutable]
        if not isinstance(out, Value):
            raise ExecutionError("the mutable argument must be passed as a Value")
        return self._run(args, out)


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
