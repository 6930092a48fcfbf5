"""Request matching.

Four routines run in fixed order until one produces a plan:

1. DIRECT: a candidate of the right name, kind, and arity whose parameter
   types accept the request types.
2. ADAPTED: a candidate of a different kind or element/aggregate structure
   wrapped by exactly one ``engine.adapt`` entry whose FROM pattern unifies
   with the candidate and whose TO pattern satisfies the request.
3. CONVERTED: a same-kind candidate reached by converting individual
   parameters through ``engine.convert`` functions (one per parameter per
   direction; containers and mutables convert in, convert out, and copy back
   through ``engine.copy``).
4. ADAPTED_AND_CONVERTED: the adapter is chosen against the candidate alone
   and conversions then bridge the request to the adapted signature.

Candidates are visited in canonical environment order, which encodes
priority, so results are deterministic and independent of descriptor load
order. Failures accumulate a near-miss log naming the first offending
parameter of every skipped candidate.

The returned InfoTree is pure data: the chosen op, the routine, resolved
dependency children, the adapter, and per-parameter conversions. Its
signature string is a canonical serialization used for caching, history,
and reproducibility checks.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .errors import (
    DependencyCycleError,
    NearMiss,
    NoMatchError,
    RegistrationError,
)
from .types import Kind, SemanticType, TypeHierarchy, is_assignable, parse_type

if TYPE_CHECKING:
    from .registry import DependencySpec, OpEnvironment, OpInfo

MAX_DEPTH = 32

ADAPT_NAME = "engine.adapt"
CONVERT_NAME = "engine.convert"
COPY_NAME = "engine.copy"


class RoutineTag(Enum):
    DIRECT = "DIRECT"
    ADAPTED = "ADAPTED"
    CONVERTED = "CONVERTED"
    ADAPTED_AND_CONVERTED = "ADAPTED_AND_CONVERTED"


@dataclass(frozen=True, eq=False)
class OpRequest:
    """What a caller wants: a name, a functional kind, and concrete types.

    arg_types covers every caller-supplied argument (for INPLACE that
    includes the mutable one, pointed at by mutable_index). output_type may
    be None for FUNCTION requests, meaning any output is acceptable.

    Requests hash and compare by cache_key, so equal requests share one
    cache entry.
    """

    name: str
    kind: Kind
    arg_types: tuple[SemanticType, ...]
    output_type: SemanticType | None = None
    container_type: SemanticType | None = None
    mutable_index: int | None = None

    def __post_init__(self):
        for t in self.arg_types:
            if not t.is_concrete():
                raise RegistrationError(f"request types must be concrete, got {t}")
        if self.kind is Kind.FUNCTION:
            if self.container_type is not None or self.mutable_index is not None:
                raise RegistrationError("function requests take only an output type")
            if self.output_type is not None and not self.output_type.is_concrete():
                raise RegistrationError("requested output type must be concrete")
        elif self.kind is Kind.COMPUTER:
            if self.output_type is not None or self.mutable_index is not None:
                raise RegistrationError("computer requests take only a container type")
            if self.container_type is None or not self.container_type.is_concrete():
                raise RegistrationError("computer requests need a concrete container type")
        elif self.kind is Kind.INPLACE:
            if self.output_type is not None or self.container_type is not None:
                raise RegistrationError("inplace requests take only a mutable index")
            if self.mutable_index is None or not (
                0 <= self.mutable_index < len(self.arg_types)
            ):
                raise RegistrationError("inplace requests need a valid mutable index")

    @property
    def cache_key(self) -> tuple:
        """``(name, kind value, extra, *arg type strings)``.

        extra is the output type string (or None) for FUNCTION, the
        container type string for COMPUTER and the mutable index for
        INPLACE. Type strings are SemanticType's canonical ``_str``.
        staged_key builds this same tuple from a builder's staged Values
        to reach the cache without constructing a request; a key is only
        ever stored for a request that passed validation, so an invalid
        request always misses and raises on construction.
        """
        # _value_ and string compares: Enum member and .value lookups cost
        # more than the rest of the key. Not memoised: storing it on the
        # frozen instance costs more than building it again on a miss.
        kind = self.kind._value_
        if kind == "function":
            out = self.output_type
            extra = out._str if out is not None else None
        elif kind == "computer":
            extra = self.container_type._str
        else:
            extra = self.mutable_index
        return (self.name, kind, extra, *[t._str for t in self.arg_types])

    def __eq__(self, other):
        if not isinstance(other, OpRequest):
            return NotImplemented
        return self.cache_key == other.cache_key

    def __hash__(self) -> int:
        return hash(self.cache_key)

    def describe(self) -> str:
        args = ", ".join(str(t) for t in self.arg_types)
        if self.kind is Kind.FUNCTION:
            out = str(self.output_type) if self.output_type else "?"
            return f"{self.name}({args}) -> {out} [function]"
        if self.kind is Kind.COMPUTER:
            return f"{self.name}({args}) -> container {self.container_type} [computer]"
        return f"{self.name}({args}) [inplace @{self.mutable_index}]"


def function_request(
    name: str, arg_types, output_type: SemanticType | str | None = None
) -> OpRequest:
    return OpRequest(
        name,
        Kind.FUNCTION,
        tuple(_as_type(t) for t in arg_types),
        output_type=_as_type(output_type) if output_type is not None else None,
    )


def computer_request(name: str, arg_types, container_type) -> OpRequest:
    return OpRequest(
        name,
        Kind.COMPUTER,
        tuple(_as_type(t) for t in arg_types),
        container_type=_as_type(container_type),
    )


def inplace_request(name: str, arg_types, mutable_index: int = 0) -> OpRequest:
    return OpRequest(
        name,
        Kind.INPLACE,
        tuple(_as_type(t) for t in arg_types),
        mutable_index=mutable_index,
    )


def _as_type(t) -> SemanticType:
    return t if isinstance(t, SemanticType) else parse_type(t)


@dataclass(frozen=True)
class ConvEntry:
    """Conversion ops applied at one parameter position of the plan."""

    position: int
    in_op: OpInfo | None
    out_op: OpInfo | None


@dataclass(frozen=True)
class InfoTree:
    """A fully resolved execution plan with provenance.

    children hold one resolved tree per declared dependency of ``info``, in
    declaration order. adapter, when present, is the resolved engine.adapt
    entry (with its own dependency children). The eff_* fields describe the
    request-facing shape the plan serves; they are derived data and do not
    participate in the signature.
    """

    info: OpInfo
    routine: RoutineTag
    children: tuple["InfoTree", ...] = ()
    adapter: "InfoTree | None" = None
    conversions: tuple[ConvEntry, ...] = ()
    copyback: OpInfo | None = None
    eff_kind: Kind = Kind.FUNCTION
    eff_arity: int = 0
    eff_mutable: int | None = None
    out_type: SemanticType | None = None
    signature: str = field(init=False, compare=False)

    def __post_init__(self):
        middle = []
        if self.adapter is not None:
            middle.append(f"adapt:{self.adapter.signature}")
        for c in self.conversions:
            bits = []
            if c.in_op is not None:
                bits.append(f"in={c.in_op.source}")
            if c.out_op is not None:
                bits.append(f"out={c.out_op.source}")
            middle.append(f"conv{c.position}:{','.join(bits)}")
        if self.copyback is not None:
            middle.append(f"copyback:{self.copyback.source}")
        sig = (
            f"{self.info.source}|{self.routine.value}"
            f"|[{';'.join(middle)}]"
            f"|({','.join(ch.signature for ch in self.children)})"
        )
        object.__setattr__(self, "signature", sig)

    @property
    def adapter_chain(self) -> tuple[OpInfo, ...]:
        return (self.adapter.info,) if self.adapter is not None else ()


class CacheEntry:
    """One cached request: its plan and, once run, the plan's runner.

    The runner is attached by execution when a builder call or a handle
    first needs it, so matching alone (dependencies, env.match) never
    compiles. ``lock`` attaches it once; only first calls on this key wait.
    """

    __slots__ = ("tree", "run", "lock")

    def __init__(self, tree: InfoTree):
        self.tree = tree
        self.run = None
        self.lock = threading.Lock()


CACHE_CAP = 4_096


class MatchCache:
    """Map from request keys to CacheEntry (plan plus runner), one per environment.

    ``entries`` is keyed by OpRequest.cache_key; ``env.match`` and the
    builder terminals share this one store and its counters (a builder
    terminal reads ``entries`` under staged_key and counts its own hits).
    Reads are lock-free: a dict lookup is atomic under CPython, and the
    hit/miss counters are diagnostic only, never load-bearing. ``lock``
    guards ``put``: the first entry per key stays.

    The cache holds at most ``cap`` entries (default CACHE_CAP). Once a
    ``put`` passes the cap it evicts the oldest entry, in insertion order,
    so a hit does no bookkeeping. An evicted entry takes its runner with
    it; the next call on its key matches again and gets one new runner.
    CACHE_CAP is a memory bound, not a tuned size: the perfbench workloads
    hold at most 7 entries, so none reaches it, and neither its value nor
    the insertion-order policy (a hot key goes after CACHE_CAP newer puts)
    has been measured against traffic that does.
    """

    def __init__(self, cap: int = CACHE_CAP):
        if cap < 1:
            raise ValueError(f"cache cap must be at least 1, got {cap}")
        self.cap = cap
        self.entries: dict[tuple, CacheEntry] = {}
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, request: OpRequest) -> InfoTree | None:
        entry = self.entries.get(request.cache_key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.tree

    def put(self, request: OpRequest, tree: InfoTree) -> None:
        # The first entry stays: another thread may already have given it
        # a runner.
        entries = self.entries
        with self.lock:
            entries.setdefault(request.cache_key, CacheEntry(tree))
            if len(entries) > self.cap:
                del entries[next(iter(entries))]

    def stats(self) -> tuple[int, int]:
        return (self.hits, self.misses)

    def __len__(self) -> int:
        return len(self.entries)


def staged_key(name: str, kind_value: str, extra, values) -> tuple:
    """OpRequest.cache_key of a request staged as Values, built without a request.

    The common arities are spelled out: on a cached builder call this key
    is most of the lookup cost.
    """
    n = len(values)
    if n == 1:
        return (name, kind_value, extra, values[0].type._str)
    if n == 2:
        return (name, kind_value, extra, values[0].type._str, values[1].type._str)
    return (name, kind_value, extra, *[v.type._str for v in values])


# ---------------------------------------------------------------------------
# Functional shape encodings
#
# Adapter patterns describe op shapes as parameterized types:
#   Function<A1, ..., An, Out>
#   Computer<A1, ..., An, Container>
#   Inplace1<A1>, Inplace2_1<A1, A2>, ... (InplaceN_i: arity N, 1-based
#   mutable position i, defaulting to 1)
# ---------------------------------------------------------------------------

_INPLACE_RE = re.compile(r"Inplace(\d+)(?:_(\d+))?")


@dataclass(frozen=True)
class _Shape:
    kind: Kind
    types: tuple[SemanticType, ...]
    mutable_index: int | None = None

    @cached_property
    def arity(self) -> int:
        return len(self.types) - (0 if self.kind is Kind.INPLACE else 1)


def _encode_info(info: OpInfo) -> _Shape:
    args = tuple(p.type for p in info.arg_params)
    if info.kind is Kind.INPLACE:
        return _Shape(Kind.INPLACE, args, info.mutable_index)
    return _Shape(info.kind, args + (info.special_param.type,))


def _decompose_pattern(t: SemanticType) -> _Shape | None:
    if t.is_var or not t.params:
        return None
    if t.base == "Function" and len(t.params) >= 2:
        return _Shape(Kind.FUNCTION, t.params)
    if t.base == "Computer" and len(t.params) >= 2:
        return _Shape(Kind.COMPUTER, t.params)
    m = _INPLACE_RE.fullmatch(t.base)
    if m:
        arity = int(m.group(1))
        mutable = int(m.group(2) or 1) - 1
        if len(t.params) == arity and 0 <= mutable < arity:
            return _Shape(Kind.INPLACE, t.params, mutable)
    return None


def adapter_patterns(adapter: OpInfo) -> tuple[_Shape, _Shape] | None:
    """An engine.adapt entry's (FROM, TO) shapes, or None if it cannot adapt."""
    if adapter.kind is not Kind.FUNCTION or len(adapter.params) != 2:
        return None
    frm = _decompose_pattern(adapter.params[0].type)
    to = _decompose_pattern(adapter.params[1].type)
    if frm is None or to is None:
        return None
    return frm, to


def _same_shape(shape: _Shape, req: OpRequest) -> bool:
    """Do kind, arity and (for INPLACE) the mutable position match the request?

    Shapes and requests of the other kinds have no mutable index.
    """
    return (
        shape.kind is req.kind
        and shape.arity == len(req.arg_types)
        and shape.mutable_index == req.mutable_index
    )


def matcher_tables(
    by_name: Mapping[str, tuple[OpInfo, ...]], hierarchy: TypeHierarchy
) -> tuple[dict, tuple, tuple]:
    """``(shaped, converts, copies)``: the matcher's facts past DIRECT.

    An environment builds them once from its name index; they are sized by
    the registry and never grow per call. ``shaped`` maps each name to
    ``(info, shape, adaptations)`` per non-adapter candidate in canonical
    order; shape is None, with no adaptations, for a candidate with generic
    parameter types, since adaptation and conversion only work on concrete
    shapes. ``converts`` and ``copies`` are ``_convert_table`` rows.
    """
    # adapters whose patterns do not decompose can never match
    adapters = tuple(
        (info, patterns)
        for info in by_name.get(ADAPT_NAME, ())
        if (patterns := adapter_patterns(info)) is not None
    )
    shaped = {}
    for name, found in by_name.items():
        rows = []
        for info in found:
            if ADAPT_NAME in info.names:
                continue
            cand = _encode_info(info)
            if all(t.is_concrete() for t in cand.types):
                rows.append((info, cand, _adaptations(adapters, cand, hierarchy)))
            else:
                rows.append((info, None, ()))
        shaped[name] = tuple(rows)
    return (
        shaped,
        _convert_table(by_name.get(CONVERT_NAME, ()), Kind.FUNCTION),
        _convert_table(by_name.get(COPY_NAME, ()), Kind.COMPUTER),
    )


def _adaptations(adapters, cand: _Shape, hierarchy: TypeHierarchy) -> tuple:
    """Adapters whose FROM pattern unifies with a candidate, canonical order.

    Rows are ``(adapter, bindings, target)`` where target is the TO shape
    with the read-only bindings applied; adapters whose TO types stay
    generic are skipped.
    """
    rows = []
    for ad, (frm, to) in adapters:
        if (
            frm.kind is not cand.kind
            or len(frm.types) != len(cand.types)
            or frm.mutable_index != cand.mutable_index
        ):
            continue
        bindings: dict[str, SemanticType] = {}
        if not all(
            is_assignable(ct, ft, hierarchy, bindings)
            for ct, ft in zip(cand.types, frm.types)
        ):
            continue
        to_types = tuple(t.substitute(bindings) for t in to.types)
        if all(t.is_concrete() for t in to_types):
            target = _Shape(to.kind, to_types, to.mutable_index)
            rows.append((ad, MappingProxyType(bindings), target))
    return tuple(rows)


def _convert_table(candidates: tuple[OpInfo, ...], kind: Kind) -> tuple:
    """``(info, src, dst)`` of each usable convert or copy entry, in order.

    Usable entries have the given kind, one dependency-free argument of
    concrete type ``src`` and a concrete output or container type ``dst``.
    """
    return tuple(
        (info, info.arg_params[0].type, info.special_param.type)
        for info in candidates
        if info.kind is kind
        and len(info.arg_params) == 1
        and not info.dependencies
        and info.arg_params[0].type.is_concrete()
        and info.special_param.type.is_concrete()
    )


# ---------------------------------------------------------------------------
# Matching routines
# ---------------------------------------------------------------------------


class _Search:
    """Mutable state for one request: near misses and candidate count."""

    __slots__ = ("env", "stack", "near", "considered")

    def __init__(self, env: OpEnvironment, stack: tuple[str, ...]):
        self.env = env
        self.stack = stack
        self.near: list[NearMiss] = []
        self.considered = 0


def match(env: OpEnvironment, req: OpRequest) -> InfoTree:
    """Resolve a request to an InfoTree; raises NoMatchError with near misses."""
    return _match_internal(env, req, ())


def _match_internal(
    env: OpEnvironment, req: OpRequest, stack: tuple[str, ...]
) -> InfoTree:
    # Cache first: a hit means the subtree fully resolved before, so the
    # depth guard (which bounds resolution work, not plan shape) can wait.
    if env.cache_enabled:
        cached = env.cache.get(req)
        if cached is not None:
            return cached
    stack = stack + (f"{req.name}[{req.kind.value}]",)
    if len(stack) > MAX_DEPTH:
        raise DependencyCycleError(stack)
    s = _Search(env, stack)
    tree = (
        _match_direct(s, req)
        or _match_adapted(s, req)
        or _match_converted(s, req, allow_adaptation=False)
        or _match_converted(s, req, allow_adaptation=True)
    )
    if tree is None:
        raise NoMatchError(
            f"no op matches {req.describe()} "
            f"({s.considered} candidates considered; try 'ops help {req.name}')",
            tuple(s.near),
        )
    if env.cache_enabled:
        env.cache.put(req, tree)
    return tree


def _dep_request(dep: DependencySpec, sig: tuple[SemanticType, ...]) -> OpRequest:
    if dep.kind is Kind.FUNCTION:
        return OpRequest(
            dep.op_name, Kind.FUNCTION, sig[:-1], output_type=sig[-1]
        )
    if dep.kind is Kind.COMPUTER:
        return OpRequest(
            dep.op_name, Kind.COMPUTER, sig[:-1], container_type=sig[-1]
        )
    # YAML dependency entries carry no mutable index; index 0 by convention.
    return OpRequest(dep.op_name, Kind.INPLACE, sig, mutable_index=0)


def _resolve_deps(
    s: _Search, info: OpInfo, bindings: Mapping[str, SemanticType]
):
    """Resolve an op's dependencies. Returns children or a NearMiss."""
    children: list[InfoTree] = []
    for dep in info.dependencies:
        sig = tuple(t.substitute(bindings) for t in dep.signature)
        if any(not t.is_concrete() for t in sig):
            return NearMiss(info.source, "unmet dependency", dep.field)
        try:
            children.append(_match_internal(s.env, _dep_request(dep, sig), s.stack))
        except NoMatchError:
            return NearMiss(info.source, "unmet dependency", dep.field)
    return tuple(children)


def _match_direct(s: _Search, req: OpRequest) -> InfoTree | None:
    hierarchy = s.env.hierarchy
    for info in s.env.candidates(req.name):
        s.considered += 1
        if info.kind is not req.kind:
            continue
        args = info.arg_params
        if len(args) != len(req.arg_types):
            continue
        if req.kind is Kind.INPLACE and info.mutable_index != req.mutable_index:
            continue
        bindings: dict[str, SemanticType] = {}
        failed = None
        for rt, p in zip(req.arg_types, args):
            if not is_assignable(rt, p.type, hierarchy, bindings):
                failed = NearMiss(info.source, "type mismatch", p.name)
                break
        if failed is not None:
            s.near.append(failed)
            continue
        out_type = None
        if req.kind is Kind.FUNCTION:
            produced = info.special_param.type.substitute(bindings)
            if not produced.is_concrete() or (
                req.output_type is not None
                and not is_assignable(produced, req.output_type, hierarchy)
            ):
                s.near.append(
                    NearMiss(info.source, "type mismatch", info.special_param.name)
                )
                continue
            out_type = produced
        elif req.kind is Kind.COMPUTER:
            if not is_assignable(
                req.container_type, info.special_param.type, hierarchy, bindings
            ):
                s.near.append(
                    NearMiss(info.source, "type mismatch", info.special_param.name)
                )
                continue
        children = _resolve_deps(s, info, bindings)
        if isinstance(children, NearMiss):
            s.near.append(children)
            continue
        return InfoTree(
            info,
            RoutineTag.DIRECT,
            children=children,
            eff_kind=req.kind,
            eff_arity=len(req.arg_types),
            eff_mutable=req.mutable_index,
            out_type=out_type,
        )
    return None


def _shaped_candidates(s: _Search, name: str):
    """``(info, shape, adaptations)`` of each concrete non-adapter candidate.

    Every non-adapter candidate is counted, generic ones too.
    """
    for row in s.env.shaped.get(name, ()):
        s.considered += 1
        if row[1] is not None:
            yield row


def _adapter_tree(
    s: _Search, ad: OpInfo, bindings: Mapping[str, SemanticType]
) -> InfoTree | None:
    """The adapter as a DIRECT plan, or None (logged) if its dependencies fail."""
    children = _resolve_deps(s, ad, bindings)
    if isinstance(children, NearMiss):
        s.near.append(children)
        return None
    return InfoTree(
        ad,
        RoutineTag.DIRECT,
        children=children,
        eff_kind=ad.kind,
        eff_arity=len(ad.arg_params),
    )


def _match_adapted(s: _Search, req: OpRequest) -> InfoTree | None:
    env = s.env
    for info, _, adaptations in _shaped_candidates(s, req.name):
        fitted = False
        for ad, bindings, target in adaptations:
            if not _same_shape(target, req) or isinstance(
                _bridge(env, req, target, False), int
            ):
                continue
            fitted = True
            adapter_tree = _adapter_tree(s, ad, bindings)
            if adapter_tree is None:
                continue
            children = _resolve_deps(s, info, {})
            if isinstance(children, NearMiss):
                s.near.append(children)
                break
            return InfoTree(
                info,
                RoutineTag.ADAPTED,
                children=children,
                adapter=adapter_tree,
                eff_kind=req.kind,
                eff_arity=len(req.arg_types),
                eff_mutable=req.mutable_index,
                out_type=target.types[-1] if req.kind is Kind.FUNCTION else None,
            )
        if not fitted:
            s.near.append(NearMiss(info.source, "missing adapter", "*"))
    return None


def _find_convert(
    env: OpEnvironment, frm: SemanticType, to: SemanticType
) -> OpInfo | None:
    """First convert function accepting ``frm`` and producing ``to``."""
    hierarchy = env.hierarchy
    for info, src, dst in env.converts:
        if is_assignable(frm, src, hierarchy) and is_assignable(dst, to, hierarchy):
            return info
    return None


def _find_copy(env: OpEnvironment, t: SemanticType) -> OpInfo | None:
    """First copy computer able to write ``t`` content into a ``t`` container."""
    hierarchy = env.hierarchy
    for info, src, dst in env.copies:
        if is_assignable(t, src, hierarchy) and is_assignable(t, dst, hierarchy):
            return info
    return None


def _param_label(info: OpInfo, target_from_adapter: bool, position: int) -> str:
    if target_from_adapter:
        return f"arg{position}"
    args = info.arg_params
    if position < len(args):
        return args[position].name
    return info.special_param.name


def _bridge(
    env: OpEnvironment, req: OpRequest, target: _Shape, convert: bool
) -> tuple[list[ConvEntry], OpInfo | None] | int:
    """Fit a request onto a target shape of its own kind and arity.

    Returns ``(conversions, copyback)``, or the first position that does not
    fit; the output or container is position ``arity``. A request argument
    or container fits where its type is assignable to the target's, and the
    target's output where it is assignable to the requested one. Without
    ``convert`` nothing else fits and no convert is looked up. With it, an
    argument fits through an ``engine.convert`` in, and the output through
    one out; the mutable argument and the container need a convert in, a
    convert out and an ``engine.copy`` for the copy-back.
    """
    hierarchy = env.hierarchy
    n = len(req.arg_types)
    pairs = zip(req.arg_types, target.types)
    round_trip = req.mutable_index  # None unless INPLACE
    if req.container_type is not None:
        pairs = [*pairs, (req.container_type, target.types[n])]
        round_trip = n
    conversions: list[ConvEntry] = []
    copyback: OpInfo | None = None
    for i, (rt, tt) in enumerate(pairs):
        if is_assignable(rt, tt, hierarchy):
            continue
        if not convert:
            return i
        conv_in = _find_convert(env, rt, tt)
        if conv_in is None:
            return i
        conv_out = None
        if i == round_trip:
            conv_out = _find_convert(env, tt, rt)
            copyback = _find_copy(env, rt)
            if conv_out is None or copyback is None:
                return i
        conversions.append(ConvEntry(i, conv_in, conv_out))
    out = req.output_type  # only a FUNCTION request has one
    if out is not None and not is_assignable(target.types[n], out, hierarchy):
        conv_out = _find_convert(env, target.types[n], out) if convert else None
        if conv_out is None:
            return n
        conversions.append(ConvEntry(n, None, conv_out))
    return conversions, copyback


def _match_converted(
    s: _Search, req: OpRequest, allow_adaptation: bool
) -> InfoTree | None:
    env = s.env
    n_args = len(req.arg_types)
    function = req.kind is Kind.FUNCTION
    for info, cand, adaptations in _shaped_candidates(s, req.name):
        adapter_tree: InfoTree | None = None
        if not allow_adaptation:
            if not _same_shape(cand, req):
                continue
            target = cand
        else:
            # first fit: the first adapter of the right shape whose own
            # dependencies resolve is the only one tried for conversion
            for ad, bindings, target in adaptations:
                if _same_shape(target, req):
                    adapter_tree = _adapter_tree(s, ad, bindings)
                    if adapter_tree is not None:
                        break
            if adapter_tree is None:
                continue

        fit = _bridge(env, req, target, True)
        if isinstance(fit, int):
            s.near.append(
                NearMiss(
                    info.source,
                    "missing convert",
                    _param_label(info, adapter_tree is not None, fit),
                )
            )
            continue
        conversions, copyback = fit
        if not conversions:
            continue
        children = _resolve_deps(s, info, {})
        if isinstance(children, NearMiss):
            s.near.append(children)
            continue
        out_type = None
        if function:
            # an output conversion is the last entry, at position n_args
            converted_out = conversions[-1].position == n_args
            out_type = req.output_type if converted_out else target.types[-1]
        return InfoTree(
            info,
            RoutineTag.CONVERTED
            if adapter_tree is None
            else RoutineTag.ADAPTED_AND_CONVERTED,
            children=children,
            adapter=adapter_tree,
            conversions=tuple(conversions),
            copyback=copyback,
            eff_kind=req.kind,
            eff_arity=n_args,
            eff_mutable=req.mutable_index,
            out_type=out_type,
        )
    return None
