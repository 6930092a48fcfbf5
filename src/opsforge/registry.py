"""Op metadata, YAML descriptor parsing, and the sealed op environment.

An OpInfo is pure data: names, functional kind, typed parameters, declared
dependencies, and a source URI whose executable body is looked up in a
separate binding table. This split is what allows plain functions to be
exposed as ops through a YAML file alone.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import ExecutionError, RegistrationError, SchemaError, TypeSyntaxError
from .execution import OpHistory, help_text, new_builder
from .matcher import MatchCache, fixed_dependencies, match, matcher_tables
from .runtime import ComputePool
from .types import (
    DescriptorTable,
    Io,
    Kind,
    SemanticType,
    TypeHierarchy,
    parse_type,
)
from .values import is_number

# Priority penalty applied per optional parameter removed by reduction.
REDUCTION_PENALTY = 1e-6

# Dotted op name; segments start lowercase but may continue with any case.
_OP_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*(\.[a-z][A-Za-z0-9_]*)+")

# Source URI schemes that must have a registered binding at build time.
# Other schemes (for example freshly indexed descriptors) may be loaded for
# listing and matching and only fail if actually executed.
_STRICT_SCHEMES = ("builtin", "legacy")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: SemanticType
    io: Io
    optional: bool = False
    description: str = ""


@dataclass(frozen=True)
class DependencySpec:
    """A child op required by a parent op body.

    ``signature`` lists the dependency's parameter types in declared order.
    For FUNCTION the last entry is the output, for COMPUTER the last entry is
    the container, for INPLACE all entries are arguments and index 0 is the
    mutable one. Type variables must be bound by the parent's parameters.
    """

    field: str
    op_name: str
    kind: Kind
    signature: tuple[SemanticType, ...]


# The kind an op has when this is the io of its one parameter that is not
# an input.
_KIND_OF_ROLE = {Io.OUTPUT: Kind.FUNCTION, Io.CONTAINER: Kind.COMPUTER, Io.MUTABLE: Kind.INPLACE}


def infer_kind(params: Sequence[ParamSpec]) -> Kind:
    """Derive the functional kind from io roles; raises on illegal combos."""
    roles = [p.io for p in params if p.io is not Io.INPUT]
    if len(roles) == 1:
        return _KIND_OF_ROLE[roles[0]]
    raise RegistrationError(
        "io roles must contain exactly one of output/container/mutable, got "
        f"{roles.count(Io.OUTPUT)} output, {roles.count(Io.CONTAINER)} container, "
        f"{roles.count(Io.MUTABLE)} mutable"
    )


@dataclass(frozen=True)
class OpInfo:
    """One registered op.

    Construction checks the entry and derives, once, what matching and
    execution read of it; ``dataclasses.replace`` derives them again for the
    copy. They are attributes, not fields, so equality, hashing and repr
    see the eight fields alone:

    - ``arg_params``: the parameters a caller supplies, inputs plus the
      mutable one, in declared order;
    - ``special_param``: the single output, container or mutable parameter;
    - ``mutable_index``: the mutable parameter's index among ``arg_params``
      for INPLACE, else None.
    """

    names: tuple[str, ...]
    kind: Kind
    params: tuple[ParamSpec, ...]
    source: str
    priority: float = 0.0
    dependencies: tuple[DependencySpec, ...] = ()
    description: str = ""
    reduced_from: "OpInfo | None" = None

    def __post_init__(self):
        if not self.names:
            raise RegistrationError("an op needs at least one name")
        for n in self.names:
            if not _OP_NAME_RE.fullmatch(n):
                raise RegistrationError(f"invalid op name {n!r}")
        if not self.source:
            raise RegistrationError("an op needs a source URI")
        if self.priority != self.priority:
            raise RegistrationError(f"{self.name}: priority must be a number, got nan")
        # one pass finds the arguments and the parameters that are not
        # inputs, of which there must be exactly one
        args: list[ParamSpec] = []
        specials: list[ParamSpec] = []
        mutable_index = None
        for p in self.params:
            if p.io is Io.INPUT:
                args.append(p)
                continue
            specials.append(p)
            if p.io is Io.MUTABLE:
                mutable_index = len(args)
                args.append(p)
        if len(specials) != 1:
            infer_kind(self.params)  # raises: the io roles name no single kind
        special = specials[0]
        derived = _KIND_OF_ROLE[special.io]
        if derived is not self.kind:
            raise RegistrationError(
                f"{self.name}: declared kind {self.kind.value} contradicts "
                f"io roles ({derived.value})"
            )
        if special.optional:
            raise RegistrationError(
                f"{self.name}: only input parameters may be optional "
                f"({special.name} is {special.io.value})"
            )
        if self.dependencies:
            own_vars: set[str] = set()
            for p in self.params:
                own_vars |= p.type.variables()
            for dep in self.dependencies:
                for t in dep.signature:
                    loose = t.variables() - own_vars
                    if loose:
                        raise RegistrationError(
                            f"{self.name}: dependency {dep.field} uses unbound "
                            f"type variables {sorted(loose)}"
                        )
        parts = ",".join([f"{p.io._value_}:{p.type._str}" for p in self.params])
        # frozen: the facts go straight into the instance's dict. The
        # signature is interned, so entries of one signature hold one string.
        self.__dict__.update(
            arg_params=tuple(args),
            special_param=special,
            mutable_index=mutable_index,
            _signature=sys.intern(f"{derived._value_}({parts})"),
        )

    @property
    def name(self) -> str:
        return self.names[0]

    def signature_string(self) -> str:
        return self._signature


def reduce_optional(info: OpInfo) -> list[OpInfo]:
    """Expand an op into itself plus its optional-suffix reductions.

    Optional inputs must form a trailing run among the input parameters.
    Each generated variant removes one more optional input from the right
    and pays a small priority penalty so fuller matches win ties. A variant
    holds its source's required parameters themselves; an optional one it
    keeps becomes a required copy.
    """
    if info.reduced_from is not None:
        return [info]
    # only inputs may be optional (OpInfo checks it)
    for p in info.params:
        if p.optional:
            break
    else:
        return [info]
    flags = [p.optional for p in info.params if p.io is Io.INPUT]
    n_opt = sum(flags)
    inputs = [i for i, p in enumerate(info.params) if p.io is Io.INPUT]
    if flags != [False] * (len(flags) - n_opt) + [True] * n_opt:
        raise RegistrationError(f"{info.name}: optional parameters must be trailing")
    variants = [info]
    for k in range(1, n_opt + 1):
        removed = set(inputs[len(inputs) - k:])
        params = tuple(
            replace(p, optional=False) if p.optional else p
            for i, p in enumerate(info.params)
            if i not in removed
        )
        variants.append(
            replace(
                info,
                params=params,
                priority=info.priority - REDUCTION_PENALTY * k,
                reduced_from=info,
            )
        )
    return variants


# ---------------------------------------------------------------------------
# YAML descriptor parsing
# ---------------------------------------------------------------------------

_ENTRY_KEYS = {
    "name",
    "aliases",
    "kind",
    "priority",
    "source",
    "description",
    "parameters",
    "optional",
    "dependencies",
}
_PARAM_KEYS = {"name", "type", "io", "description"}
_DEP_KEYS = {"field", "name", "kind", "signature"}


def _fail(origin: str, path: str, message: str) -> SchemaError:
    return SchemaError(f"{origin}: {path}: {message}")


# One reader per field rule. Each returns ``obj[key]`` of the mapping at
# ``path``, checked, or raises a SchemaError naming the field; ``_mapping``
# checks the mapping itself.


def _mapping(origin: str, path: str, obj: Any, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise _fail(origin, path, f"{what} must be a mapping")
    if not keys.issuperset(obj):
        raise _fail(origin, path, f"unknown keys {sorted(set(obj) - keys)}")


def _required(origin: str, path: str, obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise _fail(origin, f"{path}.{key}", "required string")
    return value


def _text(origin: str, path: str, obj: dict, key: str) -> str:
    value = obj.get(key, "")
    if not isinstance(value, str):
        raise _fail(origin, f"{path}.{key}", "must be a string")
    return value


def _strings(origin: str, path: str, obj: dict, key: str, noun: str) -> list[str]:
    value = obj.get(key, [])
    if isinstance(value, list):
        for v in value:
            if not isinstance(v, str):
                break
        else:
            return value
    raise _fail(origin, f"{path}.{key}", f"must be a list of {noun}")


# The member each value names, found as Kind(value) and Io(value) find it
# but without EnumType.__call__; an unhashable value names none.
_KIND_OF_TEXT = {kind.value: kind for kind in Kind}
_IO_OF_TEXT = {io.value: io for io in Io}


def _kind(origin: str, path: str, obj: dict) -> Kind:
    try:
        return _KIND_OF_TEXT[obj.get("kind")]
    except (KeyError, TypeError):
        raise _fail(
            origin, f"{path}.kind", "must be one of function/computer/inplace"
        ) from None


def _parse_type_at(origin: str, path: str, key: str, text: Any, shared: dict) -> SemanticType:
    """``text``, read from field ``key`` of the mapping at ``path``, as a type."""
    if not isinstance(text, str):
        raise _fail(origin, f"{path}.{key}", f"expected a type string, got {text!r}")
    found = shared.get(text)
    if found is not None:
        return found
    try:
        t = parse_type(text)
    except TypeSyntaxError as e:
        raise _fail(origin, f"{path}.{key}", str(e)) from e
    # keyed by its canonical string too, so "List< Real >" and "List<Real>"
    # give one type
    t = shared[text] = shared.setdefault(t._str, t)
    return t


def read_entry(
    entry: Any, origin: str, path: str, shared: dict | None = None
) -> OpInfo:
    """One descriptor entry as an OpInfo, its fields checked in a fixed order.

    YAML documents and indexed comment blocks are both read through here,
    so a fault reads the same from either. Errors name ``origin`` and the
    field's path under ``path`` (the entry's, e.g. ``ops[0]``). ``shared``,
    one per build, maps each type string to one SemanticType and each
    set of parameter fields to one ParamSpec, so entries that repeat a
    signature hold one copy of it.

    Each field is checked inline. The field readers above run only on a
    faulty field, to raise their own SchemaError, and on the two optional
    lists when present. A field's path is built only for an error, or to
    read a type string new to ``shared``.
    """
    if shared is None:
        shared = {}
    if not (isinstance(entry, dict) and _ENTRY_KEYS.issuperset(entry)):
        _mapping(origin, path, entry, _ENTRY_KEYS, "entry")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        _required(origin, path, entry, "name")
    aliases = _strings(origin, path, entry, "aliases", "strings") if "aliases" in entry else ()
    source = entry.get("source")
    if not isinstance(source, str) or not source:
        _required(origin, path, entry, "source")
    priority = entry.get("priority", 0.0)
    # NaN compares false both ways, so canonical order would follow load order
    if (priority.__class__ is not float and not is_number(priority)) or priority != priority:
        raise _fail(origin, f"{path}.priority", "must be a number")
    description = entry.get("description", "")
    if not isinstance(description, str):
        _text(origin, path, entry, "description")

    raw_params = entry.get("parameters")
    if not isinstance(raw_params, list):
        raise _fail(origin, f"{path}.parameters", "required list")
    optional_names = (
        _strings(origin, path, entry, "optional", "names") if "optional" in entry else ()
    )
    params: list[ParamSpec] = []
    roles: list[Io] = []  # the io of each parameter that is not an input
    for rp in raw_params:
        # the parameter's index is len(params)
        if not (isinstance(rp, dict) and _PARAM_KEYS.issuperset(rp)):
            _mapping(origin, f"{path}.parameters[{len(params)}]", rp, _PARAM_KEYS, "parameter")
        pname = rp.get("name")
        if not isinstance(pname, str) or not pname:
            _required(origin, f"{path}.parameters[{len(params)}]", rp, "name")
        io_text = rp.get("io")
        try:
            io = _IO_OF_TEXT[io_text]
        except (KeyError, TypeError):
            raise _fail(
                origin,
                f"{path}.parameters[{len(params)}].io",
                f"must be one of input/container/mutable/output, got {io_text!r}",
            ) from None
        text = rp.get("type")
        ptype = shared.get(text) if text.__class__ is str else None
        if ptype is None:
            ptype = _parse_type_at(
                origin, f"{path}.parameters[{len(params)}]", "type", text, shared
            )
        optional = pname in optional_names
        pdesc = rp.get("description", "")
        if not isinstance(pdesc, str):
            _text(origin, f"{path}.parameters[{len(params)}]", rp, "description")
        # the io text names one Io; a str key is cheaper to hash than the member
        key = (pname, ptype._str, io_text, optional, pdesc)
        param = shared.get(key)
        if param is None:
            param = shared[key] = ParamSpec(pname, ptype, io, optional, pdesc)
        params.append(param)
        if io is not Io.INPUT:
            roles.append(io)
    if optional_names:
        param_names = {p.name for p in params}
        for oname in optional_names:
            if oname not in param_names:
                raise _fail(origin, f"{path}.optional", f"unknown parameter {oname!r}")

    raw_deps = entry.get("dependencies", [])
    if not isinstance(raw_deps, list):
        raise _fail(origin, f"{path}.dependencies", "must be a list")
    deps: list[DependencySpec] = []
    for j, rd in enumerate(raw_deps):
        if not (isinstance(rd, dict) and _DEP_KEYS.issuperset(rd)):
            _mapping(origin, f"{path}.dependencies[{j}]", rd, _DEP_KEYS, "dependency")
        dfield = rd.get("field")
        if not isinstance(dfield, str) or not dfield:
            _required(origin, f"{path}.dependencies[{j}]", rd, "field")
        dname = rd.get("name")
        if not isinstance(dname, str) or not dname:
            _required(origin, f"{path}.dependencies[{j}]", rd, "name")
        dkind = rd.get("kind")
        dkind = _KIND_OF_TEXT.get(dkind) if dkind.__class__ is str else None
        if dkind is None:
            dkind = _kind(origin, f"{path}.dependencies[{j}]", rd)
        raw_sig = rd.get("signature")
        if not isinstance(raw_sig, list) or not raw_sig:
            raise _fail(origin, f"{path}.dependencies[{j}].signature", "required non-empty list")
        sig = []
        for t in raw_sig:
            found = shared.get(t) if t.__class__ is str else None
            if found is None:
                found = _parse_type_at(
                    origin, f"{path}.dependencies[{j}]", f"signature[{len(sig)}]", t, shared
                )
            sig.append(found)
        deps.append(DependencySpec(dfield, dname, dkind, tuple(sig)))

    if len(roles) != 1:
        try:
            infer_kind(params)  # raises: the io roles name no single kind
        except RegistrationError as e:
            raise _fail(origin, f"{path}.parameters", str(e)) from e
    derived = _KIND_OF_ROLE[roles[0]]
    declared = entry.get("kind")
    if declared is not None and (declared.__class__ is not str or declared != derived._value_):
        declared = _kind(origin, path, entry)  # raises for an unknown kind
        if declared is not derived:
            raise _fail(
                origin,
                f"{path}.kind",
                f"declared {declared.value} but io roles imply {derived.value}",
            )

    try:
        return OpInfo(
            names=(name, *aliases),
            kind=derived,
            params=tuple(params),
            source=source,
            priority=float(priority),
            dependencies=tuple(deps),
            description=description,
        )
    except RegistrationError as e:
        raise _fail(origin, path, str(e)) from e


_STR_TAG = "tag:yaml.org,2002:str"
# Python's SafeLoader composes recursively, so its recursion limit decides
# at what depth a document fails; the walk leaves deeper documents to it.
_DEEPEST = 100


class _Declined(Exception):
    """The event walk leaves this document to ``yaml.load``."""


def _load_yaml(text: str, Loader) -> Any:
    """``yaml.load(text, Loader=Loader)``, built from the loader's events.

    ``yaml.load`` composes the whole document into Nodes, each with two
    Marks, before it constructs anything. This walk builds the dicts, lists
    and scalars of a plain document straight from the event stream, so its
    peak is about the size of the document it returns. Plain means what a
    descriptor file is: one document of untagged maps, sequences and
    scalars with no anchor or alias, nested at most ``_DEEPEST`` deep.
    Scalars resolve and construct through the loader's own resolver and
    constructors. Anything else (an explicit tag, an anchor, an alias, a
    merge key, an unhashable key, a second document or deeper nesting) is
    left to ``yaml.load``, so every outcome is PyYAML's own.
    """
    import yaml
    from yaml.events import MappingEndEvent, ScalarEvent, SequenceEndEvent, StreamEndEvent
    from yaml.nodes import ScalarNode

    try:
        loader = Loader(text)
        try:
            get, check, resolve = loader.get_event, loader.check_event, loader.resolve
            constructors = loader.yaml_constructors
            # the items read so far of each open collection; the root lands
            # in the outermost list
            items: list = []
            open_: list[list] = []
            get()  # stream start
            if check(StreamEndEvent):
                get()
                return None
            get()  # document start
            while True:
                event = get()
                cls = event.__class__
                if cls is MappingEndEvent or cls is SequenceEndEvent:
                    value, items = items, open_.pop()
                    if cls is MappingEndEvent:
                        pairs = iter(value)
                        # TypeError for an unhashable key; a repeated key
                        # keeps its first place and its last value
                        value = dict(zip(pairs, pairs))
                # an alias always names its anchor, so it is declined here
                elif event.anchor is not None or event.tag is not None:
                    raise _Declined
                elif cls is ScalarEvent:
                    tag = resolve(ScalarNode, event.value, event.implicit)
                    if tag == _STR_TAG:
                        value = event.value
                    else:
                        # a tag without a constructor (a merge key among them)
                        # raises KeyError here
                        value = constructors[tag](loader, ScalarNode(
                            tag, event.value, event.start_mark, event.end_mark,
                            event.style))
                else:
                    # the start of a collection: no path resolvers are
                    # registered, so an untagged one is a map or a seq
                    if len(open_) == _DEEPEST:
                        raise _Declined
                    open_.append(items)
                    items = []
                    continue
                items.append(value)
                if not open_:
                    break
            get()  # document end
            if not check(StreamEndEvent):
                raise _Declined  # a second document
            get()
            return items[0]
        finally:
            loader.dispose()
    except Exception:
        # The one broad catch: whatever stopped the walk, declined, malformed
        # or unforeseen, the reference implementation parses the document
        # again and gives its value or raises its error.
        return yaml.load(text, Loader=Loader)


def parse_descriptors(text: str, origin: str = "<string>") -> list[OpInfo]:
    """Parse one YAML descriptor document into OpInfo entries.

    The text is read by the event walk, which loads PyYAML; a JSON text is
    read as the YAML flow style it is. Errors name the entry index and
    field path. An empty ``ops: []`` document is valid and yields an empty
    list.
    """
    import yaml

    try:
        doc = _load_yaml(text, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as e:
        raise SchemaError(f"{origin}: not valid YAML: {e}") from e
    return read_document(doc, origin)


def read_document(doc: Any, origin: str) -> list[OpInfo]:
    """The OpInfo entries of one parsed descriptor document: ``None`` or a
    mapping whose one key, ``ops``, holds a list of entries."""
    return _read_document(doc, origin, {})


def _read_document(doc: Any, origin: str, shared: dict) -> list[OpInfo]:
    """``read_document`` with ``read_entry``'s ``shared`` table, which a
    build may pass through several documents."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict) or set(doc) - {"ops"}:
        raise SchemaError(f"{origin}: document must be a mapping with an 'ops' list")
    entries = doc.get("ops", [])
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise SchemaError(f"{origin}: 'ops' must be a list")

    infos: list[OpInfo] = []
    seen: set[tuple[str, str, str]] = set()
    for i, entry in enumerate(entries):
        info = read_entry(entry, origin, f"ops[{i}]", shared)
        key = (info.name, info.signature_string(), info.source)
        if key in seen:
            raise _fail(
                origin, f"ops[{i}]", f"duplicate op (name, signature, source): {key}"
            )
        seen.add(key)
        infos.append(info)
    return infos


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _content_line(info: OpInfo) -> str:
    deps = ";".join(
        f"{d.field}:{d.op_name}:{d.kind.value}:{','.join(map(str, d.signature))}"
        for d in info.dependencies
    )
    return "|".join(
        [
            ",".join(info.names),
            info.kind.value,
            repr(info.priority),
            info.source,
            info.signature_string(),
            deps,
        ]
    )


def _missing_binding(source: str) -> Callable:
    def body(*_args, **_kwargs):
        raise ExecutionError(f"no binding registered for {source}")

    return body


class OpEnvironment:
    """A sealed, canonically ordered collection of ops plus their bindings.

    Construction applies optional-parameter reduction, sorts entries by
    (priority desc, canonical name asc, source asc), builds the name index
    and the matcher's tables, resolves the dependency plans that no request
    can change (``matcher.fixed_dependencies``), verifies bindings, and
    freezes everything. A name's matcher rows (``name_rows``) are built
    once, at the first match that looks the name up.
    Matching state (cache, counters), the execution history, and progress
    listeners live alongside but never alter the registered content; the
    content hash covers only the op entries. The plan cache is the one
    state that grows per call; the history only counts its records, which
    live on the values. No plan holds the environment, so dropping its last
    reference frees it and its cache.
    """

    def __init__(
        self,
        infos: Iterable[OpInfo],
        bindings: Mapping[str, Callable],
        *,
        hierarchy: TypeHierarchy | None = None,
        describe_table: DescriptorTable | None = None,
        cache_enabled: bool = True,
        pool=None,
    ):
        seen: set[tuple[str, str, str]] = set()
        ordered: list[tuple] = []
        for info in infos:
            for variant in reduce_optional(info):
                signature = variant.signature_string()
                key = (variant.name, signature, variant.source)
                if key in seen:
                    raise RegistrationError(
                        f"duplicate op (name, signature, source): {key}"
                    )
                seen.add(key)
                # canonical order; no two keys tie, so no OpInfo is compared
                ordered.append(
                    (-variant.priority, variant.name, variant.source, signature, variant)
                )
        ordered.sort()
        self._infos = tuple(row[-1] for row in ordered)
        by_name: dict[str, list[OpInfo]] = {}
        for info in self._infos:
            for name in set(info.names):
                by_name.setdefault(name, []).append(info)
        self._by_name = {name: tuple(found) for name, found in by_name.items()}
        self.hierarchy = hierarchy if hierarchy is not None else TypeHierarchy()
        self.name_rows, self.convert_rows, self.copy_rows = matcher_tables(
            self._by_name, self.hierarchy
        )
        # the built rows, one attribute away from the matcher: each uncached
        # match reads them
        self.direct = self.name_rows.direct
        self.shaped = self.name_rows.shaped
        # fixed dependency plans resolve against those tables with the plan
        # cache off, so a fresh environment's cache is empty either way
        self.cache_enabled = False
        self.fixed_deps: dict[int, tuple] = {}
        fixed_dependencies(self)

        resolved: dict[str, Callable] = {}
        for info in self._infos:
            if info.source in bindings:
                resolved[info.source] = bindings[info.source]
            elif info.source.split(":", 1)[0] in _STRICT_SCHEMES:
                raise RegistrationError(
                    "zero-code wrapping requires a registered binding: "
                    f"{info.source}"
                )
            else:
                resolved[info.source] = _missing_binding(info.source)
        self._bindings = resolved

        self.describe_table = (
            describe_table if describe_table is not None else DescriptorTable()
        )
        self.cache_enabled = cache_enabled

        self.cache = MatchCache()
        self.history = OpHistory()
        self.pool = pool if pool is not None else ComputePool(1)
        self._listeners: list[Callable] = []
        self._match_calls = 0

    @property
    def infos(self) -> tuple[OpInfo, ...]:
        return self._infos

    @cached_property
    def content_hash(self) -> str:
        """sha256 of the op entries in canonical order, made on first read."""
        # imported here, so that an environment nobody hashes never loads OpenSSL
        import hashlib

        sha = hashlib.sha256()
        for info in self._infos:
            sha.update(_content_line(info).encode())
            sha.update(b"\n")
        return sha.hexdigest()

    def binding(self, source: str) -> Callable:
        return self._bindings[source]

    def candidates(self, name: str) -> tuple[OpInfo, ...]:
        """All entries carrying the name (canonical or alias), canonical order."""
        return self._by_name.get(name, ())

    def distinct_names(self) -> list[str]:
        return sorted({info.name for info in self._infos})

    # -- matching -----------------------------------------------------------

    def match(self, request):
        # Unsynchronized bump: the counter is diagnostic, never load-bearing.
        self._match_calls += 1
        return match(self, request)

    @property
    def match_calls(self) -> int:
        return self._match_calls

    # -- execution ----------------------------------------------------------

    # env.op(name) -> OpBuilder, the first step of every builder call
    op = new_builder

    def help(self, query: str = "", verbose: bool = False) -> str:
        return help_text(self, query, verbose=verbose)

    def add_progress_listener(self, listener: Callable) -> None:
        self._listeners.append(listener)  # atomic: needs no lock


def read_descriptor_files(descriptor_paths: Iterable[str | Path]) -> list[OpInfo]:
    """The entries of descriptor files, a directory standing for its
    ``*.yaml`` files in name order."""
    files: list[Path] = []
    for p in descriptor_paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.yaml")))
        else:
            files.append(path)
    infos: list[OpInfo] = []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except OSError as e:
            raise RegistrationError(f"unreadable descriptor file {f}: {e}") from e
        infos.extend(parse_descriptors(text, origin=str(f)))
    return infos


def build_environment(
    descriptor_paths: Sequence[str | Path],
    bindings: Mapping[str, Callable],
    *,
    hierarchy: TypeHierarchy | None = None,
    describe_table: DescriptorTable | None = None,
    cache_enabled: bool = True,
    pool=None,
) -> OpEnvironment:
    """Parse descriptor files (or directories of ``*.yaml``) into an environment.

    The resulting environment is independent of file order: entries are
    re-sorted canonically. Unreadable files and schema violations raise.
    """
    return OpEnvironment(
        read_descriptor_files(descriptor_paths),
        bindings,
        hierarchy=hierarchy,
        describe_table=describe_table,
        cache_enabled=cache_enabled,
        pool=pool,
    )
