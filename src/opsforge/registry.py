"""Op metadata, YAML descriptor parsing, and the sealed op environment.

An OpInfo is pure data: names, functional kind, typed parameters, declared
dependencies, and a source URI whose executable body is looked up in a
separate binding table. This split is what allows plain functions to be
exposed as ops through a YAML file alone.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import yaml

from .errors import ExecutionError, RegistrationError, SchemaError, TypeSyntaxError
from .execution import OpHistory, help_text, new_builder
from .matcher import MatchCache, match, matcher_tables
from .runtime import ComputePool
from .types import (
    DescriptorTable,
    Io,
    Kind,
    SemanticType,
    TypeHierarchy,
    parse_type,
)

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


def infer_kind(params: Sequence[ParamSpec]) -> Kind:
    """Derive the functional kind from io roles; raises on illegal combos."""
    outputs = sum(1 for p in params if p.io is Io.OUTPUT)
    containers = sum(1 for p in params if p.io is Io.CONTAINER)
    mutables = sum(1 for p in params if p.io is Io.MUTABLE)
    if (outputs, containers, mutables) == (1, 0, 0):
        return Kind.FUNCTION
    if (outputs, containers, mutables) == (0, 1, 0):
        return Kind.COMPUTER
    if (outputs, containers, mutables) == (0, 0, 1):
        return Kind.INPLACE
    raise RegistrationError(
        "io roles must contain exactly one of output/container/mutable, got "
        f"{outputs} output, {containers} container, {mutables} mutable"
    )


@dataclass(frozen=True)
class OpInfo:
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
        derived = infer_kind(self.params)
        if derived is not self.kind:
            raise RegistrationError(
                f"{self.name}: declared kind {self.kind.value} contradicts "
                f"io roles ({derived.value})"
            )
        for p in self.params:
            if p.optional and p.io is not Io.INPUT:
                raise RegistrationError(
                    f"{self.name}: only input parameters may be optional "
                    f"({p.name} is {p.io.value})"
                )
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

    @property
    def name(self) -> str:
        return self.names[0]

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.names[1:]

    @property
    def arg_params(self) -> tuple[ParamSpec, ...]:
        """Parameters a caller supplies: inputs plus the mutable one."""
        return tuple(p for p in self.params if p.io in (Io.INPUT, Io.MUTABLE))

    @property
    def special_param(self) -> ParamSpec:
        """The single output, container, or mutable parameter."""
        for p in self.params:
            if p.io in (Io.OUTPUT, Io.CONTAINER, Io.MUTABLE):
                return p
        raise AssertionError("validated op always has a special param")

    @property
    def mutable_index(self) -> int | None:
        """Index of the mutable parameter among arg_params, for INPLACE."""
        if self.kind is not Kind.INPLACE:
            return None
        for i, p in enumerate(self.arg_params):
            if p.io is Io.MUTABLE:
                return i
        raise AssertionError("inplace op always has a mutable param")

    def signature_string(self) -> str:
        parts = ",".join(f"{p.io.value}:{p.type}" for p in self.params)
        return f"{self.kind.value}({parts})"


def reduce_optional(info: OpInfo) -> list[OpInfo]:
    """Expand an op into itself plus its optional-suffix reductions.

    Optional inputs must form a trailing run among the input parameters.
    Each generated variant removes one more optional input from the right
    and pays a small priority penalty so fuller matches win ties.
    """
    if info.reduced_from is not None:
        return [info]
    inputs = [i for i, p in enumerate(info.params) if p.io is Io.INPUT]
    flags = [info.params[i].optional for i in inputs]
    n_opt = sum(flags)
    if n_opt == 0:
        return [info]
    if flags != [False] * (len(flags) - n_opt) + [True] * n_opt:
        raise RegistrationError(f"{info.name}: optional parameters must be trailing")
    variants = [info]
    for k in range(1, n_opt + 1):
        removed = set(inputs[len(inputs) - k:])
        params = tuple(
            replace(p, optional=False)
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


def _parse_type_at(origin: str, path: str, text: Any) -> SemanticType:
    if not isinstance(text, str):
        raise _fail(origin, path, f"expected a type string, got {text!r}")
    try:
        return parse_type(text)
    except TypeSyntaxError as e:
        raise _fail(origin, path, str(e)) from e


def parse_descriptors(text: str, origin: str = "<string>") -> list[OpInfo]:
    """Parse one YAML descriptor document into OpInfo entries.

    Errors name the entry index and field path. An empty ``ops: []``
    document is valid and yields an empty list.
    """
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as e:
        raise SchemaError(f"{origin}: not valid YAML: {e}") from e
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
        path = f"ops[{i}]"
        if not isinstance(entry, dict):
            raise _fail(origin, path, "entry must be a mapping")
        unknown = set(entry) - _ENTRY_KEYS
        if unknown:
            raise _fail(origin, path, f"unknown keys {sorted(unknown)}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise _fail(origin, f"{path}.name", "required string")
        aliases = entry.get("aliases", [])
        if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
            raise _fail(origin, f"{path}.aliases", "must be a list of strings")
        source = entry.get("source")
        if not isinstance(source, str) or not source:
            raise _fail(origin, f"{path}.source", "required string")
        priority = entry.get("priority", 0.0)
        if isinstance(priority, bool) or not isinstance(priority, (int, float)):
            raise _fail(origin, f"{path}.priority", "must be a number")
        description = entry.get("description", "")
        if not isinstance(description, str):
            raise _fail(origin, f"{path}.description", "must be a string")

        raw_params = entry.get("parameters")
        if not isinstance(raw_params, list):
            raise _fail(origin, f"{path}.parameters", "required list")
        optional_names = entry.get("optional", [])
        if not isinstance(optional_names, list) or not all(
            isinstance(n, str) for n in optional_names
        ):
            raise _fail(origin, f"{path}.optional", "must be a list of names")
        params: list[ParamSpec] = []
        for j, rp in enumerate(raw_params):
            ppath = f"{path}.parameters[{j}]"
            if not isinstance(rp, dict):
                raise _fail(origin, ppath, "parameter must be a mapping")
            unknown = set(rp) - _PARAM_KEYS
            if unknown:
                raise _fail(origin, ppath, f"unknown keys {sorted(unknown)}")
            pname = rp.get("name")
            if not isinstance(pname, str) or not pname:
                raise _fail(origin, f"{ppath}.name", "required string")
            io_text = rp.get("io")
            try:
                io = Io(io_text)
            except ValueError:
                raise _fail(
                    origin,
                    f"{ppath}.io",
                    f"must be one of input/container/mutable/output, got {io_text!r}",
                ) from None
            ptype = _parse_type_at(origin, f"{ppath}.type", rp.get("type"))
            pdesc = rp.get("description", "")
            if not isinstance(pdesc, str):
                raise _fail(origin, f"{ppath}.description", "must be a string")
            params.append(
                ParamSpec(
                    pname,
                    ptype,
                    io,
                    optional=pname in optional_names,
                    description=pdesc,
                )
            )
        param_names = {p.name for p in params}
        for oname in optional_names:
            if oname not in param_names:
                raise _fail(
                    origin, f"{path}.optional", f"unknown parameter {oname!r}"
                )

        raw_deps = entry.get("dependencies", [])
        if not isinstance(raw_deps, list):
            raise _fail(origin, f"{path}.dependencies", "must be a list")
        deps: list[DependencySpec] = []
        for j, rd in enumerate(raw_deps):
            dpath = f"{path}.dependencies[{j}]"
            if not isinstance(rd, dict):
                raise _fail(origin, dpath, "dependency must be a mapping")
            unknown = set(rd) - _DEP_KEYS
            if unknown:
                raise _fail(origin, dpath, f"unknown keys {sorted(unknown)}")
            dfield = rd.get("field")
            dname = rd.get("name")
            if not isinstance(dfield, str) or not dfield:
                raise _fail(origin, f"{dpath}.field", "required string")
            if not isinstance(dname, str) or not dname:
                raise _fail(origin, f"{dpath}.name", "required string")
            try:
                dkind = Kind(rd.get("kind"))
            except ValueError:
                raise _fail(
                    origin,
                    f"{dpath}.kind",
                    "must be one of function/computer/inplace",
                ) from None
            raw_sig = rd.get("signature")
            if not isinstance(raw_sig, list) or not raw_sig:
                raise _fail(origin, f"{dpath}.signature", "required non-empty list")
            sig = tuple(
                _parse_type_at(origin, f"{dpath}.signature[{k}]", t)
                for k, t in enumerate(raw_sig)
            )
            deps.append(DependencySpec(dfield, dname, dkind, sig))

        kind_text = entry.get("kind")
        try:
            derived = infer_kind(params)
        except RegistrationError as e:
            raise _fail(origin, f"{path}.parameters", str(e)) from e
        if kind_text is not None:
            try:
                declared = Kind(kind_text)
            except ValueError:
                raise _fail(
                    origin,
                    f"{path}.kind",
                    "must be one of function/computer/inplace",
                ) from None
            if declared is not derived:
                raise _fail(
                    origin,
                    f"{path}.kind",
                    f"declared {declared.value} but io roles imply {derived.value}",
                )

        try:
            info = OpInfo(
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

        key = (info.name, info.signature_string(), info.source)
        if key in seen:
            raise _fail(
                origin, path, f"duplicate op (name, signature, source): {key}"
            )
        seen.add(key)
        infos.append(info)
    return infos


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _canonical_key(info: OpInfo) -> tuple:
    return (-info.priority, info.name, info.source, info.signature_string())


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
    and the matcher's tables, verifies bindings, and freezes everything.
    Matching state (cache, counters), the execution history, and progress
    listeners live alongside but never alter the registered content; the
    content hash covers only the op entries.
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
        expanded: list[OpInfo] = []
        for info in infos:
            expanded.extend(reduce_optional(info))
        seen: set[tuple[str, str, str]] = set()
        for info in expanded:
            key = (info.name, info.signature_string(), info.source)
            if key in seen:
                raise RegistrationError(
                    f"duplicate op (name, signature, source): {key}"
                )
            seen.add(key)
        expanded.sort(key=_canonical_key)
        self._infos = tuple(expanded)
        by_name: dict[str, list[OpInfo]] = {}
        for info in self._infos:
            for name in set(info.names):
                by_name.setdefault(name, []).append(info)
        self._by_name = {name: tuple(found) for name, found in by_name.items()}
        self.hierarchy = hierarchy if hierarchy is not None else TypeHierarchy()
        self.shaped, self.converts, self.copies = matcher_tables(
            self._by_name, self.hierarchy
        )

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

        sha = hashlib.sha256()
        for info in self._infos:
            sha.update(_content_line(info).encode())
            sha.update(b"\n")
        self.content_hash = sha.hexdigest()

        self.cache = MatchCache()
        self.history = OpHistory()
        self.pool = pool if pool is not None else ComputePool(1)
        self._listeners: tuple[Callable, ...] = ()
        self._listener_lock = threading.Lock()
        self._match_calls = 0

    @property
    def infos(self) -> tuple[OpInfo, ...]:
        return self._infos

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
        with self._listener_lock:
            self._listeners = (*self._listeners, listener)


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
    return OpEnvironment(
        infos,
        bindings,
        hierarchy=hierarchy,
        describe_table=describe_table,
        cache_enabled=cache_enabled,
        pool=pool,
    )
