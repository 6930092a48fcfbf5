"""Nominal semantic types, the subtype hierarchy, and readable descriptions.

Types are pure names with optional covariant parameters; no structural or
reflective typing is performed. A type variable (written with a leading tick,
``'E``) may appear only in registered op signatures and adapter patterns,
never in requests. Parameterized types are covariant in every position;
variance subtleties are deliberately out of scope for this model.

All classes here are immutable after construction and safe to share across
threads.

Also here: the two small vocabularies every layer shares, an op's
functional Kind and a parameter's Io role.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Mapping

from .errors import RegistrationError, TypeSyntaxError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Io(Enum):
    INPUT = "input"
    CONTAINER = "container"
    MUTABLE = "mutable"
    OUTPUT = "output"


class Kind(Enum):
    FUNCTION = "function"
    COMPUTER = "computer"
    INPLACE = "inplace"


class SemanticType:
    """A nominal type: base name plus ordered type parameters.

    Instances render canonically as ``Name`` or ``Name<P1, P2>`` and, for
    variables, as ``'Name``. The canonical string is precomputed because it
    doubles as a cache key component.
    """

    __slots__ = ("base", "params", "is_var", "_str", "_hash", "_concrete")

    def __init__(
        self,
        base: str,
        params: Iterable["SemanticType"] = (),
        is_var: bool = False,
    ):
        params = tuple(params)
        if not _NAME_RE.fullmatch(base):
            raise TypeSyntaxError(f"invalid type name {base!r}", 0)
        if is_var:
            if params:
                raise TypeSyntaxError("type variables take no parameters", 0)
            text = "'" + base
            concrete = False
        elif params:
            text = base + "<" + ", ".join([p._str for p in params]) + ">"
            concrete = True
            for p in params:
                if not p._concrete:
                    concrete = False
                    break
        else:
            text = base
            concrete = True
        _set_base(self, base)
        _set_params(self, params)
        _set_is_var(self, is_var)
        _set_str(self, text)
        _set_hash(self, hash(text))
        _set_concrete(self, concrete)

    def __setattr__(self, name, value):
        raise AttributeError("SemanticType is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the type through the constructor: the slots
        # cannot be set from outside, and the hash slot holds hash(text),
        # which differs between processes under hash randomization
        return SemanticType, (self.base, self.params, self.is_var)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"SemanticType({self._str!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, SemanticType) and self._str == other._str

    def __hash__(self) -> int:
        return self._hash

    def variables(self) -> set[str]:
        """Names of all type variables occurring in this type."""
        if self.is_var:
            return {self.base}
        out: set[str] = set()
        for p in self.params:
            out |= p.variables()
        return out

    def is_concrete(self) -> bool:
        return self._concrete

    def substitute(self, bindings: Mapping[str, "SemanticType"]) -> "SemanticType":
        """Replace bound variables; unbound variables are left in place."""
        if self.is_var:
            return bindings.get(self.base, self)
        if not self.params:
            return self
        return SemanticType(self.base, [p.substitute(bindings) for p in self.params])


# Each slot's own setter, taken once: object.__setattr__ finds the slot by
# name on every call.
(_set_base, _set_params, _set_is_var, _set_str, _set_hash, _set_concrete) = (
    SemanticType.__dict__[slot].__set__ for slot in SemanticType.__slots__
)

_SPACE_RE = re.compile(r"\s*")
# One operand and the whitespace after it: ``'Var``, or ``Name`` with the
# ``<`` that opens its parameters, if any. ``\s`` and ``str.isspace`` name the
# same characters.
_OPERAND_RE = re.compile(r"\s*(?:'([A-Za-z][A-Za-z0-9_]*)|([A-Za-z][A-Za-z0-9_]*)\s*(<)?)\s*")


def _parse_at(text: str, pos: int) -> tuple[SemanticType, int]:
    """The type that starts at ``pos`` and the offset after it and the
    whitespace that follows it."""
    m = _OPERAND_RE.match(text, pos)
    if m is None:
        pos = _SPACE_RE.match(text, pos).end()
        if text.startswith("'", pos):
            pos += 1
        raise TypeSyntaxError("expected type name", pos)
    var, base, opened = m.groups()
    pos = m.end()
    if var is not None:
        return SemanticType(var, (), True), pos
    if opened is None:
        return SemanticType(base), pos
    params = []
    while True:
        param, pos = _parse_at(text, pos)
        params.append(param)
        ch = text[pos:pos + 1]
        if ch == ",":
            pos += 1
        elif ch == ">":
            return SemanticType(base, params), _SPACE_RE.match(text, pos + 1).end()
        else:
            raise TypeSyntaxError("expected ',' or '>'", pos)


def parse_type(text: str) -> SemanticType:
    """Parse ``Name``, ``Name<T1, T2>`` or ``'Var`` into a SemanticType.

    Whitespace around commas and angle brackets is ignored. Raises
    TypeSyntaxError with the character offset of the first problem.
    """
    t, pos = _parse_at(text, 0)
    if pos != len(text):
        raise TypeSyntaxError("unexpected trailing characters", pos)
    return t


class TypeHierarchy:
    """Acyclic set of subtype edges between base names.

    The transitive closure is built once at construction (Vitek, Horspool
    & Krall, "Efficient Type Inclusion Tests", OOPSLA 1997), so a path
    query is a set lookup. Adding an edge that would close a cycle is
    rejected.
    """

    def __init__(self, edges: Iterable[tuple[str, str]] = ()):
        supers: dict[str, set[str]] = {}
        for sub, sup in edges:
            for end in (sub, sup):
                # paths are asked for by base name, so any other end would
                # never apply
                if not isinstance(end, str):
                    raise RegistrationError(f"a subtype edge joins type names, got {end!r}")
            if sub == sup:
                raise RegistrationError(f"self edge {sub} -> {sup}")
            supers.setdefault(sub, set()).add(sup)
        self._ancestors = _close({k: frozenset(v) for k, v in supers.items()})

    def subtypes(self) -> Iterable[str]:
        """Every name with a declared supertype."""
        return self._ancestors.keys()

    def has_path(self, sub: str, sup: str) -> bool:
        """True when sub == sup or declared edges connect sub to sup."""
        return sub == sup or sup in self._ancestors.get(sub, ())


def _close(supers: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Each name's proper supertypes; raises on a cycle, naming its trail."""
    visiting: set[str] = set()
    ancestors: dict[str, frozenset[str]] = {}

    def visit(node: str, trail: list[str]) -> frozenset[str]:
        if node in ancestors:
            return ancestors[node]
        if node in visiting:
            cycle = " -> ".join(trail + [node])
            raise RegistrationError(f"cyclic type hierarchy: {cycle}")
        visiting.add(node)
        found = set(supers.get(node, ()))
        for sup in supers.get(node, ()):
            found |= visit(sup, trail + [node])
        visiting.discard(node)
        ancestors[node] = frozenset(found)
        return ancestors[node]

    for start in list(supers):
        visit(start, [])
    return ancestors


def is_assignable(
    frm: SemanticType,
    to: SemanticType,
    hierarchy: TypeHierarchy,
    bindings: dict[str, SemanticType] | None = None,
) -> bool:
    """Decide whether a value of type ``frm`` can be passed where ``to`` is wanted.

    ``frm`` must be concrete unless it equals ``to`` verbatim. When ``to``
    contains type variables, unification is attempted: a variable binds to
    the first concrete type it meets and later occurrences must bind to the
    same type. Bindings accumulate in the supplied dict so one call site can
    check several positions consistently.
    """
    if bindings is None:
        bindings = {}
    if to.is_var:
        if frm.is_var:
            return frm == to
        bound = bindings.get(to.base)
        if bound is None:
            bindings[to.base] = frm
            return True
        return bound == frm
    if frm.is_var:
        return False
    if len(frm.params) != len(to.params):
        return False
    if not hierarchy.has_path(frm.base, to.base):
        return False
    return all(
        is_assignable(fp, tp, hierarchy, bindings)
        for fp, tp in zip(frm.params, to.params)
    )


class DescriptorTable:
    """Maps base type names to short human descriptions.

    Unmapped names describe as themselves, so lookups never fail.
    """

    def __init__(self, entries: Mapping[str, str] | None = None):
        self._entries = dict(entries or {})
        for key, value in self._entries.items():
            if not value:
                raise RegistrationError(f"empty description for {key!r}")

    def lookup(self, base: str) -> str | None:
        return self._entries.get(base)


def describe_type(t: SemanticType, table: DescriptorTable) -> str:
    """Human description of a type.

    A mapped base name wins outright. Unmapped bases keep their name and
    describe parameters recursively as ``name<desc, desc>``.
    """
    if t.is_var:
        return str(t)
    mapped = table.lookup(t.base)
    if mapped is not None:
        return mapped
    if not t.params:
        return t.base
    inner = ", ".join(describe_type(p, table) for p in t.params)
    return f"{t.base}<{inner}>"
