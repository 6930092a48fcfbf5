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
        if is_var and params:
            raise TypeSyntaxError("type variables take no parameters", 0)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "is_var", is_var)
        if is_var:
            text = f"'{base}"
        elif params:
            text = f"{base}<{', '.join(str(p) for p in params)}>"
        else:
            text = base
        object.__setattr__(self, "_str", text)
        object.__setattr__(self, "_hash", hash(text))
        object.__setattr__(
            self,
            "_concrete",
            not is_var and all(p._concrete for p in params),
        )

    def __setattr__(self, name, value):
        raise AttributeError("SemanticType is immutable")

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TypeSyntaxError:
        return TypeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> SemanticType:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            self.pos += 1
            return SemanticType(self.name(), is_var=True)
        base = self.name()
        params: list[SemanticType] = []
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "<":
            self.pos += 1
            params.append(self.parse())
            while True:
                self.skip_ws()
                if self.pos >= len(self.text):
                    raise self.error("expected ',' or '>'")
                ch = self.text[self.pos]
                if ch == ",":
                    self.pos += 1
                    params.append(self.parse())
                elif ch == ">":
                    self.pos += 1
                    break
                else:
                    raise self.error("expected ',' or '>'")
        return SemanticType(base, params)

    def name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected type name")
        self.pos = m.end()
        return m.group()


def parse_type(text: str) -> SemanticType:
    """Parse ``Name``, ``Name<T1, T2>`` or ``'Var`` into a SemanticType.

    Whitespace around commas and angle brackets is ignored. Raises
    TypeSyntaxError with the character offset of the first problem.
    """
    p = _Parser(text)
    t = p.parse()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing characters")
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
