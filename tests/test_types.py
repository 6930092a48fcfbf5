"""Type grammar, assignability, and description behavior."""

import re
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from opsforge.errors import RegistrationError, TypeSyntaxError
from opsforge.stdlib import default_hierarchy
from opsforge.types import (
    DescriptorTable,
    SemanticType,
    TypeHierarchy,
    describe_type,
    is_assignable,
    parse_type,
)

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)


def _types(depth: int = 2) -> st.SearchStrategy:
    if depth == 0:
        return st.builds(SemanticType, _names)
    return st.builds(
        SemanticType,
        _names,
        st.lists(_types(depth - 1), max_size=3),
    )


def test_parse_atomic():
    t = parse_type("Integer")
    assert t.base == "Integer"
    assert t.params == ()
    assert not t.is_var


def test_parse_one_parameter():
    t = parse_type("List<Integer>")
    assert t.base == "List"
    assert t.params == (SemanticType("Integer"),)


def test_parse_unclosed_bracket_offset():
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("List<Integer")
    assert err.value.offset == 12


def test_parse_variable():
    t = parse_type("'E")
    assert t.is_var and t.base == "E"
    assert not t.is_concrete()


@pytest.mark.parametrize(
    "bad",
    ["", "<Integer>", "List<>", "List<Integer,>", "1Type", "'E<Integer>"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(TypeSyntaxError):
        parse_type(bad)


def test_parse_ignores_whitespace():
    assert parse_type("Map< Text , Integer >") == parse_type("Map<Text,Integer>")


@given(_types())
def test_print_parse_round_trip(t):
    assert parse_type(str(t)) == t


def test_hierarchy_rejects_cycles():
    with pytest.raises(RegistrationError):
        TypeHierarchy([("A", "B"), ("B", "C"), ("C", "A")])


def test_default_hierarchy_joins_both_images_to_image():
    h = default_hierarchy()
    assert h.has_path("ImageU8", "Image") and h.has_path("ImageF64", "Image")
    assert not h.has_path("Image", "ImageU8")


@pytest.mark.parametrize("edge", [(parse_type("ImageU8"), "Image"), ("ImageU8", parse_type("Image"))])
def test_hierarchy_rejects_an_edge_end_that_is_not_a_type_name(edge):
    # paths are asked for by base name, so such an edge would never apply
    with pytest.raises(RegistrationError, match="joins type names"):
        TypeHierarchy([edge])


def test_assignable_reflexive():
    h = TypeHierarchy()
    assert is_assignable(parse_type("ImageU8"), parse_type("ImageU8"), h)


def test_assignable_along_declared_edge():
    h = TypeHierarchy([("ImageU8", "Image"), ("ImageF64", "Image")])
    assert is_assignable(parse_type("ImageU8"), parse_type("Image"), h)
    assert is_assignable(parse_type("ImageF64"), parse_type("Image"), h)


def test_siblings_not_assignable():
    h = TypeHierarchy([("ImageU8", "Image"), ("ImageF64", "Image")])
    assert not is_assignable(parse_type("ImageU8"), parse_type("ImageF64"), h)
    assert not is_assignable(parse_type("Image"), parse_type("ImageU8"), h)


def test_assignable_covariant_params():
    h = TypeHierarchy([("ImageU8", "Image")])
    assert is_assignable(parse_type("List<ImageU8>"), parse_type("List<Image>"), h)
    assert not is_assignable(parse_type("List<Image>"), parse_type("List<ImageU8>"), h)


def test_arity_mismatch_not_assignable():
    h = TypeHierarchy()
    assert not is_assignable(parse_type("Map<Text,Text>"), parse_type("Map<Text>"), h)


def test_unification_binds_consistently():
    h = TypeHierarchy()
    bindings = {}
    assert is_assignable(parse_type("Integer"), parse_type("'E"), h, bindings)
    assert bindings["E"] == parse_type("Integer")
    # second occurrence of 'E must see the same binding
    assert is_assignable(parse_type("Integer"), parse_type("'E"), h, bindings)
    assert not is_assignable(parse_type("Real"), parse_type("'E"), h, bindings)


def test_unification_inside_parameters():
    h = TypeHierarchy()
    bindings = {}
    assert is_assignable(
        parse_type("Pair<Integer, Integer>"), parse_type("Pair<'E, 'E>"), h, bindings
    )
    assert not is_assignable(
        parse_type("Pair<Integer, Real>"), parse_type("Pair<'E, 'E>"), h
    )


@given(st.data())
def test_assignable_transitive_along_chains(data):
    # chain A0 -> A1 -> ... -> An declared pairwise; every prefix must reach
    # every suffix through computed transitivity
    n = data.draw(st.integers(min_value=2, max_value=6))
    names = [f"T{i}" for i in range(n)]
    h = TypeHierarchy(list(zip(names, names[1:])))
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    assert is_assignable(SemanticType(names[i]), SemanticType(names[j]), h)
    assert not is_assignable(SemanticType(names[j]), SemanticType(names[i]), h)


def test_substitute_replaces_variables():
    t = parse_type("Function<'A, 'O>")
    out = t.substitute({"A": parse_type("ByteArray"), "O": parse_type("ByteArray")})
    assert str(out) == "Function<ByteArray, ByteArray>"
    assert out.is_concrete()


def test_describe_images_share_one_word():
    table = DescriptorTable({"ImageU8": "image", "ImageF64": "image"})
    assert describe_type(parse_type("ImageU8"), table) == "image"
    assert describe_type(parse_type("ImageF64"), table) == "image"


def test_describe_unmapped_falls_back_to_name():
    table = DescriptorTable({})
    assert describe_type(parse_type("UnmappedThing"), table) == "UnmappedThing"


def test_describe_recurses_only_when_base_unmapped():
    table = DescriptorTable({"List": "sequence", "Integer": "integer"})
    assert describe_type(parse_type("List<Integer>"), table) == "sequence"
    assert describe_type(parse_type("Pair<Integer, Real>"), table) == "Pair<integer, Real>"


@given(_types())
def test_describe_never_empty(t):
    table = DescriptorTable({"ImageU8": "image"})
    assert describe_type(t, table)


def test_descriptor_table_rejects_empty_description():
    with pytest.raises(RegistrationError):
        DescriptorTable({"X": ""})


def test_type_names_limited_to_identifier_characters():
    for ch in string.punctuation.replace("_", ""):
        with pytest.raises(TypeSyntaxError):
            parse_type(f"Bad{ch}Name")


# -- the closure agrees with a search over the declared edges ----------------

_NODES = [f"N{i}" for i in range(8)]


def _reference_supers(edges):
    supers = {}
    for sub, sup in edges:
        supers.setdefault(sub, set()).add(sup)
    return {k: frozenset(v) for k, v in supers.items()}


def _reference_has_path(supers, sub, sup):
    """Breadth-first search over declared edges, as has_path did per query."""
    if sub == sup:
        return True
    seen, queue = {sub}, list(supers.get(sub, ()))
    while queue:
        node = queue.pop(0)
        if node == sup:
            return True
        if node not in seen:
            seen.add(node)
            queue.extend(supers.get(node, ()))
    return False


def _reference_cycle_message(supers):
    """The message the per-query hierarchy gave for a cycle, or None."""
    visiting, done = set(), set()

    def visit(node, trail):
        if node in done:
            return None
        if node in visiting:
            return "cyclic type hierarchy: " + " -> ".join(trail + [node])
        visiting.add(node)
        for sup in supers.get(node, ()):
            found = visit(sup, trail + [node])
            if found is not None:
                return found
        visiting.discard(node)
        done.add(node)
        return None

    for start in list(supers):
        found = visit(start, [])
        if found is not None:
            return found
    return None


@given(st.data())
def test_closure_has_path_agrees_with_search_over_random_dags(data):
    # edges only run from a lower to a higher index, so the graph is acyclic
    pairs = [(a, b) for i, a in enumerate(_NODES) for b in _NODES[i + 1:]]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=16))
    edges = data.draw(st.permutations(edges))
    h = TypeHierarchy(edges)
    supers = _reference_supers(edges)
    for sub in [*_NODES, "Other"]:
        for sup in [*_NODES, "Other"]:
            assert h.has_path(sub, sup) == _reference_has_path(supers, sub, sup)


@given(st.data())
def test_cycle_rejection_message_is_unchanged(data):
    edges = data.draw(
        st.lists(
            st.tuples(st.sampled_from(_NODES[:5]), st.sampled_from(_NODES[:5])).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=10,
        )
    )
    expected = _reference_cycle_message(_reference_supers(edges))
    if expected is None:
        TypeHierarchy(edges)
        return
    with pytest.raises(RegistrationError) as info:
        TypeHierarchy(edges)
    assert str(info.value) == expected


# -- the type reader against its earlier, character-by-character form -------


_REFERENCE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _ReferenceParser:
    """The reader parse_type used before it matched whole operands by regex."""

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
        m = _REFERENCE_NAME.match(self.text, self.pos)
        if not m:
            raise self.error("expected type name")
        self.pos = m.end()
        return m.group()


def _reference_parse_type(text: str) -> SemanticType:
    p = _ReferenceParser(text)
    t = p.parse()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing characters")
    return t


def _outcome(parse, text):
    """The type a reader gives, with its string, or its error and offset."""
    try:
        t = parse(text)
    except TypeSyntaxError as e:
        return ("error", str(e), e.offset)
    return ("type", t, str(t))


_SPACES = st.text(st.sampled_from(" \t\n\u00a0\u2003"), max_size=2)
_LEAF_NAMES = st.sampled_from(["A", "b", "Real", "List", "Map_2", "x1"])
_TREES = st.recursive(
    st.builds(SemanticType, _LEAF_NAMES, is_var=st.booleans()),
    lambda inner: st.builds(SemanticType, _LEAF_NAMES, st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6,
)


@st.composite
def _spaced(draw):
    """A drawn type, rendered with drawn whitespace wherever the grammar allows it."""
    t = draw(_TREES)

    def render(t):
        if t.is_var:
            return "'" + t.base
        if not t.params:
            return t.base
        inner = ",".join(draw(_SPACES) + render(p) + draw(_SPACES) for p in t.params)
        return t.base + draw(_SPACES) + "<" + inner + ">"

    return t, draw(_SPACES) + render(t) + draw(_SPACES)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_spaced())
def test_spaced_types_read_as_the_type_they_render(drawn):
    t, text = drawn
    got = parse_type(text)
    assert got == t and str(got) == str(t)
    assert _outcome(parse_type, text) == _outcome(_reference_parse_type, text)


@st.composite
def _malformed(draw):
    """A rendered type, cut short or with one character put in, dropped or replaced."""
    _, text = draw(_spaced())
    edit = draw(st.sampled_from(["cut", "put", "drop", "swap"]))
    at = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from("<>,' A_1"))
    if edit == "cut":
        return text[:at]
    if edit == "put":
        return text[:at] + ch + text[at:]
    if edit == "drop":
        return text[:at] + text[at + 1:]
    return text[:at] + ch + text[at + 1:]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_malformed())
def test_malformed_types_fail_where_the_reference_fails(text):
    assert _outcome(parse_type, text) == _outcome(_reference_parse_type, text)


def test_regex_whitespace_is_str_isspace():
    # the reader skips whitespace with \s, the reference with str.isspace
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == list(filter(str.isspace, chars))
