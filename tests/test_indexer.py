"""Comment scanning, tag parsing, YAML emission, and their round-trips."""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opsforge.indexer import (
    emit_yaml,
    extract_blocks,
    index_directory,
    parse_block,
)
from opsforge.registry import Kind, parse_descriptors

COPY_BLOCK = textwrap.dedent(
    """\
    /**
     * Copies a byte array into a preallocated buffer.
     * @implNote op names='copy.array'
     * @input src ByteArray bytes to copy
     * @container dst ByteArray receives the bytes
     */
    """
)


def _parse_text(text, rel="demo.java"):
    blocks = extract_blocks(text)
    assert len(blocks) == 1
    start, block = blocks[0]
    return parse_block(rel, start, block)


# -- block extraction -----------------------------------------------------------


def test_extract_slash_run():
    text = "int x;\n/// one\n/// two\nint y;\n"
    blocks = extract_blocks(text)
    assert blocks == [(2, [(2, "one"), (3, "two")])]


def test_extract_star_block():
    blocks = extract_blocks(COPY_BLOCK)
    assert blocks[0][0] == 1
    assert [t for _, t in blocks[0][1]][:2] == [
        "Copies a byte array into a preallocated buffer.",
        "@implNote op names='copy.array'",
    ]


def test_extract_single_line_star_block():
    blocks = extract_blocks("/** terse */\n")
    assert blocks == [(1, [(1, "terse")])]


def test_extract_nothing_from_plain_code():
    assert extract_blocks("x = 1\n# not a doc comment\n") == []


# -- tag parsing ------------------------------------------------------------------


def test_fig3_style_block_becomes_computer_entry():
    entry, diags = _parse_text(COPY_BLOCK)
    assert diags == []
    assert entry["name"] == "copy.array"
    assert entry["kind"] == "computer"
    assert entry["source"] == "indexed:demo.java#L1"
    assert entry["description"] == "Copies a byte array into a preallocated buffer."
    assert [p["io"] for p in entry["parameters"]] == ["input", "container"]


def test_block_without_impl_note_is_ignored():
    text = "/// just prose\n/// no tags here\n"
    start, block = extract_blocks(text)[0]
    entry, diags = parse_block("a.txt", start, block)
    assert entry is None
    assert diags == []


def test_names_attribute_required():
    entry, diags = _parse_text("/// @implNote op priority='5'\n", rel="x.py")
    assert entry is None
    assert len(diags) == 1
    assert diags[0].render().startswith("x.py:1: ")
    assert "names" in diags[0].message


def test_multiple_names_become_aliases():
    entry, _ = _parse_text(
        "/// @implNote op names='math.plus, math.add'\n"
        "/// @input a Integer\n"
        "/// @input b Integer\n"
        "/// @output Integer\n"
    )
    assert entry["name"] == "math.plus"
    assert entry["aliases"] == ["math.add"]


def test_priority_must_be_numeric():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b' priority='abc'\n/// @output Integer\n"
    )
    assert entry is None
    assert "priority" in diags[0].message


def test_nan_priority_rejected():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b' priority='nan'\n/// @output Integer\n"
    )
    assert entry is None
    assert diags[0].render() == (
        "demo.java:1: demo.java#L1: ops[0].priority: must be a number"
    )


def test_two_outputs_rejected():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b'\n"
        "/// @input x Integer\n"
        "/// @output Integer\n"
        "/// @output Real\n"
    )
    assert entry is None
    assert "found 2" in diags[0].message


def test_no_special_parameter_rejected():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b'\n/// @input x Integer\n"
    )
    assert entry is None
    assert "found 0" in diags[0].message


def test_unparsable_type_rejected():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b'\n/// @output List<\n"
    )
    assert entry is None
    assert len(diags) == 1


def test_unknown_tag_rejected():
    entry, diags = _parse_text(
        "/// @implNote op names='a.b'\n/// @banana x Integer\n"
    )
    assert entry is None
    assert "@banana" in diags[0].message


def test_tags_before_impl_note_allowed():
    entry, diags = _parse_text(
        "/// Doubles a number.\n"
        "/// @input x Real\n"
        "/// @implNote op names='math.double'\n"
        "/// @output Real\n"
    )
    assert diags == []
    assert entry["description"] == "Doubles a number."
    assert [p["name"] for p in entry["parameters"]] == ["x", "output"]


def test_continuation_lines_extend_parameter_description():
    entry, _ = _parse_text(
        "/// @implNote op names='a.b'\n"
        "/// @input x Real the first\n"
        "///   half of a long description\n"
        "/// @output Real\n"
    )
    assert entry["parameters"][0]["description"] == (
        "the first half of a long description"
    )


def test_diagnostics_carry_path_and_line():
    text = "/// filler\n/// @implNote op names='a.b'\n/// @output\n"
    start, block = extract_blocks(text)[0]
    entry, diags = parse_block("pkg/mod.rs", start, block)
    assert entry is None
    assert diags[0].render() == "pkg/mod.rs:3: @output needs a TYPE"


# -- yaml emission ----------------------------------------------------------------


def test_emitted_yaml_parses_back_to_equivalent_info():
    entry, _ = _parse_text(COPY_BLOCK)
    infos = parse_descriptors(emit_yaml([entry]))
    assert len(infos) == 1
    info = infos[0]
    assert info.name == "copy.array"
    assert info.kind is Kind.COMPUTER
    assert info.source == "indexed:demo.java#L1"
    assert len(info.params) == 2


def test_emit_empty_list():
    assert emit_yaml([]).strip() == "ops: []"


def test_emitted_key_order_is_fixed():
    entry, _ = _parse_text(COPY_BLOCK)
    text = emit_yaml([entry])
    positions = [text.index(key) for key in ("name:", "kind:", "priority:", "source:", "description:", "parameters:")]
    assert positions == sorted(positions)


_IDENT = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
_TYPE = st.sampled_from(["Integer", "Real", "ByteArray", "ImageF64", "Text"])


@st.composite
def _tag_blocks(draw):
    name = f"{draw(_IDENT)}.{draw(_IDENT)}"
    priority = draw(st.integers(min_value=-100, max_value=100))
    n_inputs = draw(st.integers(min_value=0, max_value=3))
    lines = [f"/// @implNote op names='{name}' priority='{priority}'"]
    used = set()
    for _ in range(n_inputs):
        pname = draw(_IDENT.filter(lambda s: s not in used))
        used.add(pname)
        lines.append(f"/// @input {pname} {draw(_TYPE)}")
    special = draw(st.sampled_from(["output", "container", "mutable"]))
    if special == "output":
        lines.append(f"/// @output {draw(_TYPE)}")
    else:
        pname = draw(_IDENT.filter(lambda s: s not in used))
        lines.append(f"/// @{special} {pname} {draw(_TYPE)}")
    return "\n".join(lines) + "\n", name, float(priority), n_inputs, special


@given(_tag_blocks())
def test_random_tag_sets_round_trip(case):
    text, name, priority, n_inputs, special = case
    entry, diags = _parse_text(text)
    assert diags == []
    infos = parse_descriptors(emit_yaml([entry]))
    assert len(infos) == 1
    info = infos[0]
    assert info.name == name
    assert info.priority == priority
    assert len(info.params) == n_inputs + 1
    expected_kind = {
        "output": Kind.FUNCTION,
        "container": Kind.COMPUTER,
        "mutable": Kind.INPLACE,
    }[special]
    assert info.kind is expected_kind


# -- directory scanning -------------------------------------------------------------


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_scan_single_tagged_file(tmp_path):
    _write(tmp_path, "demo.java", COPY_BLOCK)
    entries, diags = index_directory(tmp_path)
    assert diags == []
    assert len(entries) == 1
    assert entries[0]["source"] == "indexed:demo.java#L1"


def test_scan_empty_tree(tmp_path):
    (tmp_path / "sub").mkdir()
    entries, diags = index_directory(tmp_path)
    assert entries == []
    assert diags == []


def test_scan_orders_by_path_then_line(tmp_path):
    one = "/// @implNote op names='x.first'\n/// @output Integer\n"
    two = (
        "code\n/// @implNote op names='y.second'\n/// @output Integer\n"
        "more\n/// @implNote op names='y.third'\n/// @output Integer\n"
    )
    _write(tmp_path, "b/two.py", two)
    _write(tmp_path, "a/one.py", one)
    entries, _ = index_directory(tmp_path)
    assert [e["name"] for e in entries] == ["x.first", "y.second", "y.third"]
    assert entries[1]["source"] == "indexed:b/two.py#L2"
    assert entries[2]["source"] == "indexed:b/two.py#L5"


def test_scan_skips_binary_files(tmp_path):
    (tmp_path / "blob.bin").write_bytes(bytes([0xFF, 0xFE, 0x00, 0x80]))
    _write(tmp_path, "demo.java", COPY_BLOCK)
    entries, diags = index_directory(tmp_path)
    assert len(entries) == 1
    assert diags == []


def test_scan_include_globs(tmp_path):
    _write(tmp_path, "demo.java", COPY_BLOCK)
    _write(
        tmp_path,
        "other.py",
        "/// @implNote op names='py.op'\n/// @output Integer\n",
    )
    entries, _ = index_directory(tmp_path, include=("*.java",))
    assert [e["name"] for e in entries] == ["copy.array"]


def test_scan_collects_diagnostics_and_continues(tmp_path):
    _write(tmp_path, "bad.py", "/// @implNote op names='a.b' priority='x'\n")
    _write(tmp_path, "good.java", COPY_BLOCK)
    entries, diags = index_directory(tmp_path)
    assert [e["name"] for e in entries] == ["copy.array"]
    assert len(diags) == 1
    assert diags[0].path == "bad.py"


def test_indexing_twice_is_byte_identical(tmp_path):
    _write(tmp_path, "demo.java", COPY_BLOCK)
    _write(tmp_path, "more.py", "/// @implNote op names='a.b'\n/// @output Real\n")
    first = emit_yaml(index_directory(tmp_path)[0])
    second = emit_yaml(index_directory(tmp_path)[0])
    assert first == second


def test_unreadable_file_reports_diagnostic(tmp_path, monkeypatch):
    # chmod cannot make the file unreadable when tests run as root
    _write(tmp_path, "demo.java", COPY_BLOCK)
    _write(tmp_path, "locked.py", "/// @implNote op names='a.b'\n/// @output Real\n")
    real_read_text = Path.read_text

    def failing_read_text(self, *args, **kwargs):
        if self.name == "locked.py":
            raise PermissionError(13, "Permission denied")
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", failing_read_text)
    entries, diags = index_directory(tmp_path)
    assert [e["name"] for e in entries] == ["copy.array"]
    assert len(diags) == 1
    assert diags[0].render() == "locked.py:1: unreadable: Permission denied"
