"""Plans, signatures and near-miss lines equal the committed golden.

``tools/equivalence_golden.py`` enumerates the corpus: every stdlib op name
and one unknown name, every request over the eight base types of 0 to 3
arguments, and seeded mutated descriptor entries. It matches each on an
uncached environment, and ``tests/equivalence_golden.json`` holds a digest
and one mark per outcome for each name. A change that moves an outcome on
purpose regenerates the file with ``python3 tools/equivalence_golden.py
--write`` and lists the names that moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "equivalence_golden", ROOT / "tools" / "equivalence_golden.py")
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)

GOLDEN = json.loads(golden_tool.GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.fixture(scope="module")
def corpus():
    return golden_tool.corpus()


def test_the_corpus_has_the_goldens_names(corpus):
    assert sorted(corpus) == sorted(GOLDEN)
    assert golden_tool.UNKNOWN_NAME in corpus


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_match_outcomes_equal_the_golden(corpus, name):
    moved = golden_tool.first_difference(GOLDEN[name], corpus.get(name, []))
    assert moved is None, f"{name}: {moved}"


def _other(result):
    """An outcome text whose mark differs from ``result``'s."""
    return next(f"{result} {k}" for k in range(64)
                if golden_tool._mark(f"{result} {k}") != golden_tool._mark(result))


def test_a_mismatch_names_the_op_and_the_first_request_that_moved():
    pairs = [("request a", "plan A"), ("request b", "miss B"), ("request c", "plan C")]
    golden = {"op.one": golden_tool.record(pairs), "op.two": golden_tool.record(pairs[:1])}
    assert golden_tool.mismatches(golden, {"op.one": pairs, "op.two": pairs[:1]}) == []
    moved = [pairs[0], ("request b", _other("miss B")), ("request c", _other("plan C"))]
    assert golden_tool.mismatches(golden, {"op.one": moved, "op.two": pairs[:1]}) == [
        f"op.one: outcome 1 differs: request b\n  now: {moved[1][1]}"]
    assert golden_tool.mismatches(golden, {"op.one": pairs, "op.new": pairs}) == [
        "op.new: in the corpus, not in the golden",
        "op.two: in the golden, not in the corpus"]
    assert golden_tool.first_difference(golden["op.one"], pairs + pairs[:1]) == (
        "4 outcomes, the golden has 3")
