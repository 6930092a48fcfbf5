"""The equivalence corpus: every stdlib op's match outcomes, against a golden.

    python3 tools/equivalence_golden.py          # check; exit 1 on a mismatch
    python3 tools/equivalence_golden.py --write  # regenerate the golden file

An outcome is what an uncached ``env.match`` gives for one request: the
plan's signature and output type, or the ``NoMatchError`` text with its
near-miss lines. The corpus, in a fixed order:

- every stdlib op name (aliases included) and one unknown name;
- for each name, every request over the eight base types (the types with a
  payload) of 0 to 3 arguments. Requests of 0 to 2 arguments take three
  FUNCTION outputs, three COMPUTER containers and every INPLACE index; to
  stay inside the test's time budget, 3-argument requests take one output,
  one container and every index;
- ``DOCUMENTS`` seeded single-line mutations of the stdlib descriptor
  entries, each rendered as block YAML (the bundled files are JSON, whose
  entries span no lines a mutation could edit one at a time). Each mutated
  entry is parsed as its own document and loaded with
  every other stdlib entry. Its outcome is the load error, or the parsed
  entries and the outcomes of every unmutated entry's own requests (one per
  concrete variant), so a mutation also shows in the plans that depend on,
  adapt or convert through the entry. It counts toward the name of the
  entry it mutates.

The golden (``tests/equivalence_golden.json``) keeps, per op name, the
number of outcomes, a SHA-256 of them with their requests, and one mark
character per outcome (6 bits of its own hash), so that a mismatch names
the first request whose outcome moved, not only the op. A change that
moves signatures on purpose regenerates the file with ``--write`` and lists
the names that moved. ``tests/test_equivalence_golden.py`` recomputes the
corpus in tier-1. Standard library, PyYAML and opsforge only; run it from a
checkout with ``src`` on the path (the script adds it).
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import itertools
import json
import random
import re
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "equivalence_golden.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from opsforge.errors import NoMatchError, OpsError  # noqa: E402
from opsforge.matcher import OpRequest  # noqa: E402
from opsforge.registry import OpEnvironment, parse_descriptors, reduce_optional  # noqa: E402
from opsforge.stdlib import (  # noqa: E402
    BINDINGS,
    builtin_descriptors_path,
    default_describe_table,
    default_hierarchy,
    legacy_descriptors_path,
)
from opsforge.types import Kind, parse_type  # noqa: E402
from opsforge.values import _EXACT  # noqa: E402

UNKNOWN_NAME = "no.such_op"
BASE_TYPES = tuple(_EXACT.values())
OUTPUTS = (None, parse_type("Real"), parse_type("ImageF64"))
CONTAINERS = (parse_type("RealArray"), parse_type("ImageU8"), parse_type("ImageF64"))
# the one output and container of a 3-argument request
OUTPUTS_3 = (None,)
CONTAINERS_3 = (parse_type("ImageF64"),)

DOCUMENTS = 300
SEED = 22
# type texts a mutation writes: the base types, the abstract image, a type
# variable and a name no hierarchy knows
MUTANT_TYPES = [str(t) for t in BASE_TYPES] + ["Image", "'T", "Unknown"]
ROLES = ["input", "output", "container", "mutable"]
_TYPE = re.compile(r"(type: )([^,}\]]+)")
_IO = re.compile(r"(io: )(\w+)")
_NAME = re.compile(r"(name: )(\S+)")


def describe(req: OpRequest) -> str:
    """A request in one line, for mismatch messages."""
    args = ", ".join(map(str, req.arg_types))
    text = f"{req.kind.value} {req.name}({args})"
    if req.kind is Kind.FUNCTION:
        return f"{text} -> {req.output_type}"
    if req.kind is Kind.COMPUTER:
        return f"{text} into {req.container_type}"
    return f"{text} at {req.mutable_index}"


def requests(name: str):
    """Every request of the corpus for ``name``, in a fixed order."""
    for n in range(4):
        outputs, containers = (OUTPUTS, CONTAINERS) if n < 3 else (OUTPUTS_3, CONTAINERS_3)
        for args in itertools.product(BASE_TYPES, repeat=n):
            for out in outputs:
                yield OpRequest(name, Kind.FUNCTION, args, output_type=out)
            for container in containers:
                yield OpRequest(name, Kind.COMPUTER, args, container_type=container)
            for i in range(n):
                yield OpRequest(name, Kind.INPLACE, args, mutable_index=i)


def outcome(env: OpEnvironment, req: OpRequest) -> str:
    try:
        tree = env.match(req)
    except NoMatchError as exc:
        return f"miss {exc}"
    except OpsError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return f"plan {tree.signature} -> {tree.out_type}"


def _environment(infos) -> OpEnvironment:
    return OpEnvironment(infos, BINDINGS, hierarchy=default_hierarchy(),
                         describe_table=default_describe_table(), cache_enabled=False)


class _BlockDumper(yaml.SafeDumper):
    """Indents a sequence under its key, as hand-written descriptor files do."""

    def increase_indent(self, flow=False, indentless=False):
        return super().increase_indent(flow, False)


def entries() -> list[tuple[str, list[str]]]:
    """The stdlib descriptor entries as ``(where, lines)``, in file order;
    ``where`` is ``file:ops[i]``. Each entry is block YAML indented as an
    item of ``ops``; its parameter mappings and lists of strings, which hold
    no collection, stay in flow style, one to a line."""
    found = []
    for path in (builtin_descriptors_path(), legacy_descriptors_path()):
        ops = yaml.safe_load(path.read_text(encoding="utf-8"))["ops"]
        for i, entry in enumerate(ops):
            text = yaml.dump([entry], Dumper=_BlockDumper, sort_keys=False,
                             default_flow_style=None, width=1 << 16)
            found.append((f"{path.name}:ops[{i}]", [f"  {line}" for line in text.splitlines()]))
    return found


def _document(lines: list[str]) -> str:
    return "ops:\n" + "\n".join(lines) + "\n"


def _own_requests(infos) -> list[OpRequest]:
    """The requests an entry declares itself: one per concrete variant."""
    reqs = []
    for info in infos:
        for v in reduce_optional(info):
            args = tuple(p.type for p in v.arg_params)
            special = v.special_param.type
            if not all(t.is_concrete() for t in (*args, special)):
                continue
            if v.kind is Kind.FUNCTION:
                reqs.append(OpRequest(v.name, v.kind, args, output_type=special))
            elif v.kind is Kind.COMPUTER:
                reqs.append(OpRequest(v.name, v.kind, args, container_type=special))
            else:
                reqs.append(OpRequest(v.name, v.kind, args, mutable_index=v.mutable_index))
    return reqs


def mutate(lines: list[str], rng: random.Random) -> tuple[list[str], str]:
    """One seeded single-line mutation of an entry: the new lines and what changed."""
    spots = [i for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")]
    i = rng.choice(spots)
    line = lines[i]
    ops = ["drop", "repeat", "dedent"]
    if i + 1 < len(lines):
        ops.append("swap")
    for op, pattern in (("type", _TYPE), ("io", _IO), ("name", _NAME)):
        if pattern.search(line):
            ops += [op, op]
    op = rng.choice(ops)
    out = list(lines)
    if op == "drop":
        del out[i]
    elif op == "repeat":
        out.insert(i, line)
    elif op == "dedent":
        out[i] = line[2:]
    elif op == "swap":
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        pattern, choices = {
            "type": (_TYPE, MUTANT_TYPES),
            "io": (_IO, ROLES),
            "name": (_NAME, ["math.add", "filter.gauss", "x", "engine.copy", "bad name"]),
        }[op]
        matches = list(pattern.finditer(line))
        m = rng.choice(matches)
        new = rng.choice(choices)
        out[i] = line[: m.start(2)] + new + line[m.end(2):]
        op = f"{op} {m.group(2)!r} to {new!r}"
    return out, f"line {i + 1}: {op}"


def documents(stdlib: list[tuple[str, list[str]]], parsed: list[list]):
    """``(op name, description, outcome)`` for each seeded mutated document;
    ``parsed`` holds each entry's unmutated infos."""
    own = [req for infos in parsed for req in _own_requests(infos)]
    rng = random.Random(SEED)
    for k in range(DOCUMENTS):
        e = rng.randrange(len(stdlib))
        where, lines = stdlib[e]
        mutant, change = mutate(lines, rng)
        others = [info for j, infos in enumerate(parsed) if j != e for info in infos]
        try:
            infos = parse_descriptors(_document(mutant), origin=where)
            env = _environment([*others, *infos])
        except OpsError as exc:
            result = f"rejected {type(exc).__name__}: {exc}"
        else:
            result = "\n".join(
                ["loaded", *(f"{info.names} {info.kind.value} {info.source} "
                             f"{info.signature_string()}" for info in infos),
                 *(outcome(env, req) for req in own)])
        yield parsed[e][0].name, f"document {k} ({where} {change})", result


def corpus() -> dict[str, list[tuple[str, str]]]:
    """Per op name, its ``(request, outcome)`` pairs in corpus order."""
    stdlib = entries()
    parsed = [parse_descriptors(_document(lines), origin=where) for where, lines in stdlib]
    env = _environment([info for infos in parsed for info in infos])
    names = sorted({n for info in env.infos for n in info.names}) + [UNKNOWN_NAME]
    found = {name: [(describe(r), outcome(env, r)) for r in requests(name)] for name in names}
    for name, what, result in documents(stdlib, parsed):
        found[name].append((what, result))
    return found


def record(pairs: list[tuple[str, str]]) -> dict:
    """One op's golden entry: the count, the digest and the marks."""
    digest = hashlib.sha256()
    marks = []
    for what, result in pairs:
        digest.update(f"{what}\0{result}\n".encode())
        marks.append(_mark(result))
    return {"outcomes": len(pairs), "digest": digest.hexdigest(), "marks": "".join(marks)}


def _mark(result: str) -> str:
    """One base64 character: the top 6 bits of the outcome's SHA-256."""
    return base64.b64encode(hashlib.sha256(result.encode()).digest()[:3]).decode()[0]


def first_difference(golden: dict, pairs: list[tuple[str, str]]) -> str | None:
    """None when ``pairs`` give ``golden``'s entry, else what differs first."""
    now = record(pairs)
    if now == golden:
        return None
    for i, ((what, result), old, new) in enumerate(zip(pairs, golden["marks"], now["marks"])):
        if old != new:
            return f"outcome {i} differs: {what}\n  now: {result}"
    if now["outcomes"] != golden["outcomes"]:
        return f"{now['outcomes']} outcomes, the golden has {golden['outcomes']}"
    return "the digest differs, but no outcome's mark does (a 1-in-64 mark collision)"


def mismatches(golden: dict, found: dict) -> list[str]:
    """One message per op name whose outcomes differ from the golden's."""
    problems = []
    for name in sorted(set(golden) | set(found)):
        if name not in found:
            problems.append(f"{name}: in the golden, not in the corpus")
        elif name not in golden:
            problems.append(f"{name}: in the corpus, not in the golden")
        else:
            moved = first_difference(golden[name], found[name])
            if moved is not None:
                problems.append(f"{name}: {moved}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="golden file to read or write")
    args = parser.parse_args(argv)
    found = corpus()
    if args.write:
        doc = {
            "corpus": {"names": len(found), "outcomes": sum(map(len, found.values())),
                       "documents": DOCUMENTS, "seed": SEED},
            "ops": {name: record(pairs) for name, pairs in found.items()},
        }
        args.golden.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.golden}: {doc['corpus']}")
        return 0
    golden = json.loads(args.golden.read_text(encoding="utf-8"))["ops"]
    problems = mismatches(golden, found)
    for line in problems:
        print(line)
    print(f"{len(found)} names, {len(problems)} differ from {args.golden}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
