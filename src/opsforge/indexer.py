"""Comment-tag indexer: turn annotated source comments into descriptors.

Scans text files for ``///`` comment runs and ``/** ... */`` blocks whose
body carries an ``@implNote op`` tag, for example::

    /// Pixel-wise intensity doubling.
    /// @implNote op names='brightness.double' priority='10'
    /// @input image ImageF64 the image to brighten
    /// @output ImageF64 brightened copy

Recognized tags on either side of the @implNote line: @input, @container
and @mutable (``NAME TYPE [DESCRIPTION]``) and @output (``TYPE
[DESCRIPTION]``). Free text ahead of any tag becomes the op description. Each block yields one
descriptor entry whose source URI is ``indexed:<relpath>#L<line>`` pointing
at the block start, so emitted files are stable and re-indexing is
idempotent. Malformed blocks are reported as ``path:line: message``
diagnostics and skipped; they never abort the scan.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import SchemaError
from .registry import read_entry

_ATTR_RE = re.compile(r"(\w+)='([^']*)'")
_IMPL_RE = re.compile(r"@implNote\s+(\S+)")

_NAMED_TAGS = {"@input": "input", "@container": "container", "@mutable": "mutable"}


@dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def extract_blocks(text: str) -> list[tuple[int, list[tuple[int, str]]]]:
    """(start_line, [(line, cleaned text), ...]) for every comment block."""
    blocks: list[tuple[int, list[tuple[int, str]]]] = []
    lines = text.splitlines()
    n = len(lines)
    i = 0
    while i < n:
        stripped = lines[i].strip()
        if stripped.startswith("///"):
            start = i + 1
            buf: list[tuple[int, str]] = []
            while i < n and lines[i].strip().startswith("///"):
                buf.append((i + 1, lines[i].strip()[3:].strip()))
                i += 1
            blocks.append((start, buf))
            continue
        if "/**" in stripped:
            start = i + 1
            buf = []
            rest = stripped.split("/**", 1)[1]
            if "*/" in rest:
                inner = rest.split("*/", 1)[0].strip()
                if inner:
                    buf.append((i + 1, inner))
                blocks.append((start, buf))
                i += 1
                continue
            inner = rest.strip()
            if inner:
                buf.append((i + 1, inner))
            i += 1
            while i < n:
                t = lines[i].strip()
                if "*/" in t:
                    inner = t.split("*/", 1)[0].strip().lstrip("*").strip()
                    if inner:
                        buf.append((i + 1, inner))
                    break
                buf.append((i + 1, t.lstrip("*").strip()))
                i += 1
            blocks.append((start, buf))
            i += 1
            continue
        i += 1
    return blocks


def parse_block(
    rel: str, start: int, block: list[tuple[int, str]]
) -> tuple[dict | None, list[Diagnostic]]:
    """One comment block -> descriptor entry dict, or diagnostics.

    Blocks without @implNote are silently ignored (returns (None, [])).
    """
    impl_idx = next(
        (k for k, (_, t) in enumerate(block) if "@implNote" in t), None
    )
    if impl_idx is None:
        return None, []
    diags: list[Diagnostic] = []
    impl_line, impl_text = block[impl_idx]

    marker = _IMPL_RE.search(impl_text)
    if marker is None or marker.group(1) != "op":
        diags.append(Diagnostic(rel, impl_line, "expected '@implNote op'"))
        return None, diags
    attrs = dict(_ATTR_RE.findall(impl_text))
    if "names" not in attrs:
        diags.append(
            Diagnostic(rel, impl_line, "@implNote op needs a names='...' attribute")
        )
        return None, diags
    names = [x.strip() for x in attrs["names"].split(",") if x.strip()]
    if not names:
        diags.append(Diagnostic(rel, impl_line, "names attribute is empty"))
        return None, diags
    try:
        priority = float(attrs.get("priority", "0"))
    except ValueError:
        diags.append(
            Diagnostic(
                rel, impl_line, f"priority is not a number: {attrs['priority']!r}"
            )
        )
        return None, diags

    # parameter tags may appear on either side of the @implNote line
    description_parts: list[str] = []
    params: list[dict] = []
    for k, (line_no, text) in enumerate(block):
        if k == impl_idx or not text:
            continue
        if not text.startswith("@"):
            # continuation: extend the previous parameter description
            if params:
                joined = f"{params[-1]['description']} {text}".strip()
                params[-1]["description"] = joined
            else:
                description_parts.append(text)
            continue
        tag = text.split()[0]
        if tag in _NAMED_TAGS:
            parts = text.split(None, 3)
            if len(parts) < 3:
                diags.append(Diagnostic(rel, line_no, f"{tag} needs NAME and TYPE"))
                return None, diags
            params.append(
                {
                    "name": parts[1],
                    "type": parts[2],
                    "io": _NAMED_TAGS[tag],
                    "description": parts[3] if len(parts) > 3 else "",
                }
            )
        elif tag == "@output":
            parts = text.split(None, 2)
            if len(parts) < 2:
                diags.append(Diagnostic(rel, line_no, "@output needs a TYPE"))
                return None, diags
            params.append(
                {
                    "name": "output",
                    "type": parts[1],
                    "io": "output",
                    "description": parts[2] if len(parts) > 2 else "",
                }
            )
        else:
            diags.append(Diagnostic(rel, line_no, f"unknown tag {tag}"))
            return None, diags

    description = " ".join(description_parts).strip()
    specials = sum(1 for p in params if p["io"] != "input")
    if specials != 1:
        diags.append(
            Diagnostic(
                rel,
                impl_line,
                "need exactly one @output, @container or @mutable, "
                f"found {specials}",
            )
        )
        return None, diags
    kind = attrs.get("kind")
    if kind is None:
        special_io = next(p["io"] for p in params if p["io"] != "input")
        kind = {"output": "function", "container": "computer", "mutable": "inplace"}[
            special_io
        ]

    entry: dict = {"name": names[0]}
    if names[1:]:
        entry["aliases"] = names[1:]
    entry["kind"] = kind
    entry["priority"] = priority
    entry["source"] = f"indexed:{rel}#L{start}"
    if description:
        entry["description"] = description
    entry["parameters"] = [
        {k: v for k, v in p.items() if k != "description" or v} for p in params
    ]

    # the one descriptor reader YAML files go through, as entry ops[0]
    try:
        read_entry(entry, f"{rel}#L{start}", "ops[0]")
    except SchemaError as e:
        diags.append(Diagnostic(rel, impl_line, str(e)))
        return None, diags
    return entry, diags


def emit_yaml(entries: list[dict]) -> str:
    return yaml.safe_dump(
        {"ops": list(entries)}, sort_keys=False, default_flow_style=False, width=100
    )


def index_directory(
    root: str | Path, include: tuple[str, ...] = ()
) -> tuple[list[dict], list[Diagnostic]]:
    """Scan text files under root, in sorted path order.

    Include globs, when given, are matched against the root-relative path.
    Files that fail UTF-8 decoding are treated as binaries and skipped;
    files that cannot be read at all produce a diagnostic.
    """
    root = Path(root)
    entries: list[dict] = []
    diagnostics: list[Diagnostic] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if include and not any(fnmatch.fnmatch(rel, pat) for pat in include):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        except OSError as e:
            diagnostics.append(Diagnostic(rel, 1, f"unreadable: {e.strerror or e}"))
            continue
        for start, block in extract_blocks(text):
            entry, diags = parse_block(rel, start, block)
            diagnostics.extend(diags)
            if entry is not None:
                entries.append(entry)
    return entries, diagnostics
