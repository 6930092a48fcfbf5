"""Command line front end.

Subcommands: list, help, run, index, bench. Result payloads go to stdout as
JSON; diagnostics, trace output, and progress reports go to stderr. Exit
codes: 0 success, 2 usage or validation problem, 3 no matching op, 4 the
matched op failed while executing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import SCENARIOS, render_table, run_benchmark, to_csv
from .errors import (
    DependencyCycleError,
    ExecutionError,
    NoMatchError,
    RegistrationError,
    SchemaError,
    TypeSyntaxError,
)
from .stdlib import default_environment, resolve_descriptor_paths
from .types import parse_type
from .values import from_json_obj


class _UsageError(Exception):
    pass


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # subparser copies use SUPPRESS so an unset flag after the subcommand
    # does not clobber a value parsed before it
    store_true = dict(action="store_true")
    if suppress:
        store_true["default"] = argparse.SUPPRESS
    parser.add_argument(
        "--descriptors",
        **({"default": argparse.SUPPRESS} if suppress else {}),
        help="comma-separated descriptor files loaded next to the builtins "
        "(overrides OPSFORGE_PATH)",
    )
    parser.add_argument(
        "--no-cache", **store_true, help="disable the match cache"
    )
    parser.add_argument(
        "--trace",
        **store_true,
        help="write routine, plan signature, and progress to stderr",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ops", description="match and run declaratively registered ops"
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, suppress=True)
        return p

    p_list = add_parser("list", help="print every distinct op name")
    p_list.add_argument(
        "namespace",
        nargs="?",
        default="",
        help="restrict to this dotted prefix, e.g. 'math'",
    )

    p_help = add_parser("help", help="describe ops by name or namespace")
    p_help.add_argument("name", nargs="?", default="")
    p_help.add_argument("--verbose", action="store_true")

    p_run = add_parser("run", help="match and execute one op")
    p_run.add_argument("name")
    p_run.add_argument(
        "--kind",
        choices=["function", "computer", "inplace"],
        default="function",
    )
    p_run.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="TYPE:JSON",
        help="argument value, repeatable",
    )
    p_run.add_argument("--container", metavar="TYPE:JSON")
    p_run.add_argument("--out-type", dest="out_type", metavar="TYPE")
    p_run.add_argument("--mutable", type=int, default=0, metavar="INDEX")

    p_index = add_parser(
        "index", help="scan commented sources and emit descriptors"
    )
    p_index.add_argument("directory")
    p_index.add_argument("-o", "--output", help="write YAML here instead of stdout")
    p_index.add_argument(
        "--include",
        action="append",
        default=[],
        metavar="GLOB",
        help="only scan files matching this pattern, repeatable",
    )
    p_index.add_argument(
        "--strict", action="store_true", help="exit 1 when any block is malformed"
    )

    p_bench = add_parser("bench", help="measure dispatch overhead")
    p_bench.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        help="comma-separated subset of " + ",".join(SCENARIOS),
    )
    p_bench.add_argument("--size", type=int, default=1024)
    p_bench.add_argument("--warmup", type=int, default=10_000)
    p_bench.add_argument("--iterations", type=int, default=100_000)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--csv", help="also write results as CSV to this path")
    return parser


def _environment(args):
    extras = resolve_descriptor_paths(args.descriptors, os.environ)
    return default_environment(
        include_legacy=extras is None,
        extra_paths=extras or (),
        cache_enabled=not args.no_cache,
    )


def _parse_typed(text: str):
    if ":" not in text:
        raise _UsageError(f"expected TYPE:JSON, got {text!r}")
    type_text, payload_text = text.split(":", 1)
    try:
        t = parse_type(type_text.strip())
    except TypeSyntaxError as e:
        raise _UsageError(f"bad type in {text!r}: {e}") from e
    try:
        obj = json.loads(payload_text)
    except json.JSONDecodeError as e:
        raise _UsageError(f"bad JSON in {text!r}: {e}") from e
    try:
        return from_json_obj(t, obj)
    except RegistrationError as e:
        raise _UsageError(str(e)) from e


def _cmd_list(args) -> int:
    env = _environment(args)
    ns = args.namespace
    for name in env.distinct_names():
        if not ns or name == ns or name.startswith(ns + "."):
            print(name)
    return 0


def _cmd_help(args) -> int:
    env = _environment(args)
    print(env.help(args.name, verbose=args.verbose))
    return 0


def _cmd_run(args) -> int:
    env = _environment(args)
    if args.trace:
        env.add_progress_listener(
            lambda r: print(
                f"progress: {r.op_label} {r.fraction:.4f} {r.stage}".rstrip(),
                file=sys.stderr,
            )
        )
    values = [_parse_typed(v) for v in args.inputs]
    builder = env.op(args.name).input_types(*(v.type for v in values))
    if args.kind == "function":
        if args.out_type:
            builder.output_type(args.out_type)
        handle = builder.function()
        extra = ()
    elif args.kind == "computer":
        if not args.container:
            raise _UsageError("--kind computer needs --container TYPE:JSON")
        container = _parse_typed(args.container)
        handle = builder.container_type(container.type).computer()
        extra = (container,)
    else:
        if not values:
            raise _UsageError("--kind inplace needs at least one --in argument")
        if not 0 <= args.mutable < len(values):
            raise _UsageError(f"--mutable {args.mutable} out of range")
        handle = builder.inplace(args.mutable)
        extra = ()
    if args.trace:
        print(f"routine: {handle.tree.routine.value}", file=sys.stderr)
        print(f"signature: {handle.signature}", file=sys.stderr)
    if args.kind == "computer":
        result = handle(*values, container=extra[0])
    else:
        result = handle(*values)
    print(json.dumps({"type": str(result.type), "value": result.to_json_obj()}))
    return 0


def _cmd_index(args) -> int:
    # the indexer loads PyYAML, which no other command needs
    from .indexer import emit_yaml, index_directory

    root = Path(args.directory)
    if not root.is_dir():
        raise _UsageError(f"not a directory: {args.directory}")
    entries, diagnostics = index_directory(root, include=args.include)
    for d in diagnostics:
        print(d.render(), file=sys.stderr)
    text = emit_yaml(entries)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 1 if (diagnostics and args.strict) else 0


def _cmd_bench(args) -> int:
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    try:
        report = run_benchmark(
            size=args.size,
            warmup=args.warmup,
            iterations=args.iterations,
            reps=args.reps,
            scenarios=scenarios,
        )
    except ValueError as e:
        raise _UsageError(str(e)) from e
    print(render_table(report))
    if args.csv:
        _write(args.csv, to_csv(report))
    return 0


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror or e}") from e


_COMMANDS = {
    "list": _cmd_list,
    "help": _cmd_help,
    "run": _cmd_run,
    "index": _cmd_index,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (NoMatchError, DependencyCycleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ExecutionError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.signature:
            print(f"signature: {e.signature}", file=sys.stderr)
        return 4
    except (_UsageError, SchemaError, RegistrationError, TypeSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
