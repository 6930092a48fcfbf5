"""Standard library: builtin op bodies, their descriptors, and defaults.

BINDINGS is the complete source-URI to callable table for the builtin and
legacy descriptor files. default_environment wires descriptors, bindings,
the type hierarchy (both image types under Image), and human-readable type
labels into a ready OpEnvironment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Mapping

from ..registry import OpEnvironment, _read_document, read_descriptor_files
from ..types import DescriptorTable, TypeHierarchy
from . import adapt, bodies, legacy

# builtin-ops.yaml and legacy-ops.yaml are JSON documents, which YAML reads
# as flow style, so default_environment reads them with json.loads and needs
# no PyYAML. JSON has no comments; the notes on their entries sit beside the
# rows below.
#
# builtin-ops.yaml: the builtin op descriptors, parsed at environment
# construction; their bodies live in bodies.py / adapt.py and are attached
# through this table, keyed by the source URI.
BINDINGS: dict[str, Callable] = {
    # -- math ---------------------------------------------------------------
    "builtin:math/add_ints": bodies.add_ints,
    "builtin:math/sub_ints": bodies.sub_ints,
    "builtin:math/mul_ints": bodies.mul_ints,
    "builtin:math/add_reals": bodies.add_reals,
    "builtin:math/sub_reals": bodies.sub_reals,
    "builtin:math/mul_reals": bodies.mul_reals,
    # element computer forms of the Real arithmetic, registered for lifting;
    # compiled computers return content, so they share the scalar function
    # bodies
    "builtin:math/add_reals_computer": bodies.add_reals,
    "builtin:math/sub_reals_computer": bodies.sub_reals,
    "builtin:math/mul_reals_computer": bodies.mul_reals,
    "builtin:math/div_reals": bodies.div_reals,
    # -- engine.create: allocate a fresh zeroed payload shaped like the model
    # argument
    "builtin:create/bytearray": bodies.create_bytearray,
    "builtin:create/realarray": bodies.create_array,
    "builtin:create/imageu8": bodies.create_array,
    "builtin:create/imagef64": bodies.create_array,
    # -- engine.copy ----------------------------------------------------------
    "builtin:copy/bytearray": bodies.copy_content,
    "builtin:copy/realarray": bodies.copy_content,
    "builtin:copy/imageu8": bodies.copy_content,
    "builtin:copy/imagef64": bodies.copy_content,
    "builtin:copy/real": bodies.copy_content,
    # -- engine.convert -------------------------------------------------------
    "builtin:convert/int_to_real": bodies.int_to_real,
    "builtin:convert/real_to_int": bodies.real_to_int,
    "builtin:convert/u8_to_f64": bodies.u8_to_f64,
    "builtin:convert/f64_to_u8": bodies.f64_to_u8,
    "builtin:convert/bytes_to_reals": bodies.bytes_to_reals,
    "builtin:convert/reals_to_bytes": bodies.reals_to_bytes,
    # -- engine.describe ------------------------------------------------------
    "builtin:describe/integer": bodies.describe_integer,
    "builtin:describe/real": bodies.describe_real,
    "builtin:describe/boolean": bodies.describe_boolean,
    "builtin:describe/text": bodies.describe_text,
    "builtin:describe/bytearray": bodies.describe_array,
    "builtin:describe/realarray": bodies.describe_array,
    "builtin:describe/imageu8": bodies.describe_image,
    "builtin:describe/imagef64": bodies.describe_image,
    # -- engine.adapt: parameter types are shape patterns (see adapt.py) ------
    "builtin:adapt/computer1_to_function1": adapt.computer_to_function,
    "builtin:adapt/computer2_to_function2": adapt.computer_to_function,
    "builtin:adapt/computer3_to_function3": adapt.computer_to_function,
    "builtin:adapt/function1_to_computer1": adapt.function_to_computer,
    "builtin:adapt/function2_to_computer2": adapt.function_to_computer,
    "builtin:adapt/function3_to_computer3": adapt.function_to_computer,
    "builtin:adapt/inplace1_to_function1": adapt.inplace_to_function,
    "builtin:adapt/inplace1_to_computer1": adapt.inplace_to_computer,
    "builtin:adapt/lift2_real_to_imagef64": adapt.lift2_elementwise,
    "builtin:adapt/lift2_real_to_imagef64_fn": adapt.lift2_elementwise,
    # -- filters ----------------------------------------------------------------
    "builtin:filter/gauss": bodies.gaussian_blur,
    "builtin:filter/dog": bodies.difference_of_gaussians,
    "builtin:filter/fft_stub": bodies.fft_stub,
    # -- transforms -------------------------------------------------------------
    "builtin:transform/rescale2d": bodies.rescale2d,
    # -- benchmarking -----------------------------------------------------------
    "builtin:benchmark/increment_u8": bodies.increment_u8,
    # legacy-ops.yaml: descriptors wrapping the plain numpy routines in
    # legacy.py. The functions know nothing about ops; that file plus one row
    # here per source URI is the entire integration.
    "legacy:stats/sum": legacy.array_sum,
    "legacy:transform/reverse": legacy.reversed_copy,
    "legacy:transform/transpose": legacy.transpose,
}


def builtin_descriptors_path() -> Path:
    return Path(__file__).parent / "builtin-ops.yaml"


def legacy_descriptors_path() -> Path:
    return Path(__file__).parent / "legacy-ops.yaml"


def default_hierarchy() -> TypeHierarchy:
    return TypeHierarchy([("ImageU8", "Image"), ("ImageF64", "Image")])


def default_describe_table() -> DescriptorTable:
    return DescriptorTable(
        {
            "Integer": "integer",
            "Real": "number",
            "Boolean": "boolean",
            "Text": "text",
            "ByteArray": "array",
            "RealArray": "array",
            "Image": "image",
            "ImageU8": "image",
            "ImageF64": "image",
        }
    )


def resolve_descriptor_paths(
    flag: str | None, environ: Mapping[str, str] | None = None
) -> list[Path] | None:
    """The descriptor files a user names to load next to the builtins.

    They come from the --descriptors flag (comma separated) when given, else
    from OPSFORGE_PATH (os.pathsep separated). None means neither is set,
    and the bundled legacy descriptors load in their place.
    """
    if environ is None:
        environ = os.environ
    if flag:
        return [Path(p) for p in flag.split(",") if p]
    if environ.get("OPSFORGE_PATH"):
        return [Path(p) for p in environ["OPSFORGE_PATH"].split(os.pathsep) if p]
    return None


def default_environment(
    *,
    cache_enabled: bool = True,
    pool=None,
    include_legacy: bool = True,
    extra_paths=(),
    extra_bindings: Mapping[str, Callable] | None = None,
) -> OpEnvironment:
    bundled = [builtin_descriptors_path()]
    if include_legacy:
        bundled.append(legacy_descriptors_path())
    # package data, which YAML reads alike (tests/test_registry.py checks both
    # loaders); user files in extra_paths are read as YAML. The two files
    # share one table of types and parameters, made for this build alone.
    shared: dict = {}
    infos = [
        info
        for path in bundled
        for info in _read_document(
            json.loads(path.read_text(encoding="utf-8")), str(path), shared
        )
    ]
    infos += read_descriptor_files(extra_paths)
    bindings = dict(BINDINGS)
    if extra_bindings:
        bindings.update(extra_bindings)
    return OpEnvironment(
        infos,
        bindings,
        hierarchy=default_hierarchy(),
        describe_table=default_describe_table(),
        cache_enabled=cache_enabled,
        pool=pool,
    )
