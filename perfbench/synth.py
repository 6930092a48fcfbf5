"""Seeded synthetic registry for match_cold: plain functions exposed as ops.

This is opsforge's zero-code path at plugin-registry scale. The functions
below know nothing about opsforge; a generated YAML file plus a source URI
to callable table is the whole integration. Every name lives under
``synth.`` and none is an ``engine.*`` entry, so adapter and convert
searches see exactly the stdlib's rewrite ops.

Each name contributes exactly three registry entries, so the registry size
is fixed and only names, priorities, bodies and file order vary with the
seed: half the names have a Real op with a trailing optional ``scale``
(itself plus one reduced variant) and an Integer op; the other half have a
two-argument Real op, an Integer op and a RealArray op.
"""

from __future__ import annotations

import numpy as np

NAMES = 162  # 162 names x 3 entries + 54 stdlib entries = 540, 10x the stdlib

_NAMESPACES = ("alpha", "beta", "gamma", "delta", "kappa", "sigma")


def lin(x, y, scale=1.0):
    return x * scale + y


def diff(x, y, scale=1.0):
    return (x - y) * scale


def mix(a, b):
    return a * 3 - b


def gap(a, b):
    return abs(a - b)


def norm1(v):
    return float(np.abs(v).sum())


def peak(v):
    return float(np.max(v))


REAL_FUNCS = {"lin": lin, "diff": diff}
INT_FUNCS = {"mix": mix, "gap": gap}
ARRAY_FUNCS = {"norm1": norm1, "peak": peak}

# Restated formulas the checks use; they must agree with the bodies above.
REAL_REFS = {"lin": lambda x, y, s: x * s + y, "diff": lambda x, y, s: (x - y) * s}
INT_REFS = {"mix": lambda a, b: a * 3 - b, "gap": lambda a, b: abs(a - b)}


class SynthRegistry:
    """The generated descriptor text, its bindings and what each name holds."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.ops: list[dict] = []
        self.bindings: dict = {}
        entries: list[str] = []
        ids = rng.permutation(NAMES * 4)[:NAMES]
        for k in range(NAMES):
            name = f"synth.{_NAMESPACES[int(rng.integers(len(_NAMESPACES)))]}.op{int(ids[k]):03d}"
            optional = k % 2 == 0
            real_fn = ("lin", "diff")[int(rng.integers(2))]
            int_fn = ("mix", "gap")[int(rng.integers(2))]
            prios = [round(float(p), 2) for p in rng.uniform(-5, 5, size=3)]
            op = dict(name=name, optional=optional, real=real_fn, int=int_fn,
                      real_source=f"synth:{name}/real", int_source=f"synth:{name}/int")
            real_params = ["x", "y", "scale"] if optional else ["x", "y"]
            entries.append(_entry(name, op["real_source"], prios[0], "Real", real_params,
                                  "scale" if optional else None))
            entries.append(_entry(name, op["int_source"], prios[1], "Integer", ["a", "b"], None))
            self.bindings[op["real_source"]] = REAL_FUNCS[real_fn]
            self.bindings[op["int_source"]] = INT_FUNCS[int_fn]
            if not optional:
                array_fn = ("norm1", "peak")[int(rng.integers(2))]
                source = f"synth:{name}/array"
                entries.append(
                    f"  - name: {name}\n    source: {source}\n    priority: {prios[2]}\n"
                    "    parameters:\n"
                    "      - {name: values, type: RealArray, io: input}\n"
                    "      - {name: out, type: Real, io: output}\n"
                )
                self.bindings[source] = ARRAY_FUNCS[array_fn]
            self.ops.append(op)
        order = rng.permutation(len(entries))
        self.text = "# generated synthetic ops\nops:\n" + "".join(entries[i] for i in order)

    @property
    def with_optional(self) -> list[dict]:
        return [op for op in self.ops if op["optional"]]


def _entry(name, source, priority, type_, params, optional) -> str:
    lines = [f"  - name: {name}", f"    source: {source}", f"    priority: {priority}",
             "    parameters:"]
    lines += [f"      - {{name: {p}, type: {type_}, io: input}}" for p in params]
    lines.append(f"      - {{name: out, type: {type_}, io: output}}")
    if optional:
        lines.append(f"    optional: [{optional}]")
    return "\n".join(lines) + "\n"
