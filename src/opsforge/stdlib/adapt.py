"""Adapter factories bound to the engine.adapt entries.

Each factory receives the already-compiled inner callable (plus compiled
dependency callables, in declaration order) and returns a callable in the
adapted shape. Compiled computers return their content rather than writing
it, so computer/function adaptation in either direction is the identity;
inplace adaptation buffers a private copy so the caller's argument stays
untouched. The elementwise lift calls a body marked ``elementwise`` once on
whole arrays and any other body once per element.

In builtin-ops.yaml the engine.adapt entries' parameter types are
functional shape patterns: tick names are variables unified against the
candidate op (the first parameter) and then substituted into the produced
shape (the second parameter).
"""

from __future__ import annotations

import numpy as np

from ..values import copy_into


def computer_to_function(inner):
    return inner


def function_to_computer(inner):
    return inner


def inplace_to_function(inner, create_fn, copy_fn):
    def adapted(x):
        fresh = create_fn(x)
        copy_into(fresh, copy_fn(x))
        inner(fresh)
        return fresh

    return adapted


# The computer form only differs in how the framework treats the returned
# payload (written back into the caller's container).
inplace_to_computer = inplace_to_function


def elementwise(body):
    """Mark a binary scalar body the lift may call once on whole arrays.

    Only bodies that are one IEEE operation on their two arguments (``a + b``,
    ``a - b``, ``a * b``) qualify: numpy computes those per element with
    bitwise the same result. A body that branches on its values or raises
    (``div_reals`` rejects a zero divisor, where numpy would give inf) stays
    unmarked and keeps the per-element loop.
    """
    body.elementwise = True
    return body


def lift2_elementwise(inner):
    """Lift a binary scalar function to a same-shape elementwise computer.

    ``inner`` is the lifted plan compiled without a frame, which for a leaf
    plan is its bare body: the op's frame sits outside the adapter, at the
    plan boundary. When that body is marked ``elementwise`` the lift calls
    it once on the whole arrays (floating-point warnings silenced, as the
    scalar loop raises none); any other body is called per element. Shapes
    are checked before any body call.
    """
    if getattr(inner, "elementwise", False):

        def whole(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            if a.shape != b.shape:
                raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
            with np.errstate(all="ignore"):
                return inner(a, b)

        return whole

    def adapted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        out = np.empty_like(a)
        flat_a = a.ravel()
        flat_b = b.ravel()
        flat_out = out.reshape(-1)
        for i in range(flat_a.size):
            flat_out[i] = inner(float(flat_a[i]), float(flat_b[i]))
        return out

    return adapted
