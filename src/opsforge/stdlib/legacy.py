"""Plain numpy routines with no knowledge of the op framework.

These stand in for pre-existing library code. They become ops purely through
legacy-ops.yaml plus a (source URI -> callable) binding entry; nothing in
this file is framework-aware.
"""

from __future__ import annotations

import numpy as np


def array_sum(values: np.ndarray) -> float:
    # the method, not np.sum, which reaches the same reduction through
    # Python-level dispatch; a subclass's own sum (a MaskedArray's mask)
    # is honoured either way
    return float(values.sum())


def reversed_copy(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values[::-1])


def transpose(matrix: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(matrix.T)
