"""In-process tracing of the sl2hc layers from outside the package.

``Tracer.install`` replaces each traced function at every name in the
package modules that is bound to it (``sl2hc.oracle.char_poly``,
``sl2hc.cli.cover_edges``, ...), so callers reach the wrapper; ``restore``
puts the originals back.  A wrapper records a span (run id, span id, parent
span id, name, start, end) in memory, and, for some functions, exact counts
derived from the arguments and the return value.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

TRACED = {
    "cli": ("main",),
    "core": ("ktype_function", "parse_class"),
    "tensor": ("ps_tensor", "decomposition_semisimplification", "clebsch_gordan", "tensor_with_finite", "ps_structure"),
    "oracle": ("verify_tensor", "casimir_report", "casimir_matrix"),
    "linalg": ("char_poly", "clear_denominators", "jordan_block_sizes", "root_multiplicity"),
    "lattice": (
        "enumerate_submodule_sets",
        "cover_edges",
        "specialization_edges",
        "generated_submodule",
        "classify_irreducible",
    ),
}


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _count_casimir_matrix(c: Counter, args, result) -> None:
    c["oracle.matrix_dim_max"] = max(c["oracle.matrix_dim_max"], len(result))


def _count_char_poly(c: Counter, args, result) -> None:
    key = "linalg.char_poly.coeff_bits_max"
    c[key] = max(c[key], _bits(result))


def _count_clear_denominators(c: Counter, args, result) -> None:
    mat, _scale = result
    c["linalg.scaled_bits_max"] = max(c["linalg.scaled_bits_max"], _bits(x for row in mat for x in row))


def _count_jordan(c: Counter, args, result) -> None:
    c["linalg.jordan_block_sizes.rank_runs"] += args[2] >= 2


def _count_root_multiplicity(c: Counter, args, result) -> None:
    c["linalg.root_multiplicity.hits"] += result[0] >= 1


def _count_enumerate(c: Counter, args, result) -> None:
    c["lattice.masks_tried"] += 2 ** len(set(args[0]))
    c["lattice.sets"] += len(result)


def _count_covers(c: Counter, args, result) -> None:
    c["lattice.cover_pairs_scanned"] += len(args[0]) ** 2
    c["lattice.covers"] += len(result)


COUNTERS = {
    "oracle.casimir_matrix": _count_casimir_matrix,
    "linalg.char_poly": _count_char_poly,
    "linalg.clear_denominators": _count_clear_denominators,
    "linalg.jordan_block_sizes": _count_jordan,
    "linalg.root_multiplicity": _count_root_multiplicity,
    "lattice.enumerate_submodule_sets": _count_enumerate,
    "lattice.cover_edges": _count_covers,
}
COUNT_NAMES = (
    "oracle.matrix_dim_max",
    "linalg.char_poly.coeff_bits_max",
    "linalg.scaled_bits_max",
    "linalg.jordan_block_sizes.rank_runs",
    "linalg.root_multiplicity.hits",
    "lattice.masks_tried",
    "lattice.sets",
    "lattice.cover_pairs_scanned",
    "lattice.covers",
)


class Tracer:
    """Wrappers, spans and counts for one traced run."""

    def __init__(self) -> None:
        self.modules = {layer: importlib.import_module(f"sl2hc.{layer}") for layer in TRACED}
        self.spans: list = []  # (run id, span id, parent span id, name, start, end)
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list = []
        self._next_id = 0
        self._saved: list = []
        self._originals: dict = {}  # (module, name) -> original, over every install

    def install(self) -> None:
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(self.modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in self.modules.values():
                    if module.__dict__.get(fname) is original:
                        self._originals[module, fname] = original
                        self._saved.append((module, fname, original, wrapper))
                        setattr(module, fname, wrapper)

    def restore(self) -> None:
        """Put every original back; raises if a name no longer holds our wrapper."""
        for module, fname, original, wrapper in reversed(self._saved):
            if module.__dict__.get(fname) is not wrapper:
                raise RuntimeError(f"{module.__name__}.{fname} was rebound while traced")
            setattr(module, fname, original)
        self._saved.clear()

    def unrestored(self) -> list:
        """Names that do not hold their original function any more."""
        return sorted(
            f"{module.__name__}.{fname}"
            for (module, fname), original in self._originals.items()
            if module.__dict__.get(fname) is not original
        )

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.run_id, span_id, parent, name, start, end))
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper


def summarize(spans: list, run_id: int) -> tuple:
    """Per-name (calls, self seconds) and root-span seconds for one run id.

    Self time is a span's duration minus the durations of its direct children.
    """
    spans = [s for s in spans if s[0] == run_id]
    child_time: dict = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    root_s = 0.0
    for _, span_id, parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[span_id]
        if parent is None:
            root_s += end - start
    return calls, self_s, root_s
