"""In-process span tracing of the permutomino layers, from outside the package.

`Tracer.install` replaces the public functions listed in LAYER_FUNCTIONS with
recording wrappers, in every `permutomino.*` module namespace that binds them
(oracles, membership and render import boundary functions by name), and
`uninstall` puts the originals back.  The lazily computed properties of
boundary.Permutomino (path, corners, pi1, flags, ...) are wrapped too, so that
boundary work triggered from a caller's module is charged to boundary.
Nothing under src/ changes.

A span is [name, start, end, parent index, time covered by children]; spans
are kept in memory and written out once at the end.  A span's self time is its
duration minus its children's, and a layer's self time is the sum over the
spans of its module.  Only the calling process is traced, so traced runs use
one scan worker.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYER_FUNCTIONS = {
    "permutomino._kernels": ("scan_stats",),
    "permutomino.counting": (
        "scan_stats", "count_ctilde", "count_square", "count_convex",
        "count_symmetric", "convex_via_fibers", "listing", "perm_listing",
    ),
    "permutomino.oracles": ("enumerate_convex", "enumerate_column_convex", "enumerate_class"),
    "permutomino.boundary": (
        "from_boundary_word", "word_from_cells", "reentrant_matrix", "permutomino_from_matrix",
    ),
    "permutomino.membership": (
        "membership_verdict", "fiber", "canonical_permutomino", "free_fixed_points",
    ),
    "permutomino.perms": ("envelopes",),
    "permutomino.bijection": ("permutation_to_sequence", "sequence_to_permutation"),
    "permutomino.render": ("to_jsonable", "svg_document", "ascii_art"),
    "permutomino.verify": ("verify_identities",),
    "permutomino.formulas": None,  # every public function of the module
}
LAZY_CLASS = ("permutomino.boundary", "Permutomino")

# Candidate boundary words the interval oracle validates: the calls made
# through the name oracles binds.
WORDS_VALIDATED = "oracles.words_validated"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _count_result(name: str, result, counters: Counter) -> None:
    if name == "kernels.scan_stats":
        counters["kernels.squares_kept"] += result["square"]
    elif name in ("oracles.enumerate_convex", "oracles.enumerate_column_convex"):
        counters["oracles.shapes_kept"] += len(result)
    elif name == "membership.fiber":
        counters["membership.fiber.shapes"] += len(result)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple = (), kwargs: dict | None = None,
             counter: str | None = None, label: str = ""):
        """Run fn(*args, **kwargs) inside a span called name; a root span also gets a label."""
        spans, stack = self.spans, self._stack
        if not stack:
            self.labels[len(spans)] = label
        if counter:
            self.counters[counter] += 1
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            stack.pop()
            span[2] = time.perf_counter()
            if span[3] >= 0:
                spans[span[3]][4] += span[2] - span[1]
        _count_result(name, result, self.counters)
        return result

    def _wrapper(self, name: str, fn, counter: str | None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        namespaces = [m for key, m in sys.modules.items()
                      if key == "permutomino" or key.startswith("permutomino.")]
        for module_name, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            if names is None:
                names = [k for k, v in vars(module).items() if not k.startswith("_")
                         and inspect.isfunction(v) and v.__module__ == module_name]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                name = f"{_layer(module_name)}.{fname}"
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            counter = WORDS_VALIDATED if (
                                ns.__name__ == "permutomino.oracles"
                                and fname == "from_boundary_word") else None
                            setattr(ns, attr, self._wrapper(name, original, counter))
                            self._patched.append((ns, attr, original))
        module_name, class_name = LAZY_CLASS
        cls = getattr(importlib.import_module(module_name), class_name, None)
        for attr, prop in list(vars(cls or object).items()):
            if isinstance(prop, functools.cached_property):
                name = f"{_layer(module_name)}.{class_name}.{attr}"
                wrapped = functools.cached_property(self._wrapper(name, prop.func, None))
                wrapped.__set_name__(cls, attr)
                setattr(cls, attr, wrapped)
                self._patched.append((cls, attr, prop))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def aggregate(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Calls, self seconds and inclusive seconds per span name."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child
        return calls, self_s, total_s

    def calls_by_root(self) -> dict[str, dict[str, int]]:
        """Calls per span name under each root span, keyed by the root's label."""
        root = []
        out: dict[str, Counter] = defaultdict(Counter)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                out[self.labels[root[i]]][name] += 1
        return {label: dict(sorted(c.items())) for label, c in out.items()}

    def layer_self(self) -> dict[str, float]:
        _, self_s, _ = self.aggregate()
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
