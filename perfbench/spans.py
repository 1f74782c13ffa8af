"""Per-layer spans, recorded by wrapping nsgap functions from outside.

`Tracer.install` replaces every binding of each function in `TARGETS`, in
every loaded `nsgap` module, with a wrapper that records a span: name,
start, end, parent span and request id.  Functions imported by name into
several modules (`spectral_data` sits in markov, rayleigh, embed, expander
and the package root) are found by identity, so a moved import is still
wrapped; `unwrapped_bindings` proves it.  A target the code no longer has
is reported as missing and its metrics read zero.  Span times are process
CPU seconds, like the benchmark's latencies.  Spans stay in memory until
`write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# layer module -> functions (dotted for methods); names follow the modules
TARGETS = {
    "cli": ("run",),
    "markov": ("spectral_data", "build_reversible_chain"),
    "spaces": ("MetricSpace.gauge", "linprog", "config_distance_matrix"),
    "rayleigh": ("gamma_heuristic", "gamma_hilbert_exact", "gamma_bruteforce",
                 "gamma_plus_bruteforce"),
    "john": ("hilbert_distance", "mvee"),
    "mazur": ("mazur_roundtrip_check", "mazur_holder_check"),
    "embed": ("average_embed_hilbert", "duality_forward_check"),
    "expander": ("random_regular_graph", "graph_chain", "distance_spread_check",
                 "bfs_distances"),
}
# spans that also record the tracemalloc peak of the call
PEAK_ALLOC = {"rayleigh.gamma_plus_bruteforce"}
# spans that also record the `iterations` field of the result
ITERATIONS = {"embed.average_embed_hilbert"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    extra: dict = field(default_factory=dict)


def _nsgap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nsgap" or name.startswith("nsgap."))]


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(f"nsgap.{module}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request: str | None = None
        self.originals: dict = {}  # span name -> unwrapped function
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module, names in TARGETS.items():
            for dotted in names:
                span_name = f"{module}.{dotted}"
                owner, attr, fn = _resolve(module, dotted)
                if fn is None:
                    self.missing.append(span_name)
                    continue
                self.originals[span_name] = fn
                wrapper = self._wrap(span_name, fn)
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                for mod in _nsgap_modules():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        peak, iterations = name in PEAK_ALLOC, name in ITERATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            if peak:
                tracemalloc.start()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                span = Span(name, start, end, parent, self.request)
                if peak:
                    span.extra["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                spans[index] = span
            if iterations and getattr(result, "iterations", None) is not None:
                span.extra["iterations"] = int(result.iterations)
            return result

        return wrapper

    # --- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, busy_s (outermost spans of a name) and self_s (minus direct
        children) per span name, plus the extras of embed and enumeration."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for name in list(self.originals) + self.missing:
            for key in ("calls", "busy_s", "self_s"):
                out[f"{name}.{key}"] = 0.0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += dur - child_time[i]
            if not self._nested_in_same(s):
                out[f"{s.name}.busy_s"] += dur
        embeds = [s for s in self.spans if s.name == "embed.average_embed_hilbert"]
        cap = getattr(importlib.import_module("nsgap.embed"), "MAX_ITERS", None)
        iters = [s.extra["iterations"] for s in embeds if "iterations" in s.extra]
        out["embed.average_embed_hilbert.iterations_mean"] = (
            sum(iters) / len(iters) if iters else 0.0)
        out["embed.average_embed_hilbert.cap_stop_ratio"] = (
            sum(i == cap for i in iters) / len(iters) if iters else 0.0)
        peaks = [s.extra["peak_alloc_mb"] for s in self.spans if "peak_alloc_mb" in s.extra]
        out["rayleigh.gamma_plus_bruteforce.peak_alloc_mb"] = max(peaks, default=0.0)
        return dict(out)

    def _nested_in_same(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.extra}) + "\n")

    def unwrapped_bindings(self) -> list:
        """Names in loaded nsgap modules (globals, class attributes and
        module-level containers) that still reach an unwrapped target."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        found = []

        def visit(label, value, depth=0):
            if id(value) in originals:
                found.append(f"{label} -> {originals[id(value)]}")
            elif isinstance(value, type) and depth == 0:
                for key, member in vars(value).items():
                    visit(f"{label}.{key}", member, 1)
            elif isinstance(value, dict) and depth == 0:
                for key, member in value.items():
                    visit(f"{label}[{key!r}]", member, 1)
            elif isinstance(value, (list, tuple)) and depth == 0:
                for k, member in enumerate(value):
                    visit(f"{label}[{k}]", member, 1)

        for mod in _nsgap_modules():
            for key, value in vars(mod).items():
                visit(f"{mod.__name__}.{key}", value)
        return found
