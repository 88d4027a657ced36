"""Per-layer spans for the traced run, recorded from outside the program.

Each traced function is replaced, on every ``alexinv`` module attribute
bound to it (``covers`` imports ``abelianize`` and ``mod_p_rank`` by name),
by a wrapper that records a span.  Methods are wrapped on their class.  A
layer's self time is its spans' time minus the time of the spans nested in
them, so the recursive ``alexander.det`` and the ``LaurentPoly`` operators,
which are not wrapped, fall into their caller's self time.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _parse(args, result):
    return {"presentation.parse.chars": len(args[0])}, {}


def _fox(args, result):
    return {"presentation.fox_matrix.letters":
            sum(len(r) for r in args[0].relators)}, {}


def _smith(args, result):
    A = args[0]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    nonzeros = sum(1 for row in A for x in row if x)
    return ({"presentation.smith.entries": rows * cols,
             "presentation.smith.nonzeros": nonzeros},
            {"matrix_rows": rows, "matrix_cols": cols,
             "matrix_nonzeros": nonzeros})


def _minors(args, result):
    return {"alexander.minors.count": len(result),
            "alexander.minors.max_size": args[1]}, {"minors": len(result)}


def _gcd(args, result):
    bits = max((abs(c).bit_length() for f in args[:2]
                for c in f.terms.values()), default=0)
    return {"laurent.gcd.inputs": 2,
            "laurent.gcd.max_coeff_bits": bits}, {"coeff_bits": bits}


def _root_norm(args, result):
    points = math.prod(args[1])
    return {"laurent.root_norm.points": points}, {"points": points}


def _rs(args, result):
    cover = result.presentation
    index = args[0].deck.order
    return ({"covers.rs.index": index,
             "covers.rs.generators": cover.num_generators,
             "covers.rs.relators": cover.num_relators},
            {"cover_index": index, "cover_generators": cover.num_generators,
             "cover_relators": cover.num_relators})


def _bareiss(args, result):
    degree = args[1].degree
    return {"cyclotomic.max_degree": degree}, {"phi_m": degree}


@dataclass(frozen=True)
class Layer:
    """A traced function: ``attr`` may be ``Class.method``; ``sizes`` maps
    (args, result) to per-pass metric increments and per-case notes."""

    name: str
    module: str
    attr: str
    sizes: Callable | None = None


LAYERS = (
    Layer("presentation.parse", "alexinv.presentation", "parse_presentation",
          _parse),
    Layer("presentation.fox_matrix", "alexinv.presentation", "fox_matrix",
          _fox),
    Layer("presentation.smith", "alexinv.presentation", "smith_normal_form",
          _smith),
    Layer("presentation.abelianize", "alexinv.presentation", "abelianize"),
    Layer("presentation.mod_p_rank", "alexinv.presentation", "mod_p_rank"),
    Layer("alexander.minors", "alexinv.alexander", "elementary_minors",
          _minors),
    Layer("laurent.gcd", "alexinv.laurent", "gcd", _gcd),
    Layer("laurent.root_norm", "alexinv.laurent", "root_of_unity_norm",
          _root_norm),
    Layer("covers.rs", "alexinv.covers", "reidemeister_schreier", _rs),
    Layer("covers.hironaka", "alexinv.covers", "hironaka_predicted_betti"),
    Layer("covers.char_rank", "alexinv.covers", "char_rank"),
    Layer("cyclotomic.bareiss", "alexinv.cyclotomic", "bareiss_rank",
          _bareiss),
    Layer("cyclotomic.inverse", "alexinv.cyclotomic",
          "CyclotomicField.inverse"),
)

# Layers each workload must call at least once; a zero count means a
# binding was missed (or the workload no longer reaches the layer).
WORKLOAD_LAYERS = {
    "order-poly": ("presentation.parse", "presentation.fox_matrix",
                   "presentation.smith", "presentation.abelianize",
                   "alexander.minors", "laurent.gcd"),
    "cover-torsion": ("presentation.smith", "presentation.abelianize",
                      "laurent.root_norm", "covers.rs"),
    "cover-betti": ("presentation.abelianize", "covers.hironaka",
                    "covers.char_rank", "cyclotomic.bareiss",
                    "cyclotomic.inverse"),
    "verify-suites": tuple(layer.name for layer in LAYERS),
}


def _resolve(layer):
    owner = sys.modules[layer.module]
    path = layer.attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Collects self time, call counts and sizes for one pass at a time."""

    def __init__(self):
        self._stack = []  # time spent in child spans, one slot per open span
        self._patches = []
        self.begin_pass()

    def begin_pass(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        self.case_notes = []

    def begin_case(self, _index):
        self.case_notes.append({})

    def _record(self, layer, args, result):
        increments, notes = layer.sizes(args, result)
        for key, value in increments.items():
            if ".max_" in key:
                self.sizes[key] = max(self.sizes[key], value)
            else:
                self.sizes[key] += value
        if self.case_notes:
            case = self.case_notes[-1]
            for key, value in notes.items():
                case[key] = max(case.get(key, 0), value)

    def _wrap(self, layer, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.self_s[layer.name] += elapsed - stack.pop()
                self.calls[layer.name] += 1
                if stack:
                    stack[-1] += elapsed
            if layer.sizes is not None:
                t1 = clock()
                self._record(layer, args, result)
                # keep the bookkeeping out of the parent's self time
                if stack:
                    stack[-1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "alexinv" or name.startswith("alexinv.")]
        try:
            for layer in LAYERS:
                owner, attr = _resolve(layer)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for target in [owner] + modules:
                    for name, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, name, original))
                            setattr(target, name, wrapper)
            yield self
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)
            self._stack.clear()

    def pass_metrics(self):
        """Per-layer metrics of the current pass (verify and trace metrics
        are filled in by the runner)."""
        out = {}
        for layer in LAYERS:
            out[layer.name + ".self_s"] = self.self_s[layer.name]
            out[layer.name + ".calls"] = self.calls[layer.name]
        out.update(self.sizes)
        covers = self.calls["covers.hironaka"]
        if covers:
            out["covers.char_rank.per_cover"] = \
                self.calls["covers.char_rank"] / covers
        return out

    def missing_layers(self, workload):
        """Layers the workload is mapped to that saw no call this pass."""
        return [name for name in WORKLOAD_LAYERS[workload]
                if not self.calls[name]]
