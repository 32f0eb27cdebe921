"""Timing wrappers around the public functions of each redei layer.

Nothing here changes the program: ``install`` rebinds each listed function, in
every loaded ``redei.*`` namespace that holds it, to a wrapper that records a
span (name, start, end, parent, item id).  Spans nest strictly because the
workload runs on one thread, so a span's self time is its duration minus the
durations of its direct children.  Aggregates cover every call; raw spans are
kept only up to ``span_cap`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import isqrt

# module -> functions wrapped; a name the program no longer has is skipped
TRACED = {
    "arith": (
        "factor",
        "square_class",
        "kronecker",
        "hilbert",
        "hilbert_places",
        "prime_divisors",
        "signed_prime_decomposition",
        "is_fundamental_discriminant",
    ),
    "symbol": (
        "is_valid_triple",
        "validate_triple",
        "minimally_ramified_witness",
        "witness_from_solution",
        "twist_witness",
        "twisting_group",
        "_symbol_from_witness",
        "p_part",
        "redei_symbol",
        "verify_reciprocity",
    ),
    "conic": ("solve", "_solve_cached", "is_solvable", "enumerate_solutions"),
    "quadfield": (
        "primes_above",
        "residue_symbol",
        "unramified_at_two",
        "conductor_two_at_two",
        "_split_embedding",
    ),
    "redeimatrix": (
        "build_R4",
        "build_R8",
        "r2",
        "r4",
        "r8",
        "ranks",
        "fundamental_discriminant",
        "second_kind_decompositions",
    ),
    "gf2": ("rank", "rref", "nullspace_basis", "in_span"),
    "oracle": ("enumerate_classes", "narrow_ranks", "compose", "ClassGroup.compose"),
    "cli": ("main",),
}

# per-layer metric stem -> spans it sums over
GROUPS = {
    "arith.factor": ("arith.factor",),
    "arith.square_class": ("arith.square_class",),
    "arith.hilbert": ("arith.hilbert",),
    "arith.kronecker": ("arith.kronecker",),
    "symbol.validate": ("symbol.is_valid_triple", "symbol.validate_triple"),
    "symbol.witness": ("symbol.minimally_ramified_witness", "symbol.witness_from_solution"),
    "symbol.local_parts": ("symbol._symbol_from_witness", "symbol.p_part"),
    "conic.solve": ("conic.solve", "conic._solve_cached"),
    "conic.is_solvable": ("conic.is_solvable",),
    "quadfield.primes_above": ("quadfield.primes_above",),
    "quadfield.residue_symbol": ("quadfield.residue_symbol",),
    "quadfield.dyadic": ("quadfield.unramified_at_two", "quadfield.conductor_two_at_two"),
    "redeimatrix.build_R4": ("redeimatrix.build_R4",),
    "redeimatrix.build_R8": ("redeimatrix.build_R8",),
    "oracle.enumerate_classes": ("oracle.enumerate_classes",),
    "oracle.compose": ("oracle.compose", "oracle.ClassGroup.compose"),
    "oracle.narrow_ranks": ("oracle.narrow_ranks",),
    "cli.main": ("cli.main",),
}

LAYERS = ("arith", "symbol", "conic", "quadfield", "redeimatrix", "gf2", "oracle", "cli")

# spans of the benchmark's own code
RUN_SPAN = "bench.run"
ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.stack: list[list] = []  # [start, child time, span index]
        self.spans: list[tuple] = []  # (name id, start, end, parent index, item, index)
        self.next_index = 0
        self.item = -1
        self.counts = {"conic.cells": 0, "oracle.forms": 0, "redeimatrix.r8_symbols": 0}
        self.skipped: list[str] = []
        self._inside_r8 = 0

    def wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        tracer, stack, spans, cap = self, self.stack, self.spans, self.span_cap
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.next_index
            tracer.next_index = index + 1
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, index]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[sid] += 1
                total_s[sid] += duration
                self_s[sid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index < cap:
                    spans.append((sid, start, end, parent, tracer.item, index))

        return traced

    # counters kept by small shims between a traced wrapper and the original

    def _count_cells(self, fn):
        info = getattr(fn, "cache_info", None)
        if info is None:
            return fn

        @functools.wraps(fn)
        def solve_cached(a, b):
            misses = info().misses
            result = fn(a, b)
            if info().misses != misses:
                self.counts["conic.cells"] += (isqrt(abs(a)) + 1) * (isqrt(abs(b)) + 1)
            return result

        return solve_cached

    def _count_forms(self, fn):
        info = getattr(fn, "cache_info", None)
        if info is None:
            return fn

        @functools.wraps(fn)
        def enumerate_classes(*args, **kwargs):
            misses = info().misses
            group = fn(*args, **kwargs)
            if info().misses != misses:
                self.counts["oracle.forms"] += group.order
            return group

        return enumerate_classes

    def _mark_r8(self, fn):
        @functools.wraps(fn)
        def build_R8(*args, **kwargs):
            self._inside_r8 += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._inside_r8 -= 1

        return build_R8

    def _count_r8_symbols(self, fn):
        @functools.wraps(fn)
        def redei_symbol(*args, **kwargs):
            if self._inside_r8:
                self.counts["redeimatrix.r8_symbols"] += 1
            return fn(*args, **kwargs)

        return redei_symbol

    def install(self):
        """Rebind every function in TRACED; call after the workload's imports."""
        shims = {
            "conic._solve_cached": self._count_cells,
            "oracle.enumerate_classes": self._count_forms,
            "redeimatrix.build_R8": self._mark_r8,
            "symbol.redei_symbol": self._count_r8_symbols,
        }
        namespaces = [
            m for key, m in list(sys.modules.items()) if key == "redei" or key.startswith("redei.")
        ]
        for module_name, attrs in TRACED.items():
            module = sys.modules.get(f"redei.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, fn_name, None)
                if not callable(original):
                    self.skipped.append(name)
                    continue
                shim = shims.get(name)
                wrapper = self.wrap(shim(original) if shim else original, name)
                if owner_name:
                    setattr(owner, fn_name, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)

    def summary(self) -> dict:
        """Per-layer metrics from the aggregates (values only; units are in run.py)."""
        by_name = {n: i for i, n in enumerate(self.names)}

        def total(field, names):
            return sum(field[by_name[n]] for n in names if n in by_name)

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = total(self.self_s, [n for n in self.names if n.split(".")[0] == layer])
        for stem, names in GROUPS.items():
            out[f"{stem}.self_s"] = total(self.self_s, names)
            out[f"{stem}.calls"] = total(self.calls, names)
        out["gf2.calls"] = total(self.calls, [n for n in self.names if n.startswith("gf2.")])
        out.update(self.counts)
        wall = total(self.total_s, [RUN_SPAN])
        out["bench.self_s"] = total(self.self_s, [RUN_SPAN, ITEM_SPAN])
        out["trace.wall_s"] = wall
        # every span nests under RUN_SPAN, so all self times together sum to the
        # wall time; what can move is the share that the program's layers take
        out["trace.layers_share"] = (wall - out["bench.self_s"]) / wall if wall else 0.0
        out["trace.spans"] = self.next_index
        return out

    def write_spans(self, path: str):
        """Write the kept spans as JSON lines [id, name, start, end, parent id, item],
        parents before children; times are perf_counter seconds."""
        names = self.names
        with open(path, "w") as fh:
            for sid, start, end, parent, item, index in sorted(self.spans, key=lambda s: s[5]):
                fh.write(json.dumps([index, names[sid], start, end, parent, item]) + "\n")
