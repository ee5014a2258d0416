"""Spans around calls into ninecubes, recorded from outside the library.

`Tracer.install` replaces each function in TRACED by a wrapper in every
ninecubes module namespace that binds it (`localdata.series_term` and
`singular.series_term` are the same function under two names), so calls
made inside the library are seen too and nest under their callers.

A span is (id, name, parent id, start, end, op id); op id -1 marks
set-up.  Spans stay in memory until `dump`.  Per name the tracer keeps

- calls;
- busy time: span time, counted once when the function nests in itself;
- self time: span time minus the time covered by child spans;

the two times split by op, so that `times` can scale each op's share by
that op's machine-speed factor.

Counters observed at the same boundaries are kept per op kind.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import workloads

TRACED = (
    "arith.sieve_primes",
    "arith.unit_group",
    "characters.character_group",
    "localdata.euler_factor",
    "localdata.unit_solution_count_float",
    "localdata.series_term",
    "localdata.principal_cubic_table",
    "localdata.unit_solution_count",
    "singular.singular_series_partial",
    "singular.singular_series_euler",
    "singular.singular_integral",
    "convolve.convolve_read",
    "convolve.convolve_full",
    "expsum.weighted_count_direct",
    "expsum.weighted_count_fourier",
    "expsum.minor_arc_sup",
    "arcs.build_dissection",
    "arcs.classify",
    "search.find_solution",
    "search.solution_exists",
    "search.threshold_scan",
)

# lru caches whose hit ratio is reported
CACHED = (
    "localdata.series_term",
    "localdata.principal_cubic_table",
    "localdata.unit_solution_count",
    "characters.unit_roots",
)


def _r_negative(args, kwargs, result):
    return {"expsum.r_negative": int(result < 0)}


def _fourier(args, kwargs, result):
    system, M, N = args[:3]
    return {"expsum.r_negative": int(result < 0),
            "expsum.fourier_len": workloads.cube_window_T(system.a, system.n, M, N)}


def _read_cells(args, kwargs, result):
    return {"convolve.convolve_read.cells": sum(len(p.values) for p in args[0])}


def _full_cells(args, kwargs, result):
    return {"convolve.convolve_full.cells": len(result.values)}


def _minor_points(args, kwargs, result):
    return {"expsum.minor_arc_sup.points_minor": result.points_minor}


def _search_outcome(args, kwargs, result):
    if hasattr(result, "primes"):
        return {"search.find_solution.found": 1,
                "search.find_solution.lex": int(result.found_by.endswith("+lex"))}
    return {"search.find_solution.states_visited": result.states_visited}


OBSERVE = {
    "expsum.weighted_count_direct": _r_negative,
    "expsum.weighted_count_fourier": _fourier,
    "convolve.convolve_read": _read_cells,
    "convolve.convolve_full": _full_cells,
    "expsum.minor_arc_sup": _minor_points,
    "search.find_solution": _search_outcome,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[tuple[str, int], float] = defaultdict(float)  # by (name, op)
        self.self_time: dict[tuple[str, int], float] = defaultdict(float)
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self.kind = "setup"
        self._stack: list[list] = []  # [span id, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every TRACED function wherever the package binds it."""
        for name in CACHED:
            mod, attr = name.split(".")
            self._caches[name] = getattr(getattr(package, mod), attr)
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == package.__name__]
        for name in TRACED:
            mod, attr = name.split(".")
            original = getattr(getattr(package, mod), attr)
            wrapper = self._wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
        self.begin(-1, "setup")

    def uninstall(self) -> None:
        """Put the original functions back."""
        for m, key, original in self._patched:
            setattr(m, key, original)
        self._patched.clear()

    def begin(self, op: int, kind: str) -> None:
        """Attribute the following spans and counters to one op."""
        self.op, self.kind = op, kind
        self._cache_base = self._cache_counts()

    def end(self) -> None:
        for name, (hits, misses) in self._cache_counts().items():
            h0, m0 = self._cache_base[name]
            self.counters[self.kind][name + ".hits"] += hits - h0
            self.counters[self.kind][name + ".misses"] += misses - m0
        self.op, self.kind = -1, "setup"

    def _wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] -= 1
                dur = end - start
                self.calls[name] += 1
                self.self_time[name, self.op] += dur - frame[1]
                if not self._depth[name]:
                    self.busy[name, self.op] += dur
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append((span_id, name, parent, start, end, self.op))
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counters[self.kind][key] += value
            return result

        return traced

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        return {name: fn.cache_info()[:2] for name, fn in self._caches.items()}

    def times(self, scale: dict[int, float]) -> dict[str, tuple[float, float]]:
        """(busy, self) time per name, the share of op i multiplied by scale[i]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for (name, op), dur in self.busy.items():
            out[name][0] += dur * scale[op]
        for (name, op), dur in self.self_time.items():
            out[name][1] += dur * scale[op]
        return {name: (busy, self_s) for name, (busy, self_s) in out.items()}

    def totals(self) -> dict[str, float]:
        """Counters summed over op kinds."""
        out: dict[str, float] = defaultdict(float)
        for counts in self.counters.values():
            for key, value in counts.items():
                out[key] += value
        return out

    def dump(self) -> dict:
        """All spans in start order, as rows of the named columns."""
        return {"columns": ["id", "name", "parent", "start", "end", "op"],
                "rows": sorted(self.spans)}
