"""Per-layer tracing from outside the program.

The tracer replaces the module and class attributes that callers look up
(for example `synth.covering_mss` or `sat.Solver.solve`) with wrappers that
record a span per call: name, start, end and parent.  Spans are kept in
memory and written out at the end of the run.  A span's self time is its
duration minus the time its child spans cover; self times and call counts
are summed under the span name, which is the layer metric they feed.
`uninstall` puts the original attributes back, so untraced rounds run the
program exactly as it is.

The SAT engine's clause-database calls (`Solver()`, `add_clause`,
`ensure_var`) are too frequent to keep one record each: they are timed and
counted, their time is charged to `sat.clause` and taken out of the
caller's self time, but no span is stored.  Calls the SAT engine makes
into itself are not traced.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[list] = []  # [span index, child ns, name]
        self._in_sat = False
        self._patches: list[tuple[object, str, object]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.graphs: list = []  # conflict graphs built since the last take

    def take(self) -> tuple[dict[str, int], dict[str, int], list]:
        """Self times, counts and graphs since the last take; resets them."""
        out = (dict(self.self_ns), dict(self.counts), self.graphs)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.graphs = []
        return out

    def wrap(self, name: str, fn, count: str | None = None, after=None, sat: bool = False):
        """A wrapper recording one span named `name` per call of `fn`, adding
        one to `count`, and then calling `after(tracer, result, parent span name)`."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if self._in_sat:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            self._in_sat = sat
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._in_sat = False
                stack.pop()
                spans[idx] = (name, t0, t1, parent[0] if parent else -1)
                self.self_ns[name] += t1 - t0 - frame[1]
                if parent:
                    parent[1] += t1 - t0
            if count:
                self.counts[count] += 1
            if after:
                after(self, result, parent[2] if parent else None)
            return result

        return traced

    def quiet(self, name: str, fn, count: str | None = None):
        """Time and count a frequent SAT-engine call without storing a span."""
        stack = self._stack

        def traced(*args, **kwargs):
            if self._in_sat:
                return fn(*args, **kwargs)
            self._in_sat = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._in_sat = False
                self.self_ns[name] += dt
                if count:
                    self.counts[count] += 1
                if stack:
                    stack[-1][1] += dt

        return traced

    def install(self, targets) -> None:
        """`targets` is a list of (owner, attribute, make) where
        make(tracer, original) returns the wrapper."""
        for owner, attr, make in targets:
            original = getattr(owner, attr, None)
            if original is None:
                print(f"perfbench: no {owner.__name__}.{attr} to trace", file=sys.stderr)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(self, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns": ["name", "start_ns", "end_ns", "parent"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
