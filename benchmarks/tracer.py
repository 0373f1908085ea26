"""Span recorder that wraps svdlab's public functions from outside the program.

Each call to a wrapped function becomes one span: (name, start, end, parent,
run id), with the run id naming the benchmark operation (FL episode or attack
victim) the call belongs to. Spans stay in memory and are written once, when
the traced run ends. The program itself is not modified: wrapping replaces the
module attribute, and svdlab always calls across and within modules through
module-global lookups, so every call goes through the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import time
import types

# Index of each field in a span record.
NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._paused = 0
        self._patches: list[tuple] = []

    def wrap_module(self, module, annotators: dict | None = None) -> None:
        """Wrap every public function defined in `module`. An annotator,
        keyed by span name, maps (args, result) to extra data kept on the
        span; it runs after the span ends."""
        annotators = annotators or {}
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not isinstance(obj, types.FunctionType)
                or obj.__module__ != module.__name__
            ):
                continue
            name = f"{short}.{attr}"
            setattr(module, attr, self._wrap(name, obj, annotators.get(name)))
            self._patches.append((module, attr, obj))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this context (the harness's own config loading
        and output checks) record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name, fn, annotate):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if annotate is not None:
                rec[INFO] = annotate(args, kwargs, out)
            return out

        return traced

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, times in microseconds from the first
        span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_us,end_us,parent,run_id\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[NAME]},{(s[START] - t0) * 1e6:.3f},"
                    f"{(s[END] - t0) * 1e6:.3f},{s[PARENT]},{s[RUN]}\n"
                )


def quantile(values, q: float) -> float:
    """q-quantile (inclusive method); 0.0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


class SpanTable:
    """Per-function aggregates derived from a tracer's spans.

    busy time counts only the outermost call of a function, so a function
    nested in itself is not counted twice; self time is a span's duration
    minus the time its direct children cover (calls never overlap, because
    the program is single-threaded).
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += s[END] - s[START]
                self.children.setdefault(p, []).append(i)
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            self.durations.setdefault(name, []).append(dur)
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[i]
            if not self._has_ancestor(i, name):
                self.busy_s[name] = self.busy_s.get(name, 0.0) + dur

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def busy(self, name: str) -> float:
        return self.busy_s.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def of(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        return sum(1 for i in self.of(name) if self._has_ancestor(i, ancestor))

    def summary(self) -> dict:
        """Every traced function: calls, busy, self and duration quantiles."""
        out = {}
        for name in sorted(self.durations):
            d = self.durations[name]
            out[name] = {
                "calls": len(d),
                "busy_s": self.busy(name),
                "self_s": self.own(name),
                "us_p50": quantile(d, 0.5) * 1e6,
                "us_p90": quantile(d, 0.9) * 1e6,
            }
        return out
