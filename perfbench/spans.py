"""In-memory spans around calls into the simulator's layers.

The benchmark never edits the program: it replaces bound methods on the
objects it built (``engine.step``, ``engine.traffic.step``, a
``ResultCache``'s ``put`` ...) with wrappers that record a span and call
the original.  Spans stay in memory and are written once, at exit, as
Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) opens.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Spans as ``[name, start_ns, end_ns, parent_index, run_id]``.

    ``parent_index`` is the index of the span open when this one
    started (-1 for a root), so self time is exact even though a span is
    appended before its children.
    """

    def __init__(self, run_id: str = "") -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: stamped on each span as it starts.
        self.run_id = run_id

    @contextmanager
    def span(self, name: str):
        spans = self.spans
        stack = self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1, self.run_id])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter_ns()

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a method that records ``name``.

        Written out rather than built on :meth:`span`: the engine calls
        these once per simulated cycle, and the generator machinery of a
        context manager would double the tracing overhead.
        """
        original = getattr(obj, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          self.run_id])
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        setattr(obj, attr, timed)

    # ------------------------------------------------------------------
    def self_times(self, run_prefix: str = "") -> dict[str, float]:
        """Seconds of self time per span name, over runs with the prefix.

        Self time is a span's duration minus the time its direct
        children cover.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, run) in enumerate(self.spans):
            if run.startswith(run_prefix):
                totals[name] += (end - start - covered[i]) / 1e9
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, in start order."""
        return [(end - start) / 1e9
                for n, start, end, _p, _r in self.spans if n == name]

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON: one thread per run id, each span's
        parent being the span that encloses it on that thread."""
        if not self.spans:
            return
        origin = min(s[1] for s in self.spans)
        tids: dict[str, int] = {}
        events = []
        for name, start, end, _parent, run in self.spans:
            tid = tids.setdefault(run, len(tids) + 1)
            events.append({
                "name": name, "cat": name.partition(".")[0], "ph": "X",
                "ts": round((start - origin) / 1e3, 3),
                "dur": round((end - start) / 1e3, 3),
                "pid": 1, "tid": tid,
            })
        meta = [{"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "perfbench"}}]
        meta += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                  "args": {"name": run or "main"}}
                 for run, tid in tids.items()]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": meta + events,
                                    "displayTimeUnit": "ms"},
                                   separators=(",", ":")))
