"""In-memory spans around the benchmark driver's calls into ``flowrl``.

A span records its name (``<module>.<function>``), its start, its end and the
index of its parent span. Spans are kept in memory and written out when the
run ends. The tracer can be switched on and off between iterations, so one
run can time traced and untraced iterations of the same loop; only the wall
time spent while it is on counts towards the per-module shares.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from catalog import MODULES


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._on_since = 0.0
        self.active_s = 0.0

    def set_active(self, on: bool) -> None:
        """Switch span recording on or off; a no-op when tracing is disabled."""
        on = on and self.enabled
        if on == self.active:
            return
        now = time.perf_counter()
        if on:
            self._on_since = now
        else:
            self.active_s += now - self._on_since
        self.active = on

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self) -> dict[str, list[float]]:
        """Self time (duration minus direct children) of every span, by name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child_s[i])
        return out

    def module_shares(self) -> dict[str, float]:
        """Share of the traced wall time spent in each module's own code."""
        if self.active:
            self.set_active(False)
        totals = dict.fromkeys(MODULES, 0.0)
        for name, times in self.self_times().items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + sum(times)
        wall = self.active_s or 1.0
        shares = {m: t / wall for m, t in totals.items()}
        shares["bench"] = max(0.0, 1.0 - sum(shares.values()))
        return shares

    def dump(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"active_s": self.active_s, "spans": rows}))
