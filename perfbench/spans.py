"""In-memory spans and counters recorded around calls into thermact's layers.

A span has a name (``<module>.<function>``), the pass it belongs to, the span
that caused it, and its start and end on ``time.perf_counter``. Spans stay in
memory until the run ends; :meth:`Tracer.dump` writes them out as JSON.
Nothing here reaches into the package: the benchmark wraps the package's
public functions with :meth:`Tracer.wrap` and binds the wrappers in their
place for the duration of a traced pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # [name, pass id, parent span index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._open: Counter = Counter()  # span names on the stack
        self.pass_id = "setup"

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.pass_id, parent, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        self._open[name] += 1
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.pass_id][name] += amount

    def wrap(self, name: str, fn, counter=None):
        """`fn` with a span named `name` around each call.

        `counter(tracer, args, result)`, if given, runs after the span closes
        so its own cost is not charged to the layer. A call made inside a
        span of the same name (``feature_matrix`` calling ``extract_features``)
        is neither timed nor counted again.
        """

        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def pass_totals(self, pass_id: str) -> dict[str, float]:
        """Seconds per span name within one pass (nested spans counted inclusively)."""
        totals: dict[str, float] = defaultdict(float)
        for name, pid, _, start, end in self.spans:
            if pid == pass_id:
                totals[name] += end - start
        return totals

    def top_level_seconds(self, pass_id: str) -> float:
        """Seconds a pass spent inside spans that have no parent span."""
        return sum(
            end - start
            for _, pid, parent, start, end in self.spans
            if pid == pass_id and parent == -1
        )

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [
                {"name": n, "pass": p, "parent": par, "start": s, "end": e}
                for n, p, par, s, e in self.spans
            ],
            "counts": {p: dict(c) for p, c in self.counts.items()},
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
