"""Spans and counts recorded around the benchmark's own calls into dhlab.

A span has a name, a start, an end and the span that caused it.  Spans stay
in memory until the run ends and writes them out.  Untraced runs use
``NO_TRACE``, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, round_index: int):
        self.round_index = round_index
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def add(self, name: str, seconds: float) -> None:
        """A span timed in a child process, ending now."""
        end = time.perf_counter()
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "start": end - seconds, "end": end, "child": True})

    def total(self, name: str) -> float:
        """Seconds spent in spans of this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def to_json(self) -> dict:
        return {"round": self.round_index, "spans": self.spans, "counts": dict(self.counts)}


class _NoTrace:
    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def add(self, name: str, seconds: float) -> None:
        pass


NO_TRACE = _NoTrace()


def import_times(report: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Cumulative import seconds per top-level package from the stderr of
    ``python -X importtime``.

    Lines come children first, indented two spaces per level.  A package's
    time is the sum of the cumulative times of its modules that are not
    nested inside another of its modules, so imports it triggers in other
    packages count towards it.
    """
    rows = []  # (depth, name, cumulative us)
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, _, rest = line.partition(":")
        _, cumulative, name = rest.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))

    def package(name: str) -> str:
        return name.split(".")[0]

    # Walk parents before children: reversed post-order puts each module
    # before everything it imported.
    totals = {p: 0.0 for p in packages}
    ancestors: list[str] = []  # package of the open module at each depth
    for depth, name, cumulative in reversed(rows):
        del ancestors[depth:]
        top = package(name)
        if top in totals and top not in ancestors:
            totals[top] += cumulative / 1e6
        ancestors.append(top)
    return totals
