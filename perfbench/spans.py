"""In-memory spans around the benchmark's calls into sdgflow."""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Times named spans.

    Every span adds its duration to ``totals``. With ``record`` set, each span
    is also kept as a dict with its id, name, start, end, parent id and the
    run id, to be written out when the run ends.
    """

    def __init__(self, run_id: str, record: bool):
        self.run_id = run_id
        self.record = record
        self.totals: dict[str, float] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = parent = None
        if self.record:
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append({})
            self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            if self.record:
                self._open.pop()
                self.spans[sid] = {"id": sid, "name": name, "start": start, "end": end,
                                   "parent": parent, "run": self.run_id}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their children cover.

    The layer is the span name up to the first dot ("solver.solve" ->
    "solver"). Spans of one run never overlap their siblings, so summing the
    children's durations gives the covered time.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


def record_cost_s(spans: int, loops: int = 2000, repeats: int = 8) -> float:
    """Time that recording adds to ``spans`` spans, measured in this process.

    Times ``loops`` empty spans on a Tracer with ``record`` off, then on,
    ``repeats`` times in turn, keeps the fastest timing of each mode, and
    scales the difference per span to ``spans``. Both modes time every span
    the same way, so recording (one dict and two list operations per span) is
    the whole difference; taking the modes in turn keeps a change in the
    host's speed from landing on one of them.
    """
    best = {False: float("inf"), True: float("inf")}
    for _ in range(repeats):
        for record in (False, True):
            tracer = Tracer("cost", record)
            start = perf_counter()
            for _ in range(loops):
                with tracer.span("cost"):
                    pass
            best[record] = min(best[record], perf_counter() - start)
    return spans * (best[True] - best[False]) / loops
