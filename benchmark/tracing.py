"""In-memory spans around the benchmark's calls into banditlab, plus policy wrappers.

The program itself is not instrumented: spans wrap the calls this benchmark
makes into each module, are kept in memory, and are written once at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records (id, parent, name, start, end, attrs) spans; parents nest by call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds (minus child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            d = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - child_time[s["id"]]
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "summary": self.summary(), "spans": self.spans}, fh, indent=1)


class NullPolicy:
    """Always plays arm 0 and learns nothing: run_episode's cost without a policy."""

    name = "null"

    def select(self, rng) -> int:
        return 0

    def update(self, arm: int, reward: int) -> None:
        pass


class TimedPolicy:
    """Wraps a policy and times every select and update call.

    Update time is split by reward. Per-round policy time (select + update)
    is kept for every round so early and late windows can be compared.
    """

    def __init__(self, inner, horizon: int):
        self.inner = inner
        self.name = inner.name
        self.round_s = [0.0] * horizon
        self.select_s = 0.0
        self.rewarded_s = 0.0
        self.unrewarded_s = 0.0
        self.rewarded = 0
        self.t = 0
        self._select_dt = 0.0

    def select(self, rng) -> int:
        t0 = time.perf_counter()
        arm = self.inner.select(rng)
        dt = time.perf_counter() - t0
        self.select_s += dt
        self._select_dt = dt
        return arm

    def update(self, arm: int, reward: int) -> None:
        t0 = time.perf_counter()
        self.inner.update(arm, reward)
        dt = time.perf_counter() - t0
        if reward:
            self.rewarded_s += dt
            self.rewarded += 1
        else:
            self.unrewarded_s += dt
        self.round_s[self.t] = self._select_dt + dt
        self.t += 1

    def late_early_ratio(self, window: int) -> float:
        """Mean policy time per round over the last ``window`` rounds over the first."""
        early = sum(self.round_s[:window])
        late = sum(self.round_s[self.t - window : self.t])
        return late / early
