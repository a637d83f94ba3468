"""Spans and counters around the public entry points of ``adatm``.

The benchmark traces the program from the outside: :func:`install` swaps
each entry point listed in :data:`ENTRY_POINTS` for a wrapper, at the
place where callers look the name up, and :meth:`Installed.restore` puts
the originals back.  Nothing inside ``src/`` is changed.

Layer boundaries get spans (name, start, end, parent); the hottest inner
calls get counters instead, so the traced run stays usable.  All spans of
one :class:`Tracer` share its trace id, and they stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

SPAN, COUNT, TIMED = "span", "count", "timed"

#: (layer metric name, module, attribute path, kind).  A name appears once
#: per module that looks it up: ``from ... import`` binds a second name.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("scenario.load_scenario", "adatm.scenario", "load_scenario", SPAN),
    ("scenario.simulate", "adatm.scenario", "simulate", SPAN),
    ("scenario.run_oracle", "adatm.scenario", "run_oracle", SPAN),
    ("scenario.render_report", "adatm.scenario", "render_report", SPAN),
    ("trajectory.plan_segments", "adatm.traffic", "plan_segments", SPAN),
    ("trajectory.segment_trajectory", "adatm.trajectory", "segment_trajectory", COUNT),
    ("trajectory.segment_trajectory", "adatm.scenario", "segment_trajectory", COUNT),
    ("airspace.bucket_capacity", "adatm.traffic", "bucket_capacity", TIMED),
    ("airspace.bucket_capacity", "adatm.scenario", "bucket_capacity", TIMED),
    ("airspace.storm_overlap_window", "adatm.airspace", "storm_overlap_window", COUNT),
    ("traffic.try_insert", "adatm.traffic", "AirspaceState.try_insert", SPAN),
    ("traffic.classify_insert", "adatm.traffic", "AirspaceState.classify_insert", SPAN),
    ("traffic.negotiate", "adatm.traffic", "AirspaceState.negotiate", SPAN),
    ("traffic.advance_weather", "adatm.traffic", "AirspaceState.advance_weather", SPAN),
    ("traffic.predict_congestion", "adatm.traffic",
     "AirspaceState.predict_congestion", SPAN),
    ("traffic.capacity", "adatm.traffic", "AirspaceState.capacity", COUNT),
    ("traffic.segment_spots", "adatm.traffic", "AirspaceState.segment_spots", COUNT),
    ("traffic.apply_resolution", "adatm.traffic", "AirspaceState.apply_resolution", COUNT),
    ("traffic.remove_flight", "adatm.traffic", "AirspaceState.remove_flight", COUNT),
    ("scheduler.run_until_quiescent", "adatm.scheduler",
     "Runtime.run_until_quiescent", SPAN),
    ("scheduler.step", "adatm.scheduler", "Runtime.step", SPAN),
    ("scheduler.render_event_log", "adatm.scheduler", "Runtime.render_event_log", SPAN),
    ("scheduler.add", "adatm.scheduler", "Runtime.add", COUNT),
    ("scheduler.mark_deleted", "adatm.scheduler", "Runtime.mark_deleted", COUNT),
    ("nearness.query", "adatm.nearness", "NearnessIndex.query", SPAN),
    ("nearness.insert", "adatm.nearness", "NearnessIndex.insert", COUNT),
    ("nearness.remove", "adatm.nearness", "NearnessIndex.remove", COUNT),
    ("nearness.candidates_scanned", "adatm.nearness", "QuerySpec.matches", COUNT),
    ("kernel.encapsulate", "adatm.kernel", "encapsulate", COUNT),
    ("kernel.is_duplicate", "adatm.kernel", "is_duplicate", COUNT),
    ("kernel.resolve", "adatm.kernel", "resolve", COUNT),
    ("kernel.tier_decision", "adatm.scheduler", "tier_decision", COUNT),
)

#: Counted only while a ``nearness.query`` span is open: the subscription
#: check in the activation recipe calls ``QuerySpec.matches`` directly.
_UNDER_QUERY = "nearness.candidates_scanned"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Spans and counters of one trace (one traced scenario run)."""

    trace_id: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    matched: int = 0
    _stack: list[int] = field(default_factory=list)
    _in_query: int = 0

    def snapshot_counts(self) -> dict[str, float]:
        """Counters so far, as ``<name>.calls`` / ``<name>.s`` plus the
        nearness result totals."""
        out: dict[str, float] = {f"{k}.calls": v for k, v in self.counts.items()
                                 if k != _UNDER_QUERY}
        out.update({f"{k}.s": v for k, v in self.seconds.items()})
        out[_UNDER_QUERY] = self.counts.get(_UNDER_QUERY, 0)
        out["nearness.matched"] = self.matched
        return out

    def span_metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``.s`` (inclusive) and ``.self_s`` (inclusive
        minus the time covered by direct child spans) per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + duration
            out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + \
                duration - children
        return out

    def records(self) -> list[dict]:
        return [{"trace": self.trace_id, "span": i, "parent": s.parent,
                 "name": s.name, "start": s.start, "end": s.end}
                for i, s in enumerate(self.spans)]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def _query(self, name: str, fn):
        inner = self._span(name, fn)

        def traced(*args, **kwargs):
            self._in_query += 1
            try:
                hits = inner(*args, **kwargs)
            finally:
                self._in_query -= 1
            self.matched += len(hits)
            return hits
        return traced

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_under_query(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if self._in_query:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, name: str, fn):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter
        counts.setdefault(name, 0)
        seconds.setdefault(name, 0.0)

        def timed(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
        return timed

    def wrap(self, name: str, kind: str, fn):
        if name == "nearness.query":
            return self._query(name, fn)
        if name == _UNDER_QUERY:
            return self._count_under_query(name, fn)
        return {SPAN: self._span, COUNT: self._count, TIMED: self._timed}[kind](name, fn)


@dataclass
class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    patched: list[tuple[object, str, object]]
    #: ``module:attribute`` of entry points that no longer exist.
    absent: list[str]

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Read from the class dict so a method is restored as the plain function.
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point that exists; report the ones that do not."""
    installed = Installed([], [])
    for name, module, path, kind in ENTRY_POINTS:
        found = _resolve(module, path)
        if found is None:
            installed.absent.append(f"{module}:{path}")
            continue
        owner, attr, original = found
        setattr(owner, attr, tracer.wrap(name, kind, original))
        installed.patched.append((owner, attr, original))
    return installed
