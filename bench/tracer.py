"""Per-layer tracing of an unchanged tasklens, from outside the package.

The tracer replaces the module attributes the pipeline resolves at call time
(``tasklens.report.read_events``, ``tasklens.edits.parse_tasks``, ...) with
wrappers that record a span (name, start, end, parent) per call and update
counters at the same boundary.  Spans stay in memory until the run ends.  A
wrapped name that no longer exists is recorded as absent, and the layer's
figures then read 0; so are counters whose function changed its arguments or
result.

Calls run on one thread (the benchmark never passes ``--workers``), so a span
stack gives each span its parent, and a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (span, module, attribute): the names the pipeline resolves.  A span is
# named after its layer, the package module whose function it times.
SPANS = (
    ("config.load", "tasklens.cli", "load_config"),
    ("events.read", "tasklens.report", "read_events"),
    ("events.dedup", "tasklens.report", "deduplicate"),
    ("events.timelines", "tasklens.report", "build_timelines"),
    ("metrics.cohort", "tasklens.report", "returning_user_cohort"),
    ("edits.timeline", "tasklens.report", "analyze_timeline"),
    ("edits.pair", "tasklens.edits", "pair_outcomes"),
    ("edits.classify", "tasklens.edits", "classify_outcome"),
    ("edits.match", "tasklens.edits", "match_committed_task"),
    ("taskparse.parse", "tasklens.edits", "parse_tasks"),
    ("gestalt.similarity", "tasklens.edits", "similarity_ratio"),
    ("gestalt.edit_fraction", "tasklens.edits", "gestalt_edit_fraction"),
    ("metrics.acceptance", "tasklens.report", "acceptance_summary"),
    ("metrics.retention", "tasklens.report", "retention_curve"),
    ("metrics.temporal", "tasklens.report", "temporal_profile"),
    ("feedback.summarize", "tasklens.report", "summarize_feedback"),
    ("report.render", "tasklens.cli", "render_report"),
)

# The self-time figures of layer_metrics: every wrapped call's self time is in
# exactly one of them, so they and trace.unattributed_s add up to trace.wall_s.
SELF_TIMES = (
    "config.load_s", "events.read_s", "events.dedup_s", "events.timelines_s",
    "edits.timeline_s", "edits.pair_s", "edits.classify_self_s", "edits.match_s",
    "taskparse.parse_s", "gestalt.s", "metrics.s", "feedback.s", "report.render_json_s",
)

# Names wrapped only to count calls or to keep a result; they record no span.
CACHE_LOOKUP = ("tasklens.edits", "TaskCache", "parse")
PIPELINE = ("tasklens.cli", "run_pipeline")


def _resolve(module_name: str, *attrs: str):
    """(owner, attribute name, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    value = getattr(owner, attrs[-1], None)
    return None if value is None else (owner, attrs[-1], value)


class Tracer:
    def __init__(self, spans=SPANS):
        self.span_names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.report = None
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._spans = spans

    # --- installing ---------------------------------------------------------

    def install(self) -> "Tracer":
        for span, module, attr in self._spans:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, attr, fn = found
            self._patch(owner, attr, self._span_wrapper(span, fn, _OBSERVERS.get(span)))
        for dotted, make in ((CACHE_LOOKUP, self._counting), (PIPELINE, self._keeping)):
            found = _resolve(*dotted)
            if found is None:
                self.absent.append(".".join(dotted))
                continue
            owner, attr, fn = found
            self._patch(owner, attr, make(fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, span: str, fn, observe):
        names, starts, ends, parents, stack = (
            self.span_names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        counters, absent = self.counters, self.absent

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            result = error = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                counters[span + ".calls"] += 1
                if observe is not None:
                    try:
                        observe(counters, args, result, error)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # The function's arguments or result changed shape.
                        if f"{span} counters" not in absent:
                            absent.append(f"{span} counters")

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters["cache.lookups"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _keeping(self, fn):
        def wrapper(*args, **kwargs):
            self.report = fn(*args, **kwargs)
            return self.report

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: durations minus the direct children's."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        seconds = {span: 0.0 for span, *_ in self._spans}
        for name, duration, children in zip(self.span_names, durations, child_time):
            seconds[name] += duration - children
        return seconds

    def top_level_seconds(self) -> float:
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced run of ``wall_s`` seconds."""
        seconds = self.self_seconds()
        c = self.counters

        def self_s(*spans):
            return sum(seconds[span] for span in spans)

        parse_calls = c["taskparse.parse.calls"]
        lookups = c["cache.lookups"]
        return {
            "events.read_s": self_s("events.read"),
            "events.lines": c["events.lines"],
            "events.malformed": c["events.malformed"],
            "events.dedup_s": self_s("events.dedup"),
            "events.duplicates": c["events.duplicates"],
            "events.timelines_s": self_s("events.timelines"),
            "events.users": c["events.users"],
            "taskparse.parse_s": self_s("taskparse.parse"),
            "taskparse.calls": parse_calls,
            "taskparse.bytes": c["taskparse.bytes"],
            "taskparse.failures": c["taskparse.failures"],
            "edits.timeline_s": self_s("edits.timeline"),
            "edits.pair_s": self_s("edits.pair"),
            "edits.classify_self_s": self_s("edits.classify"),
            "edits.match_s": self_s("edits.match"),
            "edits.outcomes": c["edits.classify.calls"],
            "edits.cache_lookups": lookups,
            "edits.cache_hit_rate": (lookups - parse_calls) / lookups if lookups else 0.0,
            "edits.rename_fallbacks": c["edits.rename_fallbacks"],
            "gestalt.s": self_s("gestalt.similarity", "gestalt.edit_fraction"),
            "gestalt.calls": c["gestalt.similarity.calls"] + c["gestalt.edit_fraction.calls"],
            "gestalt.cells": c["gestalt.cells"],
            "metrics.s": self_s(
                "metrics.cohort", "metrics.acceptance", "metrics.retention", "metrics.temporal"
            ),
            "feedback.s": self_s("feedback.summarize"),
            "report.render_json_s": self_s("report.render"),
            "report.bytes": c["report.bytes"],
            "config.load_s": self_s("config.load"),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - self.top_level_seconds(),
            "trace.spans": len(self.starts),
            "trace.absent_wraps": len(self.absent),
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span and counter as JSON, once the run has ended."""
        index = {span: i for i, (span, *_) in enumerate(self._spans)}
        spans = [
            [index[name], round(start, 7), round(end, 7), parent]
            for name, start, end, parent in zip(self.span_names, self.starts, self.ends, self.parents)
        ]
        doc = {
            "span_names": [span for span, *_ in self._spans],
            "span_fields": ["name", "start", "end", "parent"],
            "spans": spans,
            "counters": dict(self.counters),
            "absent": self.absent,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


# --- counters taken at span boundaries -----------------------------------------
# Each observer runs after its span has ended: observe(counters, args, result, error).

def _read(c, args, result, error):
    if result is not None:
        c["events.lines"] += len(result.events) + result.malformed_lines
        c["events.malformed"] += result.malformed_lines


def _dedup(c, args, result, error):
    if result is not None and hasattr(args[0], "__len__"):
        c["events.duplicates"] += len(args[0]) - len(result)


def _timelines(c, args, result, error):
    if result is not None:
        c["events.users"] += len(result)


def _parse(c, args, result, error):
    c["taskparse.bytes"] += len(args[0].encode("utf-8"))
    if error is not None:
        c["taskparse.failures"] += 1


def _match(c, args, result, error):
    shown = args[0]
    if result is not None and (shown.name is None or result.name != shown.name):
        c["edits.rename_fallbacks"] += 1


def _gestalt(c, args, result, error):
    c["gestalt.cells"] += len(args[0]) * len(args[1])


def _render(c, args, result, error):
    if result is not None:
        c["report.bytes"] += sum(len(blob) for blob in result.values())


_OBSERVERS = {
    "events.read": _read,
    "events.dedup": _dedup,
    "events.timelines": _timelines,
    "taskparse.parse": _parse,
    "edits.match": _match,
    "gestalt.similarity": _gestalt,
    "gestalt.edit_fraction": _gestalt,
    "report.render": _render,
}
