"""Telemetry event model: JSONL parsing, validation, dedup, per-user timelines.

One JSON object per line.  Required fields: ``event_id``, ``user_id``, ``ts``
(RFC 3339 with an explicit UTC offset) and ``type``; the remaining fields
depend on the event type.  Unknown extra fields are ignored.  Malformed lines
are never fatal: ingestion skips them and keeps a count for the report.

Each event carries its time twice, both derived once from ``ts``: ``instant``
(epoch seconds; dedup and ordering compare it) and ``day`` (the calendar date
of the user's own wall clock; retention and the temporal profiles count it).
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable

DEDUP_WINDOW_SECONDS = 10.0


class UserAction(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    IGNORED = "ignored"


class EventParseError(ValueError):
    """Base for all single-line parse failures; carries enough to skip-and-count."""


class MalformedJson(EventParseError):
    pass


class MissingField(EventParseError):
    def __init__(self, name: str):
        super().__init__(f"missing required field: {name}")
        self.name = name


class BadTimestamp(EventParseError):
    pass


class UnknownKind(EventParseError):
    pass


class BadFieldValue(EventParseError):
    """Present but out-of-range or wrongly typed field (e.g. stars outside 1..5)."""


# Event records are slotted but not frozen: a frozen dataclass's __init__ sets
# every field through object.__setattr__, which makes building one record per
# line cost about as much as decoding the line.  Nothing mutates an event after
# parse_event_line returns it.  Subclasses slot only their added fields, by
# hand: on 3.10 dataclass(slots=True) repeats the base's, 32 bytes a record.


@dataclass(slots=True)
class RawEvent:
    """The fields every event has.  An event's class is its kind."""

    event_id: str
    user_id: str
    instant: float  # epoch seconds
    day: date  # calendar date in the event's own UTC offset (user-local)


@dataclass
class CompletionEvent(RawEvent):
    __slots__ = ("suggestion_id", "prompt", "context")
    suggestion_id: str
    prompt: str
    context: str


@dataclass
class SuggestionEvent(RawEvent):
    __slots__ = ("suggestion_id", "suggestion_text", "line_count", "token_count")
    suggestion_id: str
    suggestion_text: str
    line_count: int
    token_count: int


@dataclass
class ActionEvent(RawEvent):
    __slots__ = ("suggestion_id", "action")
    suggestion_id: str
    action: UserAction


@dataclass
class ContentEvent(RawEvent):
    __slots__ = ("document_text", "suggestion_id")
    document_text: str
    suggestion_id: str | None


@dataclass
class FeedbackEvent(RawEvent):
    __slots__ = ("stars", "comment", "sentiment_label")
    stars: int
    comment: str
    sentiment_label: str | None


_CLASS_BY_TYPE = {
    "completion": CompletionEvent,
    "suggestion": SuggestionEvent,
    "action": ActionEvent,
    "content": ContentEvent,
    "feedback": FeedbackEvent,
}


_MISSING = object()


def _require_str(obj: dict, name: str) -> str:
    value = obj.get(name, _MISSING)
    if value is _MISSING:
        raise MissingField(name)
    if type(value) is not str or not value:
        raise BadFieldValue(f"field {name!r} must be a non-empty string")
    return value


def _require_text(obj: dict, name: str) -> str:
    value = obj.get(name, _MISSING)
    if value is _MISSING:
        raise MissingField(name)
    if type(value) is not str:
        raise BadFieldValue(f"field {name!r} must be a string")
    return value


def _require_int(obj: dict, name: str, minimum: int, maximum: int | None = None) -> int:
    value = obj.get(name, _MISSING)
    if value is _MISSING:
        raise MissingField(name)
    if type(value) is not int:
        raise BadFieldValue(f"field {name!r} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        raise BadFieldValue(f"field {name!r} out of range: {value}")
    return value


# RFC 3339 date-time, nothing else: ASCII digits, 'T' or 't', seconds required,
# an optional fraction of any length (truncated to microseconds), then 'Z',
# 'z' or a numeric offset.  Checked here rather than by datetime.fromisoformat,
# whose acceptance differs between Python versions.
_RFC3339 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt]([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])"
    r"(?:\.([0-9]+))?(?:[Zz]|([+-])([01][0-9]|2[0-3]):([0-5][0-9]))"
)
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@lru_cache(maxsize=1024)
def _local_day(text: str) -> tuple[date, int]:
    """``YYYY-MM-DD`` -> (its date, the epoch seconds of its midnight read as UTC).

    Cached, so events on the same day share one ``date`` object.
    """
    day = date(int(text[:4]), int(text[5:7]), int(text[8:]))
    return day, (day.toordinal() - _EPOCH_ORDINAL) * 86400


@lru_cache(maxsize=1024)
def _parse_stamp(raw: str) -> tuple[float, date]:
    """(epoch seconds, user-local date) of one ``ts`` text.

    Cached: whole-second stamps repeat from line to line (92-99% hits on the
    benchmark logs), and a stamp that never repeats costs one cache miss.
    """
    match = _RFC3339.fullmatch(raw)
    if match is None:
        raise BadTimestamp(f"not an RFC 3339 timestamp with a UTC offset: {raw!r}")
    ymd, hour, minute, second, fraction, sign, off_hour, off_minute = match.groups()
    try:
        day, seconds = _local_day(ymd)
    except ValueError:
        raise BadTimestamp(f"no such date: {raw!r}") from None
    seconds += int(hour) * 3600 + int(minute) * 60 + int(second)
    if sign is not None:
        offset = int(off_hour) * 3600 + int(off_minute) * 60
        seconds -= offset if sign == "+" else -offset
    micros = 0 if fraction is None else int(fraction[:6].ljust(6, "0"))
    # Whole microseconds divided once, as datetime.timestamp() computes it.
    return (seconds * 1_000_000 + micros) / 1_000_000, day


def _parse_timestamp(obj: dict) -> tuple[float, date]:
    raw = obj.get("ts", _MISSING)
    if raw is _MISSING:
        raise MissingField("ts")
    if type(raw) is not str:
        raise BadTimestamp(f"ts must be a string, got {type(raw).__name__}")
    return _parse_stamp(raw)


_ACTION_BY_NAME = {action.value: action for action in UserAction}


_scan_json = json.JSONDecoder().scan_once
_JSON_WHITESPACE = re.compile(r"[ \t\n\r]*")
# The deepest nesting of arrays and objects an event line may hold (the event
# object itself is level 1).  The decoder recurses once per level, so whether
# a deeper line decodes would depend on the caller's stack depth and on the
# Python version; such a line is malformed instead.
MAX_JSON_DEPTH = 64
# A lone surrogate cannot be encoded as UTF-8.  Invalid UTF-8 bytes decode to
# one under "surrogateescape", and a JSON \u escape can spell one.
_SURROGATE = re.compile("[\ud800-\udfff]")
# A JSON escape of a code point in U+D800..U+DFFF; lines without one skip the walk.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _nests_too_deeply(value) -> bool:
    """Whether a decoded value nests arrays and objects deeper than MAX_JSON_DEPTH."""
    level = [value]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            child
            for value in level
            if type(value) in (dict, list)
            for child in (value.values() if type(value) is dict else value)
        ]
        if not level:
            return False
    return any(type(value) in (dict, list) for value in level)


def _decode_json(line: str):
    """Accept what ``json.loads`` accepts, nested at most MAX_JSON_DEPTH levels
    deep, without its per-call overhead."""
    start = 0 if line[:1] == "{" else _JSON_WHITESPACE.match(line).end()
    try:
        obj, end = _scan_json(line, start)
    except StopIteration:
        raise MalformedJson("invalid JSON: Expecting value") from None
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise MalformedJson("invalid JSON: nested too deeply") from None
    if end != len(line) and _JSON_WHITESPACE.match(line, end).end() != len(line):
        raise MalformedJson("invalid JSON: Extra data")
    # Each level opens with a bracket: a line with no "[" and one "{" is flat.
    if ("[" in line or line.find("{", 1) >= 0) and _nests_too_deeply(obj):
        raise MalformedJson("invalid JSON: nested too deeply")
    return obj


def _holds_surrogate(value) -> bool:
    """Whether any string in a decoded JSON value, keys included, holds a lone surrogate."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is str:
            if _SURROGATE.search(value):
                return True
        elif type(value) is dict:
            stack.extend(value)
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
    return False


def parse_event_line(line: str) -> RawEvent:
    """Parse and validate one JSONL event line.

    A line that holds a lone surrogate, raw or as a JSON escape, is malformed.
    """
    if not line.isascii() and _SURROGATE.search(line):
        raise MalformedJson("line is not valid UTF-8")
    obj = _decode_json(line)
    if not isinstance(obj, dict):
        raise MalformedJson("event line is not a JSON object")
    if _SURROGATE_ESCAPE.search(line) and _holds_surrogate(obj):
        raise MalformedJson("a string holds an unpaired surrogate")

    event_id = _require_str(obj, "event_id")
    user_id = _require_str(obj, "user_id")
    instant, day = _parse_timestamp(obj)
    try:
        type_name = obj["type"]
    except KeyError:
        raise MissingField("type") from None
    try:
        cls = _CLASS_BY_TYPE.get(type_name)
    except TypeError:  # an unhashable JSON value: a list or an object
        cls = None
    if cls is None:
        raise UnknownKind(f"unknown event type: {type_name!r}")

    if cls is CompletionEvent:
        return cls(
            event_id, user_id, instant, day, _require_str(obj, "suggestion_id"),
            _require_text(obj, "prompt"), _require_text(obj, "context"),
        )
    if cls is SuggestionEvent:
        text = _require_text(obj, "text")
        lines = _require_int(obj, "lines", minimum=1)
        tokens = _require_int(obj, "tokens", minimum=1)
        if lines != len(text.splitlines()):
            raise BadFieldValue(
                f"field 'lines' is {lines} but text has {len(text.splitlines())} lines"
            )
        sid = _require_str(obj, "suggestion_id")
        return cls(event_id, user_id, instant, day, sid, text, lines, tokens)
    if cls is ActionEvent:
        action_name = _require_str(obj, "action")
        action = _ACTION_BY_NAME.get(action_name)
        if action is None:
            raise BadFieldValue(f"unknown action: {action_name!r}")
        return cls(event_id, user_id, instant, day, _require_str(obj, "suggestion_id"), action)
    if cls is ContentEvent:
        sid = obj.get("suggestion_id")
        if sid is not None and (type(sid) is not str or not sid):
            raise BadFieldValue("field 'suggestion_id' must be a non-empty string when present")
        return cls(event_id, user_id, instant, day, _require_text(obj, "document"), sid)
    label = obj.get("label")
    if label is not None and type(label) is not str:
        raise BadFieldValue("field 'label' must be a string when present")
    stars = _require_int(obj, "stars", minimum=1, maximum=5)
    return cls(event_id, user_id, instant, day, stars, _require_text(obj, "comment"), label)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore its state.

    The pipeline builds hundreds of thousands of long-lived, acyclic objects
    (events, parsed tasks), so collector passes over them find no garbage and
    only cost time.  Reference counting still frees everything as usual.
    Used as a decorator, so the function's locals are freed before the
    collector resumes.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@dataclass
class IngestResult:
    events: list[RawEvent]
    malformed_lines: int


@collector_paused()
def read_events(paths: Iterable[str | Path]) -> IngestResult:
    """Read JSONL logs; malformed lines are skipped and counted, never fatal.

    A line that is not valid UTF-8 counts as malformed (see parse_event_line).
    """
    events: list[RawEvent] = []
    malformed = 0
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                if line.isspace():
                    continue
                try:
                    events.append(parse_event_line(line))
                except EventParseError:
                    malformed += 1
    return IngestResult(events=events, malformed_lines=malformed)


_TIME_ORDER = attrgetter("instant", "event_id")


def _by_user(events: Iterable[RawEvent]) -> list[tuple[str, list[RawEvent]]]:
    """Events grouped per user in user_id order, each group sorted by
    (instant, event_id); ties keep their input order.  Sorted input costs
    one linear pass."""
    per_user: dict[str, list[RawEvent]] = {}
    for event in events:
        per_user.setdefault(event.user_id, []).append(event)
    return [(user_id, sorted(per_user[user_id], key=_TIME_ORDER)) for user_id in sorted(per_user)]


# The fields each class adds to RawEvent, event_id not among them.
_CONTENT = {cls: attrgetter(*cls.__slots__) for cls in _CLASS_BY_TYPE.values()}


def deduplicate(
    events: Iterable[RawEvent], window_seconds: float = DEDUP_WINDOW_SECONDS
) -> list[RawEvent]:
    """Drop repeats of the same (user, kind, content) within the retry window.

    An event is a duplicate when an already-kept event of the same user and
    class, with equal values in every field the class adds to RawEvent, lies
    at most ``window_seconds`` before it; the earliest of each burst survives.
    Output is sorted by (user_id, instant, event_id); ties keep their input
    order.
    """
    kept: list[RawEvent] = []
    for _, user_events in _by_user(events):
        last_kept_at: dict[tuple, float] = {}
        for event in user_events:
            cls = type(event)
            key = (cls, _CONTENT[cls](event))
            previous = last_kept_at.get(key)
            if previous is not None and event.instant - previous <= window_seconds:
                continue
            last_kept_at[key] = event.instant
            kept.append(event)
    return kept


@dataclass
class UserTimeline:
    """All of one user's events, time-ordered, plus their active calendar days."""

    user_id: str
    events: list[RawEvent]
    active_days: set[date] = field(init=False)
    first_day: date = field(init=False)

    def __post_init__(self):
        if not self.events:
            raise ValueError("a timeline requires at least one event")
        self.active_days = {e.day for e in self.events}
        self.first_day = min(self.active_days)


_USER_ID = attrgetter("user_id")


def build_timelines(events: Iterable[RawEvent]) -> list[UserTimeline]:
    """Split deduplicated events into one timeline per user, user_id order.

    ``events`` must come in deduplicate's order: each user's events in one
    run, in (instant, event_id) order, and the runs in user_id order.
    Raises ValueError when the user ids of successive runs do not increase,
    as when one user's events are split across runs.
    """
    timelines: list[UserTimeline] = []
    for user_id, user_events in groupby(events, _USER_ID):
        if timelines and user_id <= timelines[-1].user_id:
            raise ValueError(f"events of user {user_id!r} are not in user_id order")
        timelines.append(UserTimeline(user_id, list(user_events)))
    return timelines
