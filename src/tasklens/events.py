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
from datetime import date
from enum import Enum
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple

DEDUP_WINDOW_SECONDS = 10.0


class UserAction(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    IGNORED = "ignored"

    # Members are singletons, so the identity hash serves, at C speed:
    # Enum.__hash__ is a Python call (hash of the name) on every dict lookup
    # that a dedup key or a category count makes.  No member set is iterated
    # into a report, so the address-dependent order shows nowhere.
    __hash__ = object.__hash__


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


# Event records are plain classes with hand-written slots and __init__s: one
# is built per line, and a namedtuple is slower both to build and to read (on
# Python 3.11, 354 against 293 ns a build, 52 against 20 ns for three reads).
# They are not frozen, which would make every field an object.__setattr__
# call; nothing mutates an event after parse_event_line returns it.  Each kind
# slots only the fields it adds, so its __slots__ names what the dedup key reads.


class RawEvent:
    """The fields every event has.  An event's class is its kind."""

    __slots__ = ("event_id", "user_id", "instant", "day")

    event_id: str
    user_id: str
    instant: float  # epoch seconds
    day: date  # calendar date in the event's own UTC offset (user-local)

    def __init__(self, event_id, user_id, instant, day):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day

    def _values(self) -> tuple:
        return tuple(getattr(self, slot) for slot in RawEvent.__slots__ + self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"


class CompletionEvent(RawEvent):
    __slots__ = ("suggestion_id", "prompt", "context")
    suggestion_id: str
    prompt: str
    context: str

    def __init__(self, event_id, user_id, instant, day, suggestion_id, prompt, context):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day
        self.suggestion_id = suggestion_id
        self.prompt = prompt
        self.context = context


class SuggestionEvent(RawEvent):
    __slots__ = ("suggestion_id", "suggestion_text", "line_count", "token_count")
    suggestion_id: str
    suggestion_text: str
    line_count: int
    token_count: int

    def __init__(
        self, event_id, user_id, instant, day, suggestion_id, suggestion_text, line_count,
        token_count,
    ):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day
        self.suggestion_id = suggestion_id
        self.suggestion_text = suggestion_text
        self.line_count = line_count
        self.token_count = token_count


class ActionEvent(RawEvent):
    __slots__ = ("suggestion_id", "action")
    suggestion_id: str
    action: UserAction

    def __init__(self, event_id, user_id, instant, day, suggestion_id, action):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day
        self.suggestion_id = suggestion_id
        self.action = action


class ContentEvent(RawEvent):
    __slots__ = ("document_text", "suggestion_id")
    document_text: str
    suggestion_id: str | None

    def __init__(self, event_id, user_id, instant, day, document_text, suggestion_id):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day
        self.document_text = document_text
        self.suggestion_id = suggestion_id


class FeedbackEvent(RawEvent):
    __slots__ = ("stars", "comment", "sentiment_label")
    stars: int
    comment: str
    sentiment_label: str | None

    def __init__(self, event_id, user_id, instant, day, stars, comment, sentiment_label):
        self.event_id = event_id
        self.user_id = user_id
        self.instant = instant
        self.day = day
        self.stars = stars
        self.comment = comment
        self.sentiment_label = sentiment_label


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


# The deepest nesting of arrays and objects an event line may hold (the event
# object itself is level 1).  The decoder recurses once per level, so whether
# a deeper line decodes would depend on the caller's stack depth and on the
# Python version; such a line is malformed instead.
MAX_JSON_DEPTH = 64
# A lone surrogate cannot be encoded as UTF-8.  Invalid UTF-8 bytes decode to
# one under "surrogateescape", and a JSON \u escape can spell one.
_SURROGATE = re.compile("[\ud800-\udfff]")
# A JSON escape of a code point in U+D800..U+DFFF.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _check_json_value(value) -> None:
    """Raise MalformedJson if a decoded value nests arrays and objects deeper
    than MAX_JSON_DEPTH or holds a lone surrogate in any string, keys included."""
    level, depth = [value], 1
    while level:
        children = []
        for item in level:
            kind = type(item)
            if kind is str:
                if _SURROGATE.search(item):
                    raise MalformedJson("a string holds an unpaired surrogate")
            elif kind is dict or kind is list:
                if depth > MAX_JSON_DEPTH:
                    raise MalformedJson("invalid JSON: nested too deeply")
                children.extend(item)  # a dict's keys
                if kind is dict:
                    children.extend(item.values())
        level, depth = children, depth + 1


def _decode_json(line: str):
    """``json.loads(line)``; MalformedJson where the line holds a raw lone
    surrogate, where json.loads fails, or where the value nests deeper than
    MAX_JSON_DEPTH or holds a lone surrogate.

    Only an escape can then spell a surrogate, and each level opens with a
    bracket: a line with no "[", one "{" and no such escape skips the walk.
    """
    if not line.isascii() and _SURROGATE.search(line):
        raise MalformedJson("line is not valid UTF-8")
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc.msg}") from None
    except ValueError:  # an integer longer than int() converts (sys.get_int_max_str_digits)
        raise MalformedJson("invalid JSON: integer has too many digits") from None
    except RecursionError:
        raise MalformedJson("invalid JSON: nested too deeply") from None
    if "[" in line or line.find("{", 1) >= 0 or _SURROGATE_ESCAPE.search(line):
        _check_json_value(value)
    return value


# The line shape the collectors write, which parse_event_line reads without
# the JSON decoder: the keys in README order, ids with no escape or control
# character, counts of 1 to 18 digits with no leading zero, and every "," and
# ":" followed by the same space, none or one (json.dumps' default).  The ts is
# taken as written, since _parse_stamp refuses anything but RFC 3339.  Each
# free text is spanned loosely; scanstring, the decoder's own string reader,
# decodes it from the span's start and must stop at the quote after its end.
_ID = r'[^"\\\x00-\x1f]+'
_COUNT = r"[1-9][0-9]{0,17}"  # [0-9]: \d also matches other scripts' digits
_EVENT_LINE = re.compile(
    rf'\{{"event_id":(?P<sp> ?)"(?P<event_id>{_ID})",(?P=sp)"user_id":(?P=sp)"(?P<user_id>{_ID})",'
    r'(?P=sp)"ts":(?P=sp)"(?P<ts>[^"]+)",(?P=sp)"type":(?P=sp)"(?:'
    rf'completion",(?P=sp)"suggestion_id":(?P=sp)"(?P<completion_sid>{_ID})",'
    # The prompt is spanned as a JSON string body, so that it cannot run on
    # into the context: two unbounded spans would backtrack quadratically.
    r'(?P=sp)"prompt":(?P=sp)"(?P<prompt>[^"\\]*(?:\\.[^"\\]*)*)",'
    r'(?P=sp)"context":(?P=sp)"(?P<context>.*)"'
    rf'|suggestion",(?P=sp)"suggestion_id":(?P=sp)"(?P<suggestion_sid>{_ID})",'
    rf'(?P=sp)"text":(?P=sp)"(?P<text>.*)",(?P=sp)"lines":(?P=sp)(?P<lines>{_COUNT}),'
    rf'(?P=sp)"tokens":(?P=sp)(?P<tokens>{_COUNT})'
    rf'|action",(?P=sp)"suggestion_id":(?P=sp)"(?P<action_sid>{_ID})",'
    r'(?P=sp)"action":(?P=sp)"(?P<action>accepted|rejected|ignored)"'
    rf'|content",(?P=sp)(?:"suggestion_id":(?P=sp)"(?P<content_sid>{_ID})",(?P=sp))?'
    r'"document":(?P=sp)"(?P<document>.*)"'
    r')\}\r?\n?\Z',
    re.DOTALL,
)
_scan_string = json.decoder.scanstring


def _text_at(line: str, span: tuple[int, int]) -> str | None:
    """The JSON string whose body the pattern spans; None unless it ends where
    the span does and holds no lone surrogate."""
    start, end = span
    if start == end:
        return ""
    try:
        text, stop = _scan_string(line, start)
    except json.JSONDecodeError:
        return None
    if stop != end + 1 or (not text.isascii() and _SURROGATE.search(text)):
        return None
    return text


@lru_cache(maxsize=1024)
def _line_count(text: str) -> int:
    """How many lines a suggestion text has; cached, since texts repeat."""
    return len(text.splitlines())


def _event_of_match(match: re.Match, shared: dict | None) -> RawEvent | None:
    """The event _parse_json_line gives for the line _EVENT_LINE matched, or
    None where a check fails.  The kind is the one whose suggestion id
    matched, or content, whose suggestion id is optional.  Nothing goes
    through ``shared`` until every check has passed, then in the order
    _parse_json_line shares."""
    (_, event_id, user_id, ts, completion_sid, prompt, context, suggestion_sid, text, lines,
     tokens, action_sid, action, content_sid, document) = match.groups()
    # The texts are decoded from the line, and these copies dropped first: a
    # document copy alive while its text is decoded leaves a hole the next
    # line does not fit (0.7 MiB more peak RSS on the playbooks bench).
    del prompt, context, text, document
    try:
        instant, day = _parse_stamp(ts)
    except BadTimestamp:
        return None
    line = match.string
    share = ({} if shared is None else shared).setdefault
    if completion_sid is not None:
        prompt = _text_at(line, match.span("prompt"))
        context = _text_at(line, match.span("context"))
        if prompt is None or context is None:
            return None
        return CompletionEvent(
            event_id, share(user_id, user_id), instant, day, share(completion_sid, completion_sid),
            share(prompt, prompt), share(context, context),
        )
    if suggestion_sid is not None:
        text = _text_at(line, match.span("text"))
        lines = int(lines)
        if text is None or lines != _line_count(text):
            return None
        return SuggestionEvent(
            event_id, share(user_id, user_id), instant, day, share(suggestion_sid, suggestion_sid),
            share(text, text), lines, int(tokens),
        )
    if action_sid is not None:
        return ActionEvent(
            event_id, share(user_id, user_id), instant, day, share(action_sid, action_sid),
            _ACTION_BY_NAME[action],
        )
    document = _text_at(line, match.span("document"))
    if document is None:
        return None
    return ContentEvent(
        event_id, share(user_id, user_id), instant, day, share(document, document),
        share(content_sid, content_sid),
    )


def _parse_json_line(line: str, shared: dict | None = None) -> RawEvent:
    """parse_event_line by the JSON decoder: the path of every line that
    _EVENT_LINE does not take, and the one that raises every parse error."""
    obj = _decode_json(line)
    if not isinstance(obj, dict):
        raise MalformedJson("event line is not a JSON object")

    share = ({} if shared is None else shared).setdefault
    event_id = _require_str(obj, "event_id")
    user_id = _require_str(obj, "user_id")
    user_id = share(user_id, user_id)
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
        sid = _require_str(obj, "suggestion_id")
        prompt = _require_text(obj, "prompt")
        context = _require_text(obj, "context")
        return cls(
            event_id, user_id, instant, day, share(sid, sid),
            share(prompt, prompt), share(context, context),
        )
    if cls is SuggestionEvent:
        text = _require_text(obj, "text")
        lines = _require_int(obj, "lines", minimum=1)
        tokens = _require_int(obj, "tokens", minimum=1)
        if lines != _line_count(text):
            raise BadFieldValue(f"field 'lines' is {lines} but text has {_line_count(text)} lines")
        sid = _require_str(obj, "suggestion_id")
        return cls(
            event_id, user_id, instant, day, share(sid, sid), share(text, text), lines, tokens
        )
    if cls is ActionEvent:
        action_name = _require_str(obj, "action")
        action = _ACTION_BY_NAME.get(action_name)
        if action is None:
            raise BadFieldValue(f"unknown action: {action_name!r}")
        sid = _require_str(obj, "suggestion_id")
        return cls(event_id, user_id, instant, day, share(sid, sid), action)
    if cls is ContentEvent:
        sid = obj.get("suggestion_id")
        if sid is not None and (type(sid) is not str or not sid):
            raise BadFieldValue("field 'suggestion_id' must be a non-empty string when present")
        document = _require_text(obj, "document")
        return cls(event_id, user_id, instant, day, share(document, document), share(sid, sid))
    label = obj.get("label")
    if label is not None and type(label) is not str:
        raise BadFieldValue("field 'label' must be a string when present")
    stars = _require_int(obj, "stars", minimum=1, maximum=5)
    return cls(event_id, user_id, instant, day, stars, _require_text(obj, "comment"), label)


def parse_event_line(line: str, shared: dict | None = None) -> RawEvent:
    """Parse and validate one JSONL event line.

    A line that holds a lone surrogate, raw or as a JSON escape, is malformed.
    The user id, suggestion id, suggestion text, document, prompt and context
    go through ``shared``: lines parsed with one dict hold one object for each
    distinct value of those fields.  Event ids, which never repeat, do not.

    A line in the collectors' shape (_EVENT_LINE) is read from the pattern's
    match; any other line, and any line where a check fails, is read by the
    JSON decoder, which gives the same event or raises the error.
    """
    match = _EVENT_LINE.match(line)
    # A raw lone surrogate (invalid UTF-8) anywhere is the JSON path's to refuse.
    if match is not None and (line.isascii() or not _SURROGATE.search(line)):
        event = _event_of_match(match, shared)
        if event is not None:
            return event
    return _parse_json_line(line, shared)


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


class IngestResult(NamedTuple):
    events: list[RawEvent]
    malformed_lines: int


@collector_paused()
def read_events(paths: Iterable[str | Path]) -> IngestResult:
    """Read JSONL logs; malformed lines are skipped and counted, never fatal.

    A line that is not valid UTF-8 counts as malformed (see parse_event_line).
    Equal field strings are one object among the events of one call.
    """
    events: list[RawEvent] = []
    malformed = 0
    shared: dict = {}
    for path in paths:
        # A line ends at "\n" alone: JSON allows a raw "\r" between tokens.
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
            for line in handle:
                if line.isspace():
                    continue
                try:
                    events.append(parse_event_line(line, shared))
                except EventParseError:
                    malformed += 1
    return IngestResult(events=events, malformed_lines=malformed)


_TIME_ORDER = attrgetter("instant", "event_id")
# The dedup key of each class: the class, then the fields it adds to RawEvent,
# event_id not among them.
_CONTENT = {cls: attrgetter("__class__", *cls.__slots__) for cls in _CLASS_BY_TYPE.values()}


def deduplicate(
    events: Iterable[RawEvent], window_seconds: float = DEDUP_WINDOW_SECONDS
) -> list[RawEvent]:
    """Drop repeats of the same (user, kind, content) within the retry window.

    Events are grouped per user in user_id order, and each group is sorted
    by (instant, event_id); events that tie on both are ordered by kind, then
    by content, so the output does not depend on the input order.  Sorted
    input costs one linear pass.  An event is a duplicate when an already-kept
    event of the same user with the same key (its class and its values of
    every field the class adds to RawEvent) lies at most ``window_seconds``
    before it; the earliest of each burst survives.  The output keeps that
    order.
    """
    per_user: dict[str, list[RawEvent]] = {}
    for event in events:
        per_user.setdefault(event.user_id, []).append(event)
    kept: list[RawEvent] = []
    for user_id in sorted(per_user):
        ordered = sorted(per_user[user_id], key=_TIME_ORDER)
        start = len(kept)
        if _keep_first(ordered, window_seconds, kept):
            # Some events tie on (instant, event_id): redo in the full order.
            del kept[start:]
            _keep_first(_order_ties(ordered), window_seconds, kept)
    return kept


def _keep_first(ordered: list[RawEvent], window_seconds: float, kept: list[RawEvent]) -> bool:
    """Append to ``kept`` each of one user's time-ordered events that repeats
    no kept event within the window; whether two of them tie on (instant,
    event_id)."""
    last_kept_at: dict[tuple, float] = {}
    tied = False
    at = prior = None
    for event in ordered:
        instant = event.instant
        if instant == at and event.event_id == prior.event_id:
            tied = True
        at = instant
        prior = event
        key = _CONTENT[type(event)](event)
        previous = last_kept_at.get(key)
        if previous is not None and instant - previous <= window_seconds:
            continue
        last_kept_at[key] = instant
        kept.append(event)
    return tied


def _order_ties(ordered: list[RawEvent]) -> list[RawEvent]:
    """``ordered`` with each run of events that tie on (instant, event_id)
    sorted by repr: by class name, then by field values."""
    out: list[RawEvent] = []
    for _, run in groupby(ordered, _TIME_ORDER):
        run = list(run)
        if len(run) > 1:
            run.sort(key=repr)
        out += run
    return out


class UserTimeline:
    """All of one user's events, time-ordered, plus their active calendar days."""

    __slots__ = ("user_id", "events", "active_days", "first_day")

    user_id: str
    events: list[RawEvent]
    active_days: set[date]
    first_day: date

    def __init__(self, user_id, events):
        if not events:
            raise ValueError("a timeline requires at least one event")
        self.user_id = user_id
        self.events = events
        self.active_days = {e.day for e in events}
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
