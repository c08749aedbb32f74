import functools
import gc
import inspect
import json
import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasklens.events import (
    MAX_JSON_DEPTH,
    ActionEvent,
    BadFieldValue,
    BadTimestamp,
    CompletionEvent,
    ContentEvent,
    EventParseError,
    FeedbackEvent,
    MalformedJson,
    MissingField,
    RawEvent,
    SuggestionEvent,
    UnknownKind,
    UserAction,
    UserTimeline,
    _event_of_match,
    _EVENT_LINE,
    _parse_json_line,
    build_timelines,
    collector_paused,
    deduplicate,
    parse_event_line,
    read_events,
)
from tasklens.synth import edit_analysis_lines, mixed_lines, write_log
from small_log import SMALL_MIX


@functools.cache
def added_fields(cls):
    """The parameters of ``cls.__init__`` after RawEvent's: the fields the kind adds."""
    params = tuple(inspect.signature(cls).parameters)
    base = tuple(inspect.signature(RawEvent).parameters)
    assert params[:len(base)] == base
    return params[len(base):]


def completion_line(event_id="e1", user_id="u1", ts="2023-06-01T09:00:00+02:00", **extra):
    obj = {
        "event_id": event_id,
        "user_id": user_id,
        "ts": ts,
        "type": "completion",
        "suggestion_id": "s1",
        "prompt": "- name: install nginx",
        "context": "---\n- hosts: all\n",
    }
    obj.update(extra)
    return json.dumps(obj)


def utc_instant(*fields):
    return datetime(*fields, tzinfo=timezone.utc).timestamp()


# (ts, UTC instant, local day); None for a stamp that must be rejected.
RFC3339_CASES = [
    ("2023-06-01T08:00:00+00:00", utc_instant(2023, 6, 1, 8), date(2023, 6, 1)),
    ("2023-06-01t08:00:00z", utc_instant(2023, 6, 1, 8), date(2023, 6, 1)),
    ("2023-06-01T08:00:00-00:00", utc_instant(2023, 6, 1, 8), date(2023, 6, 1)),
    ("2023-06-01T08:00:00.1+00:00", utc_instant(2023, 6, 1, 8, 0, 0, 100_000), date(2023, 6, 1)),
    ("2023-06-01T08:00:00.123456789-05:30", utc_instant(2023, 6, 1, 13, 30, 0, 123_456),
     date(2023, 6, 1)),
    ("2023-06-01T23:30:00-02:00", utc_instant(2023, 6, 2, 1, 30), date(2023, 6, 1)),
    ("2023-06-01T00:30:00+23:59", utc_instant(2023, 5, 31, 0, 31), date(2023, 6, 1)),
    ("2024-02-29T23:59:59Z", utc_instant(2024, 2, 29, 23, 59, 59), date(2024, 2, 29)),
    ("2023-W22-4T08:00:00+00:00", None, None),
    ("20230601T080000+0000", None, None),
    ("2023-06-01 08:00+01", None, None),
    ("2023-06-01 08:00:00+00:00", None, None),
    ("2023-06-01T09:00:00", None, None),
    ("2023-06-01", None, None),
    ("2023-06-01T08:00+00:00", None, None),
    ("2023-06-01T08:00:00.+00:00", None, None),
    ("2023-06-01T08:00:00,5+00:00", None, None),
    ("2023-06-01T08:00:00+0000", None, None),
    ("2023-06-01T08:00:00+01", None, None),
    ("2023-06-01T08:00:00+00:00:00", None, None),
    ("2023-06-01T08:00:00+24:00", None, None),
    ("2023-06-01T24:00:00Z", None, None),
    ("2023-06-01T08:60:00Z", None, None),
    ("2023-06-01T08:00:60Z", None, None),
    ("2023-02-29T08:00:00Z", None, None),
    ("2023-13-01T08:00:00Z", None, None),
    ("0000-01-01T00:00:00Z", None, None),
    ("\uff12023-06-01T08:00:00Z", None, None),
    ("2023-06-01T08:00:00Z\n", None, None),
    (" 2023-06-01T08:00:00Z", None, None),
]


class TestParseEventLine:
    def test_valid_completion_keeps_offset(self):
        event = parse_event_line(completion_line())
        assert type(event) is CompletionEvent
        assert event.day == date(2023, 6, 1)
        assert event.instant == utc_instant(2023, 6, 1, 7)
        assert event.suggestion_id == "s1"

    def test_unknown_extra_fields_ignored(self):
        event = parse_event_line(completion_line(extra_field="whatever"))
        assert event.event_id == "e1"

    def test_missing_user_id(self):
        obj = json.loads(completion_line())
        del obj["user_id"]
        with pytest.raises(MissingField) as err:
            parse_event_line(json.dumps(obj))
        assert err.value.name == "user_id"

    def test_stars_out_of_range(self):
        line = json.dumps(
            {"event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
             "type": "feedback", "stars": 7, "comment": "hi"}
        )
        with pytest.raises(BadFieldValue):
            parse_event_line(line)

    @pytest.mark.parametrize("stars", [1, 2, 3, 4, 5])
    def test_stars_in_range(self, stars):
        line = json.dumps(
            {"event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
             "type": "feedback", "stars": stars, "comment": "hi", "label": "accuracy"}
        )
        event = parse_event_line(line)
        assert event.stars == stars
        assert event.sentiment_label == "accuracy"

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_event_line("{oops")
        with pytest.raises(MalformedJson):
            parse_event_line('"just a string"')

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            parse_event_line(completion_line(type="mystery"))

    def test_naive_timestamp_rejected(self):
        with pytest.raises(BadTimestamp):
            parse_event_line(completion_line(ts="2023-06-01T09:00:00"))

    def test_zulu_suffix_accepted(self):
        event = parse_event_line(completion_line(ts="2023-06-01T09:00:00Z"))
        assert event.instant == utc_instant(2023, 6, 1, 9)

    def test_garbage_timestamp(self):
        with pytest.raises(BadTimestamp):
            parse_event_line(completion_line(ts="yesterday"))

    @pytest.mark.parametrize("ts,instant,day", RFC3339_CASES, ids=[c[0] for c in RFC3339_CASES])
    def test_rfc3339_timestamps(self, ts, instant, day):
        if instant is None:
            with pytest.raises(BadTimestamp):
                parse_event_line(completion_line(ts=ts))
        else:
            event = parse_event_line(completion_line(ts=ts))
            assert (event.instant, event.day) == (instant, day)

    def test_instant_and_day_match_datetime(self):
        rng = random.Random(7)
        for _ in range(500):
            zone = timezone(timedelta(minutes=rng.randrange(-23 * 60 - 59, 24 * 60)))
            at = datetime(
                rng.randrange(1, 10000), rng.randrange(1, 13), rng.randrange(1, 29),
                rng.randrange(24), rng.randrange(60), rng.randrange(60),
                rng.choice((0, rng.randrange(1_000_000))), tzinfo=zone,
            )
            event = parse_event_line(completion_line(ts=at.isoformat()))
            assert (event.instant, event.day) == (at.timestamp(), at.date())

    def test_same_day_shares_one_date_object(self):
        first = parse_event_line(completion_line(ts="2023-06-01T00:00:01+02:00"))
        second = parse_event_line(completion_line(ts="2023-06-01T23:59:59-07:00"))
        assert first.day is second.day

    @pytest.mark.parametrize(
        "text",
        ["bad\\udc80", "\\ud83d", "\\ud83d\\u0041", "\\ude00\\ud83d", "\\uDBFF", "\udc80"],
        ids=["low", "high", "high-then-bmp", "reversed-pair", "upper-case-high", "raw-low"],
    )
    def test_unpaired_surrogate_is_malformed(self, text):
        line = completion_line().replace('"s1"', f'"s1", "extra": ["{text}"]')
        with pytest.raises(MalformedJson):
            parse_event_line(line)
        line = completion_line().replace('"s1"', f'"{text}"')
        with pytest.raises(MalformedJson):
            parse_event_line(line)
        line = completion_line().replace('"s1"', f'"s1", "extra": {{"{text}": 1}}')
        with pytest.raises(MalformedJson):
            parse_event_line(line)

    def test_surrogate_pair_escape_is_valid(self):
        line = completion_line().replace('"s1"', '"\\ud83d\\ude00\\u00e9"')
        assert parse_event_line(line).suggestion_id == "\U0001f600\u00e9"
        line = completion_line().replace('"s1"', '"\\\\udc80"')
        assert parse_event_line(line).suggestion_id == "\\udc80"

    def test_suggestion_line_count_must_match_text(self):
        obj = {
            "event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
            "type": "suggestion", "suggestion_id": "s",
            "text": "debug:\n  msg: hi", "lines": 3, "tokens": 5,
        }
        with pytest.raises(BadFieldValue):
            parse_event_line(json.dumps(obj))
        obj["lines"] = 2
        assert parse_event_line(json.dumps(obj)).line_count == 2

    def test_action_values(self):
        for action in ("accepted", "rejected", "ignored"):
            line = json.dumps(
                {"event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
                 "type": "action", "suggestion_id": "s", "action": action}
            )
            assert parse_event_line(line).action is UserAction(action)
        line = json.dumps(
            {"event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
             "type": "action", "suggestion_id": "s", "action": "maybe"}
        )
        with pytest.raises(BadFieldValue):
            parse_event_line(line)

    def test_content_document_may_be_empty_but_required(self):
        base = {"event_id": "e", "user_id": "u", "ts": "2023-06-01T00:00:00+00:00",
                "type": "content"}
        assert parse_event_line(json.dumps({**base, "document": ""})).document_text == ""
        with pytest.raises(MissingField):
            parse_event_line(json.dumps(base))
        with pytest.raises(BadFieldValue):
            parse_event_line(json.dumps({**base, "document": "", "suggestion_id": ""}))

    def test_empty_ids_rejected(self):
        with pytest.raises(BadFieldValue):
            parse_event_line(completion_line(event_id=""))

    @pytest.mark.parametrize(
        "line",
        [
            completion_line(),
            completion_line() + "\n",
            completion_line() + "\r\n",
            " \t" + completion_line() + " \n",
            "\n" + completion_line(),
            "\ufeff" + completion_line(),
            completion_line() + "\u00a0",
            "\u00a0" + completion_line(),
            completion_line() + "x",
            completion_line() + "\nx",
            completion_line() + "\n\n",
            completion_line() + completion_line(),
            completion_line()[:-1],
            "",
            "   ",
            "[1, 2]",
            "nan",
        ],
        ids=[
            "plain", "lf", "crlf", "ascii-space-around", "leading-lf", "bom",
            "trailing-nbsp", "leading-nbsp", "trailing-garbage", "lf-then-garbage", "two-lfs",
            "two-objects",
            "truncated", "empty", "blank", "array", "bare-nan",
        ],
    )
    def test_json_acceptance_matches_json_loads(self, line):
        try:
            expected_ok = isinstance(json.loads(line), dict)
        except json.JSONDecodeError:
            expected_ok = False
        try:
            parse_event_line(line)
            ok = True
        except MalformedJson:
            ok = False
        assert ok == expected_ok


class TestLocalDate:
    def test_negative_offset_keeps_wall_clock_date(self):
        event = parse_event_line(completion_line(ts="2023-06-01T23:30:00-02:00"))
        assert event.day == date(2023, 6, 1)
        assert event.instant == utc_instant(2023, 6, 2, 1, 30)

    def test_positive_offset_keeps_wall_clock_date(self):
        event = parse_event_line(completion_line(ts="2023-06-01T23:30:00+03:00"))
        assert event.day == date(2023, 6, 1)
        assert event.instant == utc_instant(2023, 6, 1, 20, 30)

    def test_year_boundary(self):
        event = parse_event_line(completion_line(ts="2023-12-31T23:59:59+00:00"))
        assert event.day == date(2023, 12, 31)
        assert event.instant == utc_instant(2023, 12, 31, 23, 59, 59)


def make_events(rows):
    """rows: (event_id, user_id, ts, payload_text) -> content events."""
    events = []
    for event_id, user_id, ts, text in rows:
        events.append(
            parse_event_line(
                json.dumps(
                    {"event_id": event_id, "user_id": user_id, "ts": ts,
                     "type": "content", "document": text}
                )
            )
        )
    return events


class TestDeduplicate:
    def test_exact_duplicate_one_second_apart(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "doc"),
                ("e2", "u1", "2023-06-01T10:00:01+00:00", "doc"),
            ]
        )
        kept = deduplicate(events)
        assert [e.event_id for e in kept] == ["e1"]

    def test_sixty_seconds_apart_both_kept(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "doc"),
                ("e2", "u1", "2023-06-01T10:01:00+00:00", "doc"),
            ]
        )
        assert len(deduplicate(events)) == 2

    def test_window_boundary_is_inclusive(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "doc"),
                ("e2", "u1", "2023-06-01T10:00:10+00:00", "doc"),
                ("e3", "u1", "2023-06-01T10:00:11+00:00", "doc"),
            ]
        )
        kept = deduplicate(events)
        # e2 within 10s of kept e1 -> dropped; e3 is 11s after e1 -> kept
        assert [e.event_id for e in kept] == ["e1", "e3"]

    def test_same_payload_different_users_kept(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "doc"),
                ("e2", "u2", "2023-06-01T10:00:01+00:00", "doc"),
            ]
        )
        assert len(deduplicate(events)) == 2

    def test_output_sorted_by_user_time_event(self):
        events = make_events(
            [
                ("e2", "u2", "2023-06-01T10:00:05+00:00", "a"),
                ("e1", "u1", "2023-06-01T10:00:09+00:00", "b"),
                ("e0", "u1", "2023-06-01T10:00:09+00:00", "c"),
            ]
        )
        kept = deduplicate(events)
        assert [e.event_id for e in kept] == ["e0", "e1", "e2"]

    def test_exact_ties_ordered_by_kind_then_content(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "b"),
                ("e0", "u2", "2023-06-01T10:00:00+00:00", "x"),
                ("e1", "u1", "2023-06-01T10:00:00+00:00", "a"),
            ]
        )
        action = parse_event_line(json.dumps({
            "event_id": "e1", "user_id": "u1", "ts": "2023-06-01T10:00:00+00:00",
            "type": "action", "suggestion_id": "s1", "action": "rejected",
        }))
        for tied in (events, events[::-1]):
            assert [e.document_text for e in deduplicate(tied)] == ["a", "b", "x"]
        for tied in ([*events, action], [action, *events[::-1]]):
            # The action's kind sorts before the content's.
            assert deduplicate(tied) == [action, events[2], events[0], events[1]]

    def test_equal_content_keys_of_two_kinds_both_kept(self):
        # Same user, time, suggestion id and text "accepted"; only the kind differs.
        base = {"user_id": "u1", "ts": "2023-06-01T10:00:00+00:00", "suggestion_id": "s1"}
        action = parse_event_line(
            json.dumps({**base, "event_id": "e1", "type": "action", "action": "accepted"})
        )
        content = parse_event_line(
            json.dumps({**base, "event_id": "e2", "type": "content", "document": "accepted"})
        )
        assert deduplicate([action, content]) == [action, content]

    def _random_soup(self, seed):
        """400 events over 3 minutes, each written in one of several offsets."""
        rng = random.Random(seed)
        base = datetime(2023, 6, 1, 10, tzinfo=timezone.utc)
        offsets = [timezone(timedelta(minutes=m)) for m in (0, 120, -210, 345, -720)]
        rows = []
        for i in range(400):
            at = base + timedelta(seconds=rng.randrange(180), microseconds=rng.choice((0, 500_000)))
            rows.append(
                (
                    f"e{i}",
                    f"u{rng.randrange(3)}",
                    at.astimezone(rng.choice(offsets)).isoformat(),
                    f"doc{rng.randrange(4)}",
                )
            )
        return make_events(rows)

    def _random_mixed_soup(self, seed):
        """400 events of all five kinds over 3 minutes; every field a kind adds
        is drawn from two or three values, so repeats are common."""
        rng = random.Random(seed)
        base = datetime(2023, 6, 1, 10, tzinfo=timezone.utc)
        offsets = [timezone(timedelta(minutes=m)) for m in (0, 120, -210, 345, -720)]
        pick = rng.choice
        kinds = [
            lambda: {"type": "completion", "suggestion_id": pick("st"),
                     "prompt": pick("pq"), "context": pick("cd")},
            lambda: {"type": "suggestion", "suggestion_id": pick("st"),
                     **pick([{"text": "a", "lines": 1}, {"text": "a\nb", "lines": 2}]),
                     "tokens": pick((1, 2))},
            lambda: {"type": "action", "suggestion_id": pick("st"),
                     "action": pick(("accepted", "rejected", "ignored"))},
            lambda: {"type": "content", "document": pick(("s", "accepted", "d")),
                     **pick([{}, {"suggestion_id": "s"}, {"suggestion_id": "t"}])},
            lambda: {"type": "feedback", "stars": pick((1, 2)), "comment": pick("st"),
                     **pick([{}, {"label": "s"}])},
        ]
        events = []
        for i in range(400):
            at = base + timedelta(seconds=rng.randrange(180), microseconds=pick((0, 500_000)))
            obj = {"event_id": f"e{i}", "user_id": f"u{rng.randrange(3)}",
                   "ts": at.astimezone(pick(offsets)).isoformat(), **pick(kinds)()}
            events.append(parse_event_line(json.dumps(obj)))
        return events

    @staticmethod
    def _content(event):
        """The values of the fields the event's class adds to RawEvent."""
        return tuple(getattr(event, name) for name in added_fields(type(event)))

    @classmethod
    def _oracle(cls, events, window_seconds=10.0):
        """deduplicate's docstring, brute force: visit in (user, instant,
        event_id, class name, field values) order and keep an event unless a
        kept event with the same user, class and added field values lies at
        most the window before it."""
        kept = []
        for event in sorted(events, key=lambda e: (e.user_id, e.instant, e.event_id, repr(e))):
            if not any(
                k.user_id == event.user_id
                and type(k) is type(event)
                and cls._content(k) == cls._content(event)
                and 0 <= event.instant - k.instant <= window_seconds
                for k in kept
            ):
                kept.append(event)
        return kept

    def _random_tied_soup(self, seed):
        """The mixed soup with three event ids, so that many events tie on
        (user, instant, event_id)."""
        events = self._random_mixed_soup(seed)
        for i, event in enumerate(events):
            event.event_id = f"e{i % 3}"
        return events

    @pytest.mark.parametrize("window", [0.0, 0.5, 10.0, 60.0])
    def test_matches_brute_force_oracle(self, window):
        for seed in range(5):
            for events in (self._random_soup(seed), self._random_mixed_soup(seed),
                           self._random_tied_soup(seed)):
                assert deduplicate(events, window) == self._oracle(events, window)

    def test_output_does_not_depend_on_input_order(self):
        for seed in range(5):
            events = self._random_tied_soup(seed)
            shuffled = list(events)
            random.Random(seed).shuffle(shuffled)
            assert deduplicate(shuffled) == deduplicate(events)

    def test_no_two_kinds_have_equal_content(self):
        """Why deduplicate may key on the content alone: across all five
        kinds, drawn from overlapping values, content of two kinds never
        compares equal."""
        events = [e for seed in range(5) for e in self._random_mixed_soup(seed)]
        by_kind = {}
        for event in events:
            by_kind.setdefault(type(event), set()).add(self._content(event))
        assert len(by_kind) == 5
        kinds = list(by_kind.values())
        for i, contents in enumerate(kinds):
            for other in kinds[i + 1:]:
                assert not contents & other

    def test_timelines_keep_dedup_order(self):
        for seed in range(5):
            deduped = deduplicate(self._random_soup(seed))
            flattened = [e for t in build_timelines(deduped) for e in t.events]
            assert flattened == deduped

    def test_idempotent(self):
        for seed in range(5):
            events = self._random_soup(seed)
            once = deduplicate(events)
            assert deduplicate(once) == once

    def test_never_removes_first_occurrence(self):
        for seed in range(5):
            events = self._random_soup(seed)
            firsts = {}
            for event in sorted(events, key=lambda e: (e.user_id, e.instant, e.event_id)):
                key = (event.user_id, type(event), self._content(event))
                firsts.setdefault(key, event.event_id)
            kept_ids = {e.event_id for e in deduplicate(events)}
            assert set(firsts.values()) <= kept_ids


class TestTimelines:
    def test_partition_of_events(self):
        events = make_events(
            [
                ("e1", "u2", "2023-06-01T10:00:00+00:00", "a"),
                ("e2", "u1", "2023-06-01T09:00:00+00:00", "b"),
                ("e3", "u1", "2023-06-01T11:00:00+00:00", "c"),
                ("e4", "u3", "2023-06-01T08:00:00+00:00", "d"),
            ]
        )
        deduped = deduplicate(events)
        timelines = build_timelines(deduped)
        assert [t.user_id for t in timelines] == ["u1", "u2", "u3"]
        assert sum(len(t.events) for t in timelines) == len(deduped)
        for timeline in timelines:
            stamps = [e.instant for e in timeline.events]
            assert stamps == sorted(stamps)

    def test_single_event_timeline(self):
        events = make_events([("e1", "u1", "2023-06-01T10:00:00+00:00", "a")])
        (timeline,) = build_timelines(events)
        assert timeline.active_days == {date(2023, 6, 1)}
        assert timeline.first_day == date(2023, 6, 1)

    def test_midnight_boundary_gives_two_active_days(self):
        events = make_events(
            [
                ("e1", "u1", "2023-06-01T23:59:00+00:00", "a"),
                ("e2", "u1", "2023-06-02T00:01:00+00:00", "b"),
            ]
        )
        (timeline,) = build_timelines(events)
        assert timeline.active_days == {date(2023, 6, 1), date(2023, 6, 2)}

    def test_events_out_of_user_order_rejected(self):
        # u1's events split across two runs, then runs out of user_id order
        split = [("e1", "u1", "2023-06-01T09:00:00+00:00", "a"),
                 ("e2", "u2", "2023-06-01T10:00:00+00:00", "b"),
                 ("e3", "u1", "2023-06-01T11:00:00+00:00", "c")]
        for specs in (split, split[1:]):
            with pytest.raises(ValueError, match="user_id order"):
                build_timelines(make_events(specs))

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError):
            UserTimeline(user_id="u", events=[])


def test_read_events_skips_and_counts_malformed(tmp_path):
    lines = [
        completion_line(),
        "{broken",
        "",
        completion_line(event_id="e2"),
        '{"event_id":"x","user_id":"u","ts":"2023-06-01T00:00:00+00:00","type":"nope"}',
    ]
    result = read_events([write_log(tmp_path / "log.jsonl", lines)])
    assert len(result.events) == 2
    assert result.malformed_lines == 2


def test_read_events_shares_equal_strings_within_one_call(tmp_path):
    """Equal user ids, suggestion ids, texts, documents, prompts and contexts
    are one object among one call's events; event ids and other calls' events
    keep their own."""
    text = "- debug:\n    msg: shared"
    rows = []
    for i in range(6):
        sid = f"sid-{i % 2}"
        rows += [
            {"type": "completion", "suggestion_id": sid, "prompt": "- name: shared",
             "context": "shared context"},
            {"type": "suggestion", "suggestion_id": sid, "text": text, "lines": 2, "tokens": 4},
            {"type": "action", "suggestion_id": sid, "action": "accepted"},
            {"type": "content", "document": text, "suggestion_id": sid},
        ]
    # Every event id is "event-id": equal, yet never shared.
    lines = [json.dumps({"event_id": "event-id", "user_id": f"user-{i % 3}",
                         "ts": "2023-06-01T09:00:00Z", **row}) for i, row in enumerate(rows)]
    log = write_log(tmp_path / "log.jsonl", lines)
    events = read_events([log]).events
    assert len(events) == len(lines)

    def objects(values):
        """value -> the distinct objects that hold it."""
        found = {}
        for value in values:
            found.setdefault(value, set()).add(id(value))
        return found

    fields_of = [
        [e.user_id for e in events],
        [e.suggestion_id for e in events],
        [e.prompt for e in events if type(e) is CompletionEvent],
        [e.context for e in events if type(e) is CompletionEvent],
        [e.suggestion_text for e in events if type(e) is SuggestionEvent]
        + [e.document_text for e in events if type(e) is ContentEvent],
    ]
    for values in fields_of:
        assert all(len(ids) == 1 for ids in objects(values).values())
    assert len({id(e.event_id) for e in events}) == len(events)

    again = read_events([log]).events
    for first, second in zip(events, again):
        assert first == second
        assert first.user_id is not second.user_id
        assert first.suggestion_id is not second.suggestion_id


# One valid line of each kind; every field a kind reads, optional ones included.
VALID_EVENTS = [
    {"type": "completion", "suggestion_id": "s1", "prompt": "p", "context": ""},
    {"type": "suggestion", "suggestion_id": "s1", "text": "- debug:\n    msg: hi",
     "lines": 2, "tokens": 4},
    {"type": "action", "suggestion_id": "s1", "action": "accepted"},
    {"type": "content", "document": "- debug: {}\n", "suggestion_id": "s1"},
    {"type": "feedback", "stars": 4, "comment": "ok", "label": "fast"},
]


@pytest.mark.parametrize(
    "fields_of_kind,cls",
    zip(VALID_EVENTS, [CompletionEvent, SuggestionEvent, ActionEvent, ContentEvent, FeedbackEvent]),
    ids=[obj["type"] for obj in VALID_EVENTS],
)
def test_each_type_is_one_record_of_its_class(fields_of_kind, cls):
    line = {"event_id": "e1", "user_id": "u1", "ts": "2023-06-01T09:00:00Z", **fields_of_kind}
    event = parse_event_line(json.dumps(line))
    assert type(event) is cls
    assert (event.event_id, event.user_id, event.day) == ("e1", "u1", date(2023, 6, 1))


@pytest.mark.parametrize(
    "kind,field",
    [("suggestion", "lines"), ("suggestion", "tokens"), ("feedback", "stars"),
     ("completion", "type"), ("completion", "ts")],
)
def test_missing_field_is_named(kind, field):
    (fields_of_kind,) = [obj for obj in VALID_EVENTS if obj["type"] == kind]
    line = {"event_id": "e1", "user_id": "u1", "ts": "2023-06-01T09:00:00Z", **fields_of_kind}
    del line[field]
    with pytest.raises(MissingField) as err:
        parse_event_line(json.dumps(line))
    assert err.value.name == field


@pytest.mark.parametrize(
    "fields_of_kind,cls",
    zip(VALID_EVENTS, [CompletionEvent, SuggestionEvent, ActionEvent, ContentEvent, FeedbackEvent]),
    ids=[obj["type"] for obj in VALID_EVENTS],
)
def test_each_class_slots_only_its_added_fields(fields_of_kind, cls):
    """A subclass that repeated the base's slots would make every record
    larger, and the dedup key, which reads the subclass's slots, would hold
    event_id, so no two events could ever be duplicates."""
    assert RawEvent.__slots__ == tuple(inspect.signature(RawEvent).parameters)
    assert not set(cls.__slots__) & set(RawEvent.__slots__)
    assert cls.__slots__ == added_fields(cls)
    line = {"event_id": "e1", "user_id": "u1", "ts": "2023-06-01T09:00:00Z", **fields_of_kind}
    event = parse_event_line(json.dumps(line))
    assert not hasattr(event, "__dict__")
    for slot in RawEvent.__slots__ + cls.__slots__:  # __init__ sets every slot
        getattr(event, slot)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


@st.composite
def lines_with_arbitrary_fields(draw):
    obj = {"event_id": "e1", "user_id": "u1", "ts": "2023-06-01T09:00:00Z",
           **draw(st.sampled_from(VALID_EVENTS))}
    for name in draw(st.sets(st.sampled_from(sorted(obj)), min_size=1)):
        obj[name] = draw(JSON_VALUES)
    return json.dumps(obj)


@settings(max_examples=200, deadline=None)
@given(lines_with_arbitrary_fields())
def test_any_json_value_in_any_field_is_parsed_or_rejected(line):
    try:
        parse_event_line(line)
    except EventParseError:
        pass


def test_deeply_nested_json_is_malformed():
    line = "[" * 100_000 + "]" * 100_000
    with pytest.raises(MalformedJson):
        parse_event_line(line)


def under_frames(frames, fn):
    """fn() called ``frames`` Python frames deeper than the caller."""
    return fn() if frames == 0 else under_frames(frames - 1, fn)


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1, 900, 5000])
def test_nesting_verdict_does_not_depend_on_the_stack(depth):
    # A valid completion line whose ignored extra field nests it ``depth`` levels deep.
    line = completion_line()[:-1] + ', "extra": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"

    def verdict():
        try:
            parse_event_line(line)
        except MalformedJson as exc:
            return str(exc)
        return "valid"

    expected = "valid" if depth <= MAX_JSON_DEPTH else "invalid JSON: nested too deeply"
    assert verdict() == expected
    assert under_frames(500, verdict) == expected


SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])


@st.composite
def oracle_strings(draw, surrogate=None):
    """A string that holds one lone surrogate (about one in six, unless
    ``surrogate`` says) between other characters: st.text() draws no category
    Cs, so no two surrogates of a drawn value meet to form a pair."""
    text = draw(st.text(max_size=3))
    if surrogate is None:
        surrogate = draw(st.integers(0, 5)) == 0
    if surrogate:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(SURROGATES) + text[at:]
    return text


ORACLE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | oracle_strings(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(oracle_strings(), children, max_size=3),
    max_leaves=6,
)


@st.composite
def nested_extra_fields(draw):
    """A drawn value, wrapped in lists and objects so that it sits 1 to 70
    levels below the event object; at most one wrapper's key holds a lone
    surrogate, so that values near the depth cap often hold none."""
    value = draw(ORACLE_VALUES)
    wrappers = draw(st.integers(1, 70) | st.integers(60, 66)) - 1
    marked = draw(st.none() | st.integers(0, wrappers))
    for level in range(wrappers):
        if draw(st.booleans()):
            value = [value]
        else:
            value = {draw(oracle_strings(surrogate=level == marked)): value}
    return value


def oracle_accepts(value, depth) -> bool:
    """Nested at most MAX_JSON_DEPTH levels, with no lone surrogate in any
    string or key; ``depth`` is the level ``value`` sits at."""
    if type(value) is str:
        return not any("\ud800" <= char <= "\udfff" for char in value)
    if type(value) is list:
        return depth <= MAX_JSON_DEPTH and all(oracle_accepts(v, depth + 1) for v in value)
    if type(value) is dict:
        return depth <= MAX_JSON_DEPTH and all(
            oracle_accepts(key, depth + 1) and oracle_accepts(v, depth + 1)
            for key, v in value.items()
        )
    return True


@settings(max_examples=400, deadline=None)
@given(nested_extra_fields(), st.booleans())
def test_json_path_refuses_what_a_recursive_oracle_refuses(extra, ensure_ascii):
    """An extra field may hold any JSON value nested up to the cap, counting
    the event object, and no string or key with a lone surrogate, raw or escaped."""
    obj = {**json.loads(completion_line()), "extra": extra}
    line = json.dumps(obj, ensure_ascii=ensure_ascii) + "\n"
    try:
        parse_event_line(line)
        accepted = True
    except MalformedJson:
        accepted = False
    assert accepted == oracle_accepts(extra, 2)


def test_read_events_counts_invalid_utf8_lines_as_malformed(tmp_path):
    def utf8_line(event_id, prompt):
        obj = json.loads(completion_line(event_id=event_id, prompt=prompt))
        return json.dumps(obj, ensure_ascii=False).encode("utf-8")

    raw = [
        utf8_line("e1", "- name: install nginx"),
        utf8_line("e2", "- name: caf\u00e9"),  # valid UTF-8, not ASCII
        utf8_line("e3", "- name: caf\u00e9").replace(b"\xc3\xa9", b"\xe9"),  # Latin-1
        utf8_line("e4", "- name: x") + b"\xff",
    ]
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"\n".join(raw) + b"\n")
    result = read_events([path])
    assert [e.event_id for e in result.events] == ["e1", "e2"]
    assert result.events[1].prompt == "- name: caf\u00e9"
    assert result.malformed_lines == 2


class TestCollectorPaused:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_integer_past_the_conversion_limit_is_malformed(tmp_path):
    """The decoder raises a plain ValueError for an integer longer than int()
    converts; the line is skipped and counted like any invalid JSON."""
    line = completion_line()[:-1] + ', "extra": ' + "1" * 5000 + "}"
    with pytest.raises(MalformedJson, match="too many digits"):
        parse_event_line(line)
    result = read_events([write_log(tmp_path / "log.jsonl", [completion_line(), line])])
    assert (len(result.events), result.malformed_lines) == (1, 1)


# The differential of the two paths: parse_event_line reads a line in the
# collectors' shape from _EVENT_LINE's match and hands every other line to
# _parse_json_line.  Lines are drawn in that shape, and most get one mutation.
PLAIN_IDS = st.text(alphabet="abz019-_.:/ ", min_size=1, max_size=6)
HOSTILE_IDS = ["", "café", 'a"b', "back\\slash", "tab\t", "\udc80", "\x7f"]
TEXTS = st.text(
    alphabet=st.sampled_from(
        ["a", "z", " ", ":", ",", "-", "\n", '"', "\\", "/", "\t", "é", "\U0001f600", "\x7f",
         " ", "\x0c"]
    ),
    max_size=10,
)
STAMPS = ["2023-06-01T08:00:00+00:00", "2023-06-01T08:00:00.25Z", "2023-06-01T23:30:00-02:00"]
BAD_STAMPS = ["2023-06-01T08:00:00", "2023-02-29T08:00:00Z", "yesterday", ""]
# What may replace a suggestion's ``lines`` count: zero, a leading zero, a
# sign, a fraction, an exponent, or 19 digits.
BAD_COUNTS = ["0", "06", "-1", "6.0", "1e0", "1" * 19]
COUNT_SENTINEL = 987654321987654321
MUTATIONS = [
    "hostile_id", "raw_control_id", "raw_surrogate_id", "escaped_surrogate", "raw_surrogate",
    "bad_ts", "escaped_ts",
    "count_mismatch", "bad_count", "huge_tokens", "bad_action", "swap", "extra", "missing",
    "other_kind", "escaped_slash", "mixed_separators", "ending", "duplicate_key", "unescaped_quote",
]


@st.composite
def event_lines(draw):
    """(line, plain): plain when the line is in the collectors' shape with
    valid values, so that the pattern path must take it."""
    mutation = draw(st.sampled_from([None, None, None, *MUTATIONS]))
    ids = [draw(PLAIN_IDS) for _ in range(3)]
    hostile = {"hostile_id": st.sampled_from(HOSTILE_IDS), "raw_control_id": st.just("tab\t"),
               "raw_surrogate_id": st.just("\udc80")}.get(mutation)
    if hostile is not None:
        ids[draw(st.integers(0, 2))] = draw(hostile)
    kinds = ["completion", "suggestion", "action", "content"]
    kind = draw(st.sampled_from(
        {"escaped_surrogate": ["completion", "suggestion", "content"],
         "raw_surrogate": ["completion", "suggestion", "content"],
         "count_mismatch": ["suggestion"], "bad_count": ["suggestion"],
         "huge_tokens": ["suggestion"], "bad_action": ["action"],
         "other_kind": ["feedback", "mystery"]}.get(mutation, kinds)
    ))
    stamps = BAD_STAMPS if mutation == "bad_ts" else STAMPS
    obj = {"event_id": ids[0], "user_id": ids[1], "ts": draw(st.sampled_from(stamps)), "type": kind}
    if kind == "completion":
        obj.update(suggestion_id=ids[2], prompt=draw(TEXTS), context=draw(TEXTS))
    elif kind == "suggestion":
        tokens = draw(st.integers(10**18, 10**20) if mutation == "huge_tokens"
                      else st.integers(1, 99))
        obj.update(suggestion_id=ids[2], text=draw(TEXTS), lines=COUNT_SENTINEL, tokens=tokens)
    elif kind == "action":
        action = draw(st.sampled_from(["maybe", "Accepted", ""] if mutation == "bad_action"
                                      else ["accepted", "rejected", "ignored"]))
        obj.update(suggestion_id=ids[2], action=action)
    elif kind == "content":
        if draw(st.booleans()):
            obj["suggestion_id"] = ids[2]
        obj["document"] = draw(TEXTS)
    else:
        obj.update(stars=3, comment=draw(TEXTS))
    texts = [name for name in ("prompt", "context", "text", "document") if name in obj]
    if mutation in ("escaped_surrogate", "raw_surrogate"):
        name = draw(st.sampled_from(texts))
        at = draw(st.integers(0, len(obj[name])))
        obj[name] = obj[name][:at] + draw(st.sampled_from(["\ud800", "\udfff"])) + obj[name][at:]
    keys = list(obj)
    if mutation == "swap":
        i = draw(st.integers(0, len(keys) - 2))
        keys[i], keys[i + 1] = keys[i + 1], keys[i]
    elif mutation == "extra":  # often last, where the last text's span runs on into it
        at = len(keys) if draw(st.booleans()) else draw(st.integers(0, len(keys)))
        keys.insert(at, "extra")
        obj["extra"] = draw(st.sampled_from(["x", 1, None, [1]]))
    elif mutation == "missing":
        keys.remove(draw(st.sampled_from(keys)))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    ensure_ascii = {"escaped_surrogate": True, "raw_surrogate": False,
                    "raw_surrogate_id": False}.get(mutation, draw(st.booleans()))
    line = json.dumps({key: obj[key] for key in keys}, separators=separators,
                      ensure_ascii=ensure_ascii)
    if "lines" in obj:
        count = len(obj["text"].splitlines())
        if mutation == "count_mismatch":
            count += 1
        lines = draw(st.sampled_from(BAD_COUNTS)) if mutation == "bad_count" else str(count)
        line = line.replace(str(COUNT_SENTINEL), lines)
    if mutation == "raw_control_id":
        line = line.replace("\\t", "\t")
    elif mutation == "escaped_ts":
        line = line.replace('"2023-', '"\\u0032023-', 1)
    elif mutation == "escaped_slash":
        line = line.replace("/", "\\/")
    elif mutation == "mixed_separators":
        line = line.replace(", ", ",", 1) if separators[0] == ", " else line.replace(",", ", ", 1)
    elif mutation == "duplicate_key":  # the decoder keeps the last value
        line = line[:-1] + separators[0] + json.dumps(keys[-1]) + separators[1] + '"again"}'
    elif mutation == "unescaped_quote":
        line = line.replace('\\"', '"', 1)
    ending = "\n"
    if mutation == "ending":
        ending = draw(st.sampled_from(["", "\r\n", " \n", "x", "\n\n", "}", "\n}"]))
    plain = mutation is None and obj.get("text") != ""  # "" has no lines; ``lines`` must be 1+
    return line + ending, plain


def outcome(parse, line, shared):
    try:
        return parse(line, shared)
    except EventParseError as exc:
        return type(exc), str(exc)


# The fields parse_event_line passes through ``shared``.
SHARED_FIELDS = {
    "user_id", "suggestion_id", "prompt", "context", "suggestion_text", "document_text",
}


@settings(max_examples=600, deadline=None)
@given(event_lines())
def test_pattern_path_equals_the_json_path(drawn):
    """Equal class and field values, the same objects through ``shared`` and
    nothing more put in it, or the same error; a plain line takes the pattern."""
    line, plain = drawn
    shared = {}
    expected = outcome(_parse_json_line, line, shared)
    entries = dict(shared)
    event = outcome(parse_event_line, line, shared)
    assert shared == entries and all(shared[key] is value for key, value in entries.items())
    if isinstance(expected, tuple):
        assert event == expected
        assert not plain
        return
    assert type(event) is type(expected)
    for slot in RawEvent.__slots__ + type(event).__slots__:
        value, wanted = getattr(event, slot), getattr(expected, slot)
        assert type(value) is type(wanted) and value == wanted, slot
        if slot in SHARED_FIELDS:
            assert value is wanted, slot
    if plain:
        match = _EVENT_LINE.match(line)
        assert match is not None and _event_of_match(match, {}) is not None


@pytest.mark.parametrize(
    "lines",
    [edit_analysis_lines(SMALL_MIX, n_users=5), mixed_lines(target_events=2_000, n_users=20)],
    ids=["criterion-1", "criterion-7"],
)
def test_every_valid_collector_line_takes_the_pattern_path(lines):
    """Every valid completion, suggestion, action and content line the
    generators write is read from _EVENT_LINE's match, not by the decoder: a
    change to either that left them to the JSON path would pass the
    differential and only show as lost speed."""
    kinds = set()
    for line in lines:
        line += "\n"
        try:
            event = _parse_json_line(line)
        except EventParseError:
            continue
        if type(event) is FeedbackEvent:
            continue
        match = _EVENT_LINE.match(line)
        assert match is not None and _event_of_match(match, {}) is not None, line
        kinds.add(type(event))
    assert kinds == {CompletionEvent, SuggestionEvent, ActionEvent, ContentEvent}
