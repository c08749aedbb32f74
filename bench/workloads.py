"""Benchmark workloads, generated from a seed.

``table62k`` and ``mixed100k`` are the acceptance suite's criterion-1 and
criterion-7 logs.  Their generators are copied here from ``tasklens.synth``
(byte-identical output, checked by ``bench/tests``) so that the inputs stay
fixed while the package changes.  The seed deals the lines to four collector
files, one user per collector, and concatenates them: the arrival order varies
per seed, each user's own order is kept, and the report does not change.

``playbooks`` is the distinct-document workload of ``playbooks.py``.

Every workload returns its log lines and the counts planted in it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import playbooks

BASE_DAY = datetime(2023, 6, 1, 8, 0, 0, tzinfo=timezone.utc)
COLLECTORS = 4

# Criterion-1 planted counts: total, initially accepted, fully accepted, minor
# (module kept), major, deleted after accept, module-changed minor.
TABLE_MIX = {
    "fully": 24811,
    "minor": 5672,
    "minor_module": 306,
    "major": 2713,
    "deleted": 7436,
    "rejected": 62099 - 40938,
}


def _completion(e, u, t, s, prompt_json):
    return (
        f'{{"event_id":"{e}","user_id":"{u}","ts":"{t}","type":"completion",'
        f'"suggestion_id":"{s}","prompt":{prompt_json},"context":""}}'
    )


def _suggestion(e, u, t, s, text_json, lines, tokens):
    return (
        f'{{"event_id":"{e}","user_id":"{u}","ts":"{t}","type":"suggestion",'
        f'"suggestion_id":"{s}","text":{text_json},"lines":{lines},"tokens":{tokens}}}'
    )


def _action(e, u, t, s, action):
    return (
        f'{{"event_id":"{e}","user_id":"{u}","ts":"{t}","type":"action",'
        f'"suggestion_id":"{s}","action":"{action}"}}'
    )


def _content(e, u, t, s, document_json):
    return (
        f'{{"event_id":"{e}","user_id":"{u}","ts":"{t}","type":"content",'
        f'"suggestion_id":"{s}","document":{document_json}}}'
    )


def _feedback(e, u, t, stars, comment_json, label):
    label_part = f',"label":"{label}"' if label is not None else ""
    return (
        f'{{"event_id":"{e}","user_id":"{u}","ts":"{t}","type":"feedback",'
        f'"stars":{stars},"comment":{comment_json}{label_part}}}'
    )


@dataclass(frozen=True)
class _Template:
    name: str
    text: str
    action: str | None
    document: str | None
    emit_completion: bool = True

    def parts(self):
        return (
            json.dumps(f"- name: {self.name}"),
            json.dumps(self.text),
            len(self.text.splitlines()),
            json.dumps(self.document) if self.document is not None else None,
        )


class _LogBuilder:
    """Interleaves per-user event streams with strictly increasing user clocks."""

    def __init__(self, n_users, base, prefix="u"):
        self.lines: list[str] = []
        self.prefix = prefix
        self.eid = 0
        self.sid = 0
        self.users = [f"{prefix}{i:05d}" for i in range(n_users)]
        self.clocks = {u: base for u in self.users}
        self._next_user = 0

    def stamp(self, user):
        ts = self.clocks[user]
        self.clocks[user] = ts + timedelta(seconds=1)
        return ts.isoformat()

    def event_id(self):
        self.eid += 1
        return f"{self.prefix}-e{self.eid:07d}"

    def pick_user(self):
        user = self.users[self._next_user]
        self._next_user = (self._next_user + 1) % len(self.users)
        return user

    def warmups(self):
        prompt_json = json.dumps("- name: warm up")
        for user in self.users:
            ts = (self.clocks[user] - timedelta(days=1)).isoformat()
            self.lines.append(_completion(self.event_id(), user, ts, f"warm-{user}", prompt_json))

    def add(self, template, parts, user=None):
        prompt_json, text_json, n_lines, document_json = parts
        user = user or self.pick_user()
        self.sid += 1
        sid = f"{self.prefix}-s{self.sid:07d}"
        if template.emit_completion:
            self.lines.append(_completion(self.event_id(), user, self.stamp(user), sid, prompt_json))
        self.lines.append(
            _suggestion(self.event_id(), user, self.stamp(user), sid, text_json, n_lines, 20)
        )
        if template.action is not None:
            self.lines.append(_action(self.event_id(), user, self.stamp(user), sid, template.action))
        if template.document is not None:
            self.lines.append(_content(self.event_id(), user, self.stamp(user), sid, document_json))


_SHOWN_BODY = """\
ansible.builtin.copy:
  src: files/app.conf
  dest: /etc/app.conf
  owner: root
  group: root
  mode: '0644'"""

_MAJOR_BODY = """\
ansible.builtin.copy:
  content: '{{ rendered_payload }}'
  remote_src: true
  backup: true
  force: false
  validate: test -r %s"""


def _doc(name, body):
    return "\n".join([f"- name: {name}"] + ["  " + line for line in body.splitlines()])


def _swap(body, index, replacement):
    lines = body.splitlines()
    lines[index] = replacement
    return "\n".join(lines)


def _templates():
    name = "deploy app config"
    return {
        "fully": _Template(name, _SHOWN_BODY, "accepted", _doc(name, _SHOWN_BODY)),
        "minor": _Template(
            name, _SHOWN_BODY, "accepted",
            _doc(name, _swap(_SHOWN_BODY, 2, "  dest: /etc/app-v2.conf")),
        ),
        "minor_module": _Template(
            name, _SHOWN_BODY, "accepted",
            _doc(name, _swap(_SHOWN_BODY, 0, "ansible.builtin.template:")),
        ),
        "major": _Template(name, _SHOWN_BODY, "accepted", _doc(name, _MAJOR_BODY)),
        "deleted": _Template(name, _SHOWN_BODY, "accepted", ""),
        "rejected": _Template(name, _SHOWN_BODY, "rejected", None, emit_completion=False),
        "ignored": _Template(name, _SHOWN_BODY, None, None, emit_completion=False),
        "unresolved": _Template(name, _SHOWN_BODY, "accepted", None),
    }


def table_lines() -> list[str]:
    """The criterion-1 log: ``synth.edit_analysis_lines(TABLE_MIX, n_users=64)``."""
    templates = _templates()
    builder = _LogBuilder(64, BASE_DAY)
    builder.warmups()
    for key, count in TABLE_MIX.items():
        parts = templates[key].parts()
        for _ in range(count):
            builder.add(templates[key], parts)
    return builder.lines


def _feedback_lines(star_counts, negative_labels, positive_labels, base):
    lines = []
    comment_json = json.dumps("planted feedback")
    emitted = [(stars, None) for stars, n in sorted(star_counts.items()) for _ in range(n)]
    emitted += [(1, label) for label, n in sorted(negative_labels.items()) for _ in range(n)]
    emitted += [(5, label) for label, n in sorted(positive_labels.items()) for _ in range(n)]
    for eid, (stars, label) in enumerate(emitted, start=1):
        ts = (base + timedelta(seconds=eid - 1)).isoformat()
        lines.append(_feedback(f"e{eid:07d}", f"fb{eid:06d}", ts, stars, comment_json, label))
    return lines


def mixed_lines(target_events: int = 100_000) -> list[str]:
    """The criterion-7 log: ``synth.mixed_lines(100_000)``."""
    templates = _templates()
    keys = ("fully", "minor", "minor_module", "major", "deleted", "rejected", "ignored")
    weights = (10, 4, 1, 2, 3, 5, 1)
    parts = {key: templates[key].parts() for key in keys}
    builder = _LogBuilder(200, BASE_DAY, prefix="mix")
    builder.warmups()
    rotation = [key for key, weight in zip(keys, weights) for _ in range(weight)]

    for i in range((target_events - len(builder.lines) - 2_500) // 4):
        key = rotation[i % len(rotation)]
        user = builder.pick_user()
        if i % 4096 == 0:
            for u in builder.clocks:
                builder.clocks[u] += timedelta(days=1)
        builder.add(templates[key], parts[key], user=user)
        if i % 97 == 0:  # telemetry retry: byte-equal payload inside the window
            sid = f"{builder.prefix}-s{builder.sid:07d}"
            _, text_json, n_lines, _ = parts[key]
            builder.lines.append(
                _suggestion(builder.event_id(), user, builder.stamp(user), sid, text_json, n_lines, 20)
            )
        if i % 211 == 0:  # action without a matching suggestion
            builder.lines.append(
                _action(builder.event_id(), user, builder.stamp(user), f"orphan-{i}", "accepted")
            )

    unresolved = _LogBuilder(4, BASE_DAY, prefix="mix-unres")
    unresolved.warmups()
    unresolved_parts = templates["unresolved"].parts()
    for _ in range(120):
        unresolved.add(templates["unresolved"], unresolved_parts)
    builder.lines.extend(unresolved.lines)

    bad_suggestion = _Template(
        "odd suggestion", "plain prose, not a task", "accepted",
        "- name: odd suggestion\n  debug:\n    msg: hi",
    )
    bad_document = _Template("odd document", _SHOWN_BODY, "accepted", "key: [unclosed")
    for template, count in ((bad_suggestion, 30), (bad_document, 25)):
        bad_parts = template.parts()
        for _ in range(count):
            builder.add(template, bad_parts)

    builder.lines.extend(
        _feedback_lines(
            {1: 60, 2: 76, 3: 79, 4: 142, 5: 143},
            {"cannot_get_to_work": 40, "poor_suggestions": 12},
            {"productivity": 55, "accuracy": 25},
            BASE_DAY + timedelta(days=2),
        )
    )

    for i in range(60):
        builder.lines.append('{"event_id": "broken-%d"' % i)
    builder.lines.append('{"event_id":"m1","user_id":"mix00000"}')
    builder.lines.append(
        '{"event_id":"m2","user_id":"mix00000","ts":"2023-06-01T00:00:00","type":"completion",'
        '"suggestion_id":"x","prompt":"p","context":""}'
    )
    builder.lines.append(
        '{"event_id":"m3","user_id":"mix00000","ts":"2023-06-01T00:00:00+00:00","type":"mystery"}'
    )

    prompt_json = json.dumps("- name: padding probe")
    while len(builder.lines) < target_events:
        user = builder.pick_user()
        eid = builder.event_id()
        builder.lines.append(
            _completion(eid, user, builder.stamp(user), f"pad-{builder.event_id()}", prompt_json)
        )
    return builder.lines


_USER_RE = re.compile(r'"user_id":\s*"([^"]*)"')


def deal_to_collectors(lines: list[str], seed: int) -> list[str]:
    """Concatenate per-collector streams; each user (and each userless line)
    goes to one seeded collector, keeping its lines in order."""
    rng = random.Random(seed)
    collector_of: dict[str, int] = {}
    streams: list[list[str]] = [[] for _ in range(COLLECTORS)]
    for line in lines:
        match = _USER_RE.search(line)
        if match is None:
            streams[rng.randrange(COLLECTORS)].append(line)
            continue
        user = match.group(1)
        if user not in collector_of:
            collector_of[user] = rng.randrange(COLLECTORS)
        streams[collector_of[user]].append(line)
    return [line for stream in streams for line in stream]


def generate(workload: str, seed: int) -> tuple[list[str], dict[str, int]]:
    """Log lines and planted report counts of one workload for one seed."""
    if workload == "table62k":
        planted = {
            "total_suggestions": 62099,
            "initially_accepted": 40938,
            "fully_accepted": 24811,
            "minor_edits": 5672,
            "major_edits": 2713,
            "deleted_after_accept": 7436,
            "module_changed_minor": 306,
        }
        return deal_to_collectors(table_lines(), seed), planted
    if workload == "mixed100k":
        planted = {"malformed_lines": 63, "duplicates_removed": 251, "users": 836}
        return deal_to_collectors(mixed_lines(), seed), planted
    if workload == "playbooks":
        return playbooks.playbook_lines(seed)
    raise ValueError(f"unknown workload: {workload!r}")


WORKLOADS = ("table62k", "mixed100k", "playbooks")
