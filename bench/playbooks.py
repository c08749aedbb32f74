"""The ``playbooks`` workload: every playbook snapshot is a distinct document.

Each user edits one playbook that grows from 10 to about 200 tasks.  Before
each suggestion the user writes a few tasks of their own; an accepted
suggestion then lands in the next snapshot of that playbook as fully accepted,
minor-edited, major-edited, renamed, or not at all (deleted after accept).
Every option value carries a task-unique id, so no two tasks share a line
beyond the module key, and the rename fallback finds exactly the planted task.

The seed picks the words, modules, task shapes and each user's order of
outcomes.  The structure (outcome counts per user, line counts per step,
timestamps) does not depend on it, so every seed yields the same report.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

BASE_DAY = datetime(2023, 6, 1, 8, 0, 0, tzinfo=timezone.utc)
INITIAL_TASKS = 10
OWN_TASKS_PER_STEP = 4

# Outcomes of one user's suggestions, in counts per user.
USER_MIX = {
    "fully": 14,
    "minor": 6,
    "major": 3,
    "deleted": 3,
    "rename_fully": 2,
    "rename_minor": 2,
    "rejected": 10,
}

MODULES = {
    "ansible.builtin.copy": ("src", "dest", "owner", "group", "mode", "backup"),
    "ansible.builtin.template": ("src", "dest", "owner", "group", "mode", "validate"),
    "ansible.builtin.file": ("path", "state", "owner", "group", "mode", "recurse"),
    "ansible.builtin.lineinfile": ("path", "line", "regexp", "state", "create", "insertafter"),
    "ansible.builtin.package": ("name", "state", "use", "update_cache", "cache_valid_time", "lock_timeout"),
    "ansible.builtin.service": ("name", "state", "enabled", "pattern", "runlevel", "arguments"),
    "ansible.builtin.user": ("name", "groups", "shell", "home", "comment", "uid"),
    "ansible.builtin.get_url": ("url", "dest", "checksum", "mode", "timeout", "headers"),
    "ansible.builtin.git": ("repo", "dest", "version", "remote", "depth", "refspec"),
    "ansible.builtin.uri": ("url", "method", "status_code", "body", "dest", "creates"),
}

WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "fjord", "gamma", "harbor", "indigo",
    "juniper", "kestrel", "lumen", "meadow", "nectar", "onyx", "prairie", "quartz",
    "raven", "sierra", "tundra", "umber", "vortex", "willow", "xenon", "yarrow", "zephyr",
    "nginx", "redis", "postgres", "haproxy", "grafana", "consul", "vault", "kafka",
)


class _Author:
    """Writes distinct tasks for one user; every value holds a task-unique id."""

    def __init__(self, rng: random.Random, user_index: int):
        self.rng = rng
        self.user_index = user_index
        self.counter = 0

    def uid(self) -> str:
        self.counter += 1
        return f"u{self.user_index:02d}t{self.counter:04d}"

    def name(self, uid: str) -> str:
        words = self.rng.sample(WORDS, 3)
        return f"{words[0].capitalize()} {words[1]} {words[2]} {uid}"

    def value(self, uid: str, key: str) -> str:
        return f"/srv/{self.rng.choice(WORDS)}/{uid}/{key}-{self.rng.randrange(10_000)}"

    def body(self, n_options: int, module: str | None = None) -> list[str]:
        """A module entry: the module key line and n_options option lines."""
        uid = self.uid()
        module = module or self.rng.choice(sorted(MODULES))
        keys = MODULES[module][:n_options]
        return [f"{module}:"] + [f"  {key}: {self.value(uid, key)}" for key in keys]

    def own_task(self) -> list[str]:
        """A user-written task, in one of a few realistic shapes."""
        uid = self.uid()
        lines = [f"name: {self.name(uid)}"]
        shape = self.rng.randrange(5)
        if shape == 0:
            lines.append(f"ansible.builtin.command: /usr/local/bin/{self.rng.choice(WORDS)} --id {uid}")
            lines.append("changed_when: false")
        else:
            lines.extend(self.body(self.rng.randrange(2, 6)))
        if shape == 2:
            lines.append(f"when: {self.rng.choice(WORDS)}_{uid} is defined")
        elif shape == 3:
            lines.append(f"tags: [{self.rng.choice(WORDS)}, {uid}]")
        elif shape == 4:
            lines.append("loop:")
            lines.extend(f"  - {uid}-{i}" for i in range(self.rng.randrange(2, 5)))
            lines.append(f"register: result_{uid}")
        return lines


def _edit_value(author: _Author, body: list[str]) -> list[str]:
    """Minor edit: the last option gets a new value."""
    key = body[-1].split(":", 1)[0].strip()
    return body[:-1] + [f"  {key}: {author.value(author.uid(), key)}"]


def _rewrite(author: _Author, body: list[str]) -> list[str]:
    """Major edit: same module, every option replaced."""
    return author.body(len(body) - 1, module=body[0][:-1])


def _document(tasks: list[list[str]]) -> str:
    out = ["- hosts: all", "  become: true", "  tasks:"]
    for task in tasks:
        out.append("    - " + task[0])
        out.extend("      " + line for line in task[1:])
    return "\n".join(out)


def _event(eid: str, user: str, ts: str, kind: str, **fields) -> str:
    head = {"event_id": eid, "user_id": user, "ts": ts, "type": kind}
    return json.dumps({**head, **fields}, separators=(",", ":"))


def playbook_lines(
    seed: int, n_users: int = 12, user_mix: dict[str, int] = USER_MIX
) -> tuple[list[str], dict[str, int]]:
    """The log lines and the counts planted in them.

    ``fully_accepted`` and ``minor_edits`` include the renamed tasks, which
    ``renamed`` counts again: the rename fallback must find each of them.
    """
    rng = random.Random(seed)
    steps = sum(user_mix.values())
    users = [f"pb{i:03d}" for i in range(n_users)]
    clocks = {user: BASE_DAY for user in users}
    authors = [_Author(random.Random(rng.random()), i) for i in range(n_users)]
    playbooks: list[list[list[str]]] = [
        [author.own_task() for _ in range(INITIAL_TASKS)] for author in authors
    ]
    schedules = []
    for _ in users:
        schedule = [kind for kind, count in user_mix.items() for _ in range(count)]
        rng.shuffle(schedule)
        schedules.append(schedule)

    lines: list[str] = []
    eid = 0

    def emit(user: str, kind: str, **fields):
        nonlocal eid
        eid += 1
        ts = clocks[user].isoformat()
        clocks[user] += timedelta(seconds=1)
        lines.append(_event(f"pb-e{eid:07d}", user, ts, kind, **fields))

    for user in users:
        eid += 1
        ts = (BASE_DAY - timedelta(days=1)).isoformat()
        lines.append(
            _event(f"pb-e{eid:07d}", user, ts, "completion",
                   suggestion_id=f"warm-{user}", prompt="- name: warm up", context="")
        )

    for step in range(steps):
        n_options = 3 + step % 4
        for index, user in enumerate(users):
            author, playbook, kind = authors[index], playbooks[index], schedules[index][step]
            playbook.extend(author.own_task() for _ in range(OWN_TASKS_PER_STEP))
            name = author.name(author.uid())
            shown = author.body(n_options)
            sid = f"{user}-s{step:03d}"
            text = "\n".join(shown)
            emit(user, "completion", suggestion_id=sid, prompt=f"- name: {name}", context="")
            emit(user, "suggestion", suggestion_id=sid, text=text,
                 lines=len(shown), tokens=3 * len(shown))
            emit(user, "action", suggestion_id=sid,
                 action="rejected" if kind == "rejected" else "accepted")
            if kind == "rejected":
                continue
            if kind != "deleted":
                committed_name = f"{name} v2" if kind.startswith("rename") else name
                if kind == "major":
                    body = _rewrite(author, shown)
                elif kind.endswith("minor"):
                    body = _edit_value(author, shown)
                else:
                    body = shown
                playbook.append([f"name: {committed_name}"] + body)
            emit(user, "content", suggestion_id=sid, document=_document(playbook))

    mix = {kind: count * n_users for kind, count in user_mix.items()}
    planted = {
        "total_suggestions": steps * n_users,
        "initially_accepted": (steps - user_mix["rejected"]) * n_users,
        "fully_accepted": mix["fully"] + mix["rename_fully"],
        "minor_edits": mix["minor"] + mix["rename_minor"],
        "major_edits": mix["major"],
        "deleted_after_accept": mix["deleted"],
        "module_changed_minor": 0,
        "renamed": mix["rename_fully"] + mix["rename_minor"],
    }
    return lines, planted
