"""The per-item memo of parse_tasks against the whole-document parse.

Generated playbooks mix what the item cut must get right (play lists and
top-level lists, comments and blank lines between items, quoted, multi-line
and nested-block tasks, trailing play keys) with what it must hand to the
whole-document parse (anchors and aliases, items with a ``tasks`` key, broken
items, tabs, directives, characters no loader reads).  Each playbook is also
parsed as a growing series of snapshots through one memo, the way TaskCache
sees a user's edits.  The same playbooks check that a skeleton with one
placeholder gets the verdict that one placeholder per item would, and, edited
step by step, that a cut resumed from the last one equals a fresh cut.  The
properties run under each loader, with libyaml and without.
"""

from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tasklens import taskparse
from tasklens.config import Config
from tasklens.edits import TaskCache
from tasklens.taskparse import (
    DEFAULT_DIRECTIVE_KEYS,
    TaskMemo,
    TaskParseError,
    _CUT_UNSAFE_CHARS,
    _Cut,
    _collect_task_nodes,
    _cut_task_list,
    _skeleton_holds,
    composed,
    parse_tasks,
)

LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]

WORDS = st.sampled_from(["alpha", "nginx", "db-01", "yes", "0644", "3.5", "null", "x y"])
MODULES = st.sampled_from(
    ["debug", "ansible.builtin.copy", "command", "ping", "a.b", "tasks"]
)


@st.composite
def scalars(draw):
    word = draw(WORDS)
    return draw(
        st.sampled_from(
            [
                word,
                f'"{word}: quoted"',
                f"'{word}'",
                f"[{word}, 2]",
                f"{{k: {word}}}",
                f"{word}  # trailing comment",
                f"&anchor {word}",
                "*anchor",
                f"!!str {word}",
                f"[{word}",  # unclosed
            ]
        )
    )


@st.composite
def task_lines(draw, depth=0):
    """One task's lines, relative to its content column."""
    lines = []
    name = draw(st.sampled_from(["none", "plain", "quoted", "folded", "comment"]))
    word = draw(WORDS)
    if name == "plain":
        lines.append(f"name: {word} task")
    elif name == "quoted":
        lines.append(f'name: "{word}: task"')
    elif name == "folded":
        lines += ["name: >-", f"  {word}", "  continued"]
    elif name == "comment":
        lines.append(f"name: {word}  # note")
    if depth == 0 and draw(st.booleans()) and draw(st.booleans()):
        lines.append("block:")
        for _ in range(draw(st.integers(1, 2))):
            inner = draw(task_lines(depth=1))
            lines.append("  - " + inner[0])
            lines += ["    " + line for line in inner[1:]]
    else:
        module = draw(MODULES)
        shape = draw(st.sampled_from(["options", "free", "null", "block_scalar"]))
        if shape == "free":
            lines.append(f"{module}: {draw(WORDS)} --flag")
        elif shape == "null":
            lines.append(f"{module}:")
        elif shape == "block_scalar":
            lines += [f"{module}: |", f"  echo {draw(WORDS)}", "", "  done"]
        else:
            lines.append(f"{module}:")
            keys = draw(st.lists(st.sampled_from(["src", "dest", "msg", "mode"]), max_size=3))
            lines += [f"  {key}: {draw(scalars())}" for key in keys]
    for directive in draw(st.lists(st.sampled_from(["when", "tags", "loop", "register"]), max_size=2)):
        if directive == "loop":
            lines += ["loop:"] + [f"  - {draw(WORDS)}" for _ in range(draw(st.integers(1, 2)))]
        else:
            lines.append(f"{directive}: {draw(scalars())}")
    return lines


# Lines that can fall between items or break them.
BETWEEN = st.sampled_from(
    ["", "# comment", "  # indented comment", "      # deep comment", "   "]
)
BROKEN = st.sampled_from(
    [
        "stray: line",
        "  badly: indented",
        "- just a scalar",
        "- - nested list",
        "\tfoo: tab",
        # characters no loader reads, in a comment and in a quoted scalar
        "# form\x0cfeed, vertical\x0btab",
        '      msg: "\x1c\x1d\x1e"',
        "...",
        "---",
    ]
)


@st.composite
def list_items(draw, column):
    """One task-list item's lines at ``column``, now and then with a blank,
    comment or broken line inside."""
    lines = draw(task_lines())
    item = [" " * column + "- " + lines[0]] + [" " * (column + 2) + line for line in lines[1:]]
    for _ in range(draw(st.integers(0, 1))):
        extra = draw(st.one_of(BETWEEN, BETWEEN, BROKEN))
        item.insert(draw(st.integers(1, len(item))), extra)
    return item


@st.composite
def playbooks(draw):
    layout = draw(st.sampled_from(["top", "play", "play", "mapping"]))
    column = {"top": 0, "play": draw(st.sampled_from([2, 4])), "mapping": 2}[layout]
    head = draw(st.sampled_from([[], ["---"], ["# header"], ["%TAG !e! tag:example.com,2000:", "---"]]))
    if layout == "play":
        head += ["- hosts: all", "  become: true", "  tasks:"]
    elif layout == "mapping":
        head += ["tasks:"]
    items = [draw(list_items(column)) for _ in range(draw(st.integers(1, 5)))]
    tail = []
    if layout == "play":
        tail = draw(
            st.sampled_from(
                [
                    [],
                    ["  handlers:", "    - name: restart", "      debug:", "        msg: h"],
                    ["  vars:", "    a: 1"],
                    ["- hosts: db", "  tasks:", "    - debug:", "        msg: d"],
                ]
            )
        )
    ending = draw(st.sampled_from(["\n", ""]))
    return head, items, tail, ending


def parse(text, memo=None):
    return parse_tasks(text, DEFAULT_DIRECTIVE_KEYS, memo)


def _outcome(text, memo=None):
    try:
        return parse(text, memo)
    except Exception as exc:  # the class is what must match
        return type(exc)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(playbook=playbooks())
def test_memo_matches_whole_document_parse(loader, playbook):
    head, items, tail, ending = playbook
    memo = TaskMemo()
    with mock.patch.object(taskparse, "_Loader", loader):
        for count in range(1, len(items) + 1):
            lines = head + [line for item in items[:count] for line in item] + tail
            text = "\n".join(lines) + ending
            assert _outcome(text, memo) == _outcome(text)


def _placeholders_hold(skeleton, column, first_line, count):
    """The skeleton check with ``count`` placeholders, one per item: the task
    nodes are exactly the placeholders, on consecutive lines."""
    lines = skeleton.split("\n")
    assert lines[first_line] == " " * column + "- {}"
    lines[first_line:first_line + 1] = [lines[first_line]] * count
    try:
        with composed("\n".join(lines)) as (root, _):
            nodes = _collect_task_nodes(root)
    except TaskParseError:
        return False
    return len(nodes) == count and all(
        isinstance(node, yaml.MappingNode)
        and not node.value
        and node.start_mark.line == first_line + i
        and node.start_mark.column == column + 2
        for i, node in enumerate(nodes)
    )


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(playbook=playbooks())
def test_one_placeholder_verdict_equals_one_per_item(loader, playbook):
    head, items, tail, ending = playbook
    with mock.patch.object(taskparse, "_Loader", loader):
        for count in range(1, len(items) + 1):
            text = "\n".join(
                head + [line for item in items[:count] for line in item] + tail
            ) + ending
            cut = _cut_task_list(text)
            if cut is None:
                continue
            key = (cut.skeleton, cut.column, cut.first_line)
            verdict = _skeleton_holds(*key)
            for placeholders in {len(cut.items), 3}:
                assert _placeholders_hold(*key, placeholders) == verdict


def test_memo_reuses_items_across_snapshots():
    task = "    - name: t{0}\n      debug:\n        msg: m{0}\n"
    head = "- hosts: all\n  tasks:\n"
    memo = TaskMemo()
    small = parse(head + task.format(1) + task.format(2), memo)
    grown = parse(head + task.format(1) + task.format(2) + task.format(3), memo)
    assert grown[:2] == small
    assert grown[0] is small[0] and grown[1] is small[1]
    assert len(memo.items) == 3


def test_snapshots_share_one_skeleton_verdict():
    task = "    - name: t{0}\n      debug:\n        msg: m{0}\n"
    head, tail = "- hosts: all\n  tasks:\n", "  handlers: []\n"
    memo = TaskMemo()
    for count in (1, 2, 5):
        text = head + "".join(task.format(i) for i in range(count)) + tail
        assert parse(text, memo) == parse(text)
    assert memo.skeletons == {(head + "    - {}\n" + tail, 4, 2): True}


def test_anchor_shared_across_items_falls_back():
    text = (
        "- hosts: all\n  tasks:\n"
        "    - debug:\n        msg: &m hello\n"
        "    - debug:\n        msg: *m\n"
    )
    memo = TaskMemo()
    assert parse(text, memo) == parse(text)
    assert parse(text, memo)[1].options == {"msg": "hello"}
    assert memo.items == {}


def test_tag_directive_falls_back():
    text = (
        "%TAG !! tag:example.com,2000:\n---\n"
        "- hosts: all\n  tasks:\n    - debug:\n        msg: !!str 5\n"
    )
    assert _outcome(text, TaskMemo()) == _outcome(text)


EDITS = ["append", "change", "insert", "delete", "handlers", "header", "no_newline", "comment",
         "tasks_key"]


def _edit(data, kind, playbook, column):
    """Apply one edit of ``kind`` to ``playbook`` (head, items, tail, ending)."""
    head, items, tail, ending = playbook
    at = data.draw(st.integers(0, len(items)))
    if kind == "append":
        items.append(data.draw(list_items(column)))
    elif kind == "insert":
        items.insert(at, data.draw(list_items(column)))
    elif kind == "delete" and len(items) > 1:
        del items[min(at, len(items) - 1)]
    elif kind == "change":  # one character into one line, the dash's line included
        item = items[min(at, len(items) - 1)]
        row = data.draw(st.integers(0, len(item) - 1))
        place = data.draw(st.integers(0, len(item[row])))
        char = data.draw(st.sampled_from(["z", " ", "-", ":", "#", "["]))
        item[row] = item[row][:place] + char + item[row][place:]
    elif kind == "handlers":
        key = " " * max(column - 2, 0)
        tail[:0] = [key + "handlers:", key + "  - name: restart", key + "    debug:",
                    key + "      msg: h"]
    elif kind == "header":
        if "- hosts: all" in head:
            head[head.index("- hosts: all")] = "- hosts: " + data.draw(WORDS)
        else:
            head.insert(0, "# edited")
    elif kind == "no_newline":
        playbook[3] = ""
    elif kind == "comment":
        item = items[min(at, len(items) - 1)]
        item.insert(data.draw(st.integers(1, len(item))), " " * column + "# note")
    elif kind == "tasks_key":  # a list that had no "tasks:" line may gain one
        items[-1].append(" " * max(column - 2, 0) + "tasks:")


def _whole(text):
    try:
        return tuple(parse(text))
    except TaskParseError:
        return None


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_resumed_cut_equals_a_fresh_cut(loader, data):
    """A playbook edited step by step: after each edit the cut resumed from the
    last cut equals a fresh cut, and TaskCache, whose memo resumes the same
    way, gives the whole-document parse."""
    head, items, tail, ending = data.draw(playbooks())
    playbook = [head, items, tail, ending]
    column = len(items[0][0]) - len(items[0][0].lstrip(" "))
    cache = TaskCache(Config())
    previous = None
    with mock.patch.object(taskparse, "_Loader", loader):
        for kind in [None] + data.draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=8)):
            if kind is not None:
                _edit(data, kind, playbook, column)
            head, items, tail, ending = playbook
            text = "\n".join(head + [line for item in items for line in item] + tail) + ending
            fresh = _cut_task_list(text)
            assert _cut_task_list(text, previous) == fresh
            previous = fresh or previous
            assert cache.parse(text) == _whole(text)


def test_cut_resumes_from_the_shared_prefix():
    """A grown snapshot keeps the earlier items' texts; an edit re-slices from the
    item it touches on, and a changed first line makes a fresh cut."""
    task = "    - name: t{0}\n      debug:\n        msg: m{0}\n"
    head = "- hosts: all\n  tasks:\n"
    small = _cut_task_list(head + task.format(1) + task.format(2) + "  handlers: []\n")
    grown = _cut_task_list(head + "".join(task.format(i) for i in (1, 2, 3)), small)
    assert isinstance(grown, _Cut) and grown.items[0] is small.items[0]
    assert grown.items[1] == small.items[1] and grown.items[1] is not small.items[1]
    assert grown == _cut_task_list(grown.text)
    edited = grown.text.replace("msg: m2", "msg: m9")
    resumed = _cut_task_list(edited, grown)
    assert resumed.items[0] is grown.items[0] and resumed == _cut_task_list(edited)
    moved = _cut_task_list("# new\n" + grown.text, grown)
    assert moved.items[0] is not grown.items[0] and moved == _cut_task_list(moved.text)
    top = _cut_task_list("- debug: a\n- debug: b\n")
    keyed = "- debug: a\ntasks:\n- debug: b\n"  # the list now starts under the key
    assert _cut_task_list(keyed, top) == _cut_task_list(keyed)


def test_resumed_cut_scans_from_where_the_texts_differ():
    """The safety scans skip only the prefix the last cut's text passed: a
    refused character, or a "%" line, right where the texts start to differ
    is still refused."""
    task = "    - name: t{0}\n      debug:\n        msg: m{0}\n"
    text = "- hosts: all\n  tasks:\n" + task.format(1) + task.format(2)
    previous = _cut_task_list(text)
    at = text.index("m2")
    for changed in [text[:at] + ch + text[at:] for ch in _CUT_UNSAFE_CHARS] + [text + "%x\n"]:
        assert _cut_task_list(changed) is None
        assert _cut_task_list(changed, previous) is None, repr(changed[at:])
