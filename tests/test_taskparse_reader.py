"""The block-shape reader against the YAML path.

``taskparse._read_task`` reads one task in the common block shape without the
YAML loader, or refuses.  For every text it reads, the memo-free
``parse_tasks`` must give exactly that one task, and so must the YAML path of
``_parse_item`` for a list item; a refusal is always allowed.  The texts are
the token fuzz, generated block-shape tasks with values on the reader's
boundary, the synth templates, every distinct text of the three seed-1 bench
logs and single-character mutations of those, under both loaders.
"""

import functools
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tasklens import synth, taskparse
from tasklens.taskparse import (
    DEFAULT_DIRECTIVE_KEYS,
    TaskParseError,
    _cut_task_list,
    _parse_item,
    _read_task,
    parse_tasks,
)
from test_taskparse import same_value, yaml_texts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
DIRECTIVES = frozenset(DEFAULT_DIRECTIVE_KEYS)


def same_task(a, b):
    return (
        same_value(a.name, b.name)
        and a.module == b.module
        and same_value(a.options, b.options)
        and same_value(a.directives, b.directives)
        and a.raw_lines == b.raw_lines
        and a.name_span == b.name_span
    )


def assert_reader_agrees(text):
    """Under the loader in use: the reader refuses ``text`` or gives the YAML path's task."""
    task = _read_task(text, DIRECTIVES)
    if task is None:
        return
    try:
        tasks = parse_tasks(text, DEFAULT_DIRECTIVE_KEYS)
    except TaskParseError as exc:
        raise AssertionError(f"read {text!r}, which the YAML path refuses: {exc}") from None
    assert len(tasks) == 1 and same_task(task, tasks[0]), (text, task, tasks)
    if text.lstrip(" ").startswith("-"):
        with mock.patch.object(taskparse, "_read_task", return_value=None):
            item = _parse_item(text, DIRECTIVES)
        assert item is not None and same_task(task, item), (text, task, item)


def assert_agrees_under_both_loaders(text):
    for loader in LOADERS:
        with mock.patch.object(taskparse, "_Loader", loader):
            assert_reader_agrees(text)


# A text field of a log line, as the JSON string literal it is written as.
TEXT_FIELD = re.compile(r'"(text|document)": ?("[^"\\]*(?:\\.[^"\\]*)*")')


@functools.cache
def bench_texts() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Every distinct suggestion text, snapshot and snapshot item of the
    three seed-1 bench logs; and, apart, the playbooks log's suggestion
    texts and snapshot items."""
    texts: set[str] = set()
    playbooks: set[str] = set()
    for workload in workloads.WORKLOADS:
        lines, _ = workloads.generate(workload, 1)
        fields = {field for line in lines for field in TEXT_FIELD.findall(line)}
        for field, literal in fields:
            try:
                text = json.loads(literal)
            except ValueError:  # a line the bench writes malformed on purpose
                continue
            cut = _cut_task_list(text)
            items = cut.items if cut is not None else []
            texts.update([text, *items])
            if workload == "playbooks":
                playbooks.update([text] if field == "text" else items)
    return tuple(sorted(texts)), tuple(sorted(playbooks))


def synth_texts() -> list[str]:
    templates = [*synth.edit_outcome_templates().values(), *synth.module_tag_templates().values()]
    return [text for t in templates for text in (t.suggestion_text, t.document) if text]


def corpus() -> list[str]:
    return sorted({*bench_texts()[0], *synth_texts()})


# Values the reader reads (strings, bools, nulls, single-quoted scalars and
# flow lists), and values on the far side of its boundary that it must leave
# to the loaders: other types, comments, quotes, indicators, characters YAML
# refuses, ": " inside a value.
READ = [
    "alpha", "db-01", "x y", "/srv/a", "a:b", "a#b", "a  b", "a :b", "a[0],b{c}", "{{ v }} x",
    "yes", "No", "false", "on", "OFF", "~", "null", "Null", "y", "n", "...", "a\xa0b", "é",
    "'q'", "''", "'a # b: c'", "'yes'", "[a, b]", "[a,b]", "[ ]", "[yes, ~, x y]",
]
EDGE = [
    "0644", "1:20", "2024-01-01", "3.5", ".inf", "0x1f", "+1", "-1", "=", "<<", "a: b", "a:",
    "a #c", "hi # c", "a ", "'it''s'", "[yes, 0644]", "[a, b,]", "[a?b]", "[a: b]", "[a #b]",
    '"dq"', "|", ">-", "&a x", "*a", "!!str x", "%x", "@x", "`x", "a\tb", "a\t", "\tb", "a\x0cb",
    "{a: b}", "- x", "? x", "-x",
]
MODULES = ["debug", "copy", "ansible.builtin.copy"]
EDGE_KEYS = ["tasks", "on", "null", "a.b", "copy\t", "k" * 130, "copy:"]


def mostly(common, rare, times=6):
    """Draws ``common`` ``times`` as often as ``rare``; shrinks toward ``common``."""
    return st.sampled_from(list(common) * times + list(rare))


@st.composite
def block_tasks(draw):
    """A task in or near the block shape: one module key among directive
    keys, each with a value, no value, a nested block of options or of list
    entries, or a two-line scalar, at drawn columns, with blank lines.  Now
    and then a key, a value or a column is on the far side of the boundary,
    or a key repeats."""
    value = mostly(READ, EDGE)
    column = draw(st.sampled_from([0, 0, 2, 4]))
    item = column > 0 or draw(st.booleans())
    key_column = column + 2 if item else 0
    keys = draw(st.lists(st.sampled_from(["name", "when", "tags", "tag", "loop", "register"]),
                         max_size=3, unique=True))
    keys.insert(draw(st.integers(0, len(keys))), draw(mostly(MODULES, EDGE_KEYS)))
    if draw(mostly([False], [True], 9)):
        keys.append(draw(st.sampled_from(keys)))
    rows = []
    for key in keys:
        shape = draw(mostly(["value", "bare"] + ["block"] * (key != "name"), ["two_lines"], 3))
        if shape in ("value", "two_lines"):
            rows.append((key_column, f"{key}: {draw(value)}"))
            if shape == "two_lines":
                rows.append((key_column + 2, draw(value)))
        else:
            rows.append((key_column, f"{key}:"))
        if shape == "block":
            inner = key_column + draw(mostly([2, 4], [1, 0], 3))
            options = draw(st.lists(st.sampled_from(["src", "dest", "msg"]), min_size=1,
                                    max_size=3, unique=True))
            if draw(mostly([False], [True], 9)):
                options.append(options[0])
            dash = draw(st.booleans())
            for option in options:
                text = f"- {draw(value)}" if dash else f"{option}: {draw(value)}"
                rows.append((inner + draw(mostly([0], [1, -1], 9)), text))
        if draw(mostly([False], [True], 5)):
            rows.append((0, ""))
    lines = [" " * at + line if line else "" for at, line in rows]
    if item:
        lines[0] = " " * column + "- " + lines[0][key_column:]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=block_tasks())
def test_reader_agrees_on_block_shaped_tasks(loader, text):
    with mock.patch.object(taskparse, "_Loader", loader):
        assert_reader_agrees(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=yaml_texts())
def test_reader_agrees_on_fuzzed_texts(loader, text):
    with mock.patch.object(taskparse, "_Loader", loader):
        assert_reader_agrees(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_reader_agrees_on_every_bench_and_synth_text(loader):
    """Every text under libyaml.  The pure-Python loader, about five times
    slower here, takes every sixteenth of the playbooks log's 3,188 texts,
    which all have one shape, and every other text."""
    texts = corpus()
    if loader is yaml.SafeLoader and LOADERS[1] is not yaml.SafeLoader:
        playbooks = bench_texts()[1]
        texts = sorted(set(texts) - set(playbooks)) + list(playbooks[::16])
    with mock.patch.object(taskparse, "_Loader", loader):
        for text in texts:
            assert_reader_agrees(text)


def test_reader_reads_every_playbooks_item_and_suggestion():
    """The shape covers the workload whose texts are all distinct."""
    texts = bench_texts()[1]
    assert len(texts) > 3000
    assert [text for text in texts if _read_task(text, DIRECTIVES) is None] == []


MUTATIONS = ["#", ":", " ", "'", "\t", "\x0c", "-", "[", ",", "&", "y", "0", "\n", "\r", "é"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_agrees_on_one_character_mutations(data):
    text = data.draw(st.sampled_from(corpus()))
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from(MUTATIONS))
    mutated = data.draw(st.sampled_from([
        text[:at] + char + text[at:], text[:at] + char + text[at + 1:], text[:at] + text[at + 1:],
    ]))
    assert_agrees_under_both_loaders(mutated)


# Texts on the boundary, with what the reader makes of each: the value of
# ``debug``'s ``msg`` option, or "refused" where it must leave the text to the
# loaders.
BOUNDARY = {
    "- debug:\n    msg: on\n": True,
    "- debug:\n    msg: 'false'\n": "false",
    "- debug:\n    msg: ~\n": None,
    "- debug:\n    msg: [a,b]\n": ["a", "b"],
    "debug:\n  msg: a:b#c": "a:b#c",
    "- debug:\n    msg: 0644\n": "refused",
    "- debug:\n    msg: 1:20\n": "refused",
    "- debug:\n    msg: 2024-01-01\n": "refused",
    "- debug:\n    msg: 'it''s'\n": "refused",
    "- debug:\n    msg: hi # c\n": "refused",
    "- debug:\n    msg: a: b\n": "refused",
    "- debug:\n    msg: a\tb\n": "refused",
    "- debug:\n    msg: a\x0cb\n": "refused",
    "- debug:\n    msg: first\n      second\n": "refused",
    "- debug:\n    msg: a\n    msg: b\n": "refused",
    "- debug:\n    msg: x\n  loop:\n  - a\n": "refused",
    "- name: a\n  tasks: x\n": "refused",
    "tasks: x": "refused",
}


@pytest.mark.parametrize("text", BOUNDARY, ids=repr)
def test_reader_on_the_boundary(text):
    task = _read_task(text, DIRECTIVES)
    expected = BOUNDARY[text]
    if expected == "refused":
        assert task is None
    else:
        assert same_value(task.options, {"msg": expected})
    assert_agrees_under_both_loaders(text)


EMPTY_NAMES = [
    "- name:\n  debug: x\n",
    "- name:\n\n  debug: x\n",
    "- debug: x\n  name:",
    "- debug: x\n  name:\n\n\n",
    "name:\ncopy:\n  src: a",
    "- name:\n  debug:\n    msg: a\n  when: b\n",
]


@pytest.mark.parametrize("text", EMPTY_NAMES, ids=repr)
def test_empty_name_span_matches_the_yaml_path(text):
    """An empty ``name:`` value is a node whose mark PyYAML may set at the
    next token; the reader's span must still be the YAML path's."""
    task = _read_task(text, DIRECTIVES)
    assert task is not None and task.name == ""
    assert_agrees_under_both_loaders(text)


def test_reader_runs_only_with_the_memo():
    """Without a memo parse_tasks goes straight to the YAML path."""
    text = "copy:\n  src: a\n"
    with mock.patch.object(taskparse, "_read_task", side_effect=AssertionError) as reader:
        parse_tasks(text, DEFAULT_DIRECTIVE_KEYS)
    reader.assert_not_called()
    assert parse_tasks(text, DEFAULT_DIRECTIVE_KEYS, taskparse.TaskMemo()) == parse_tasks(
        text, DEFAULT_DIRECTIVE_KEYS)
