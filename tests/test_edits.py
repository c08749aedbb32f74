import contextlib
import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tasklens import edits, gestalt, taskparse
from tasklens.config import Config
from tasklens.edits import (
    Category,
    MinorSubcategory,
    ModuleEditTag,
    SuggestionOutcome,
    TaskCache,
    analyze_timeline,
    classify_outcome,
    match_committed_task,
    minor_subcategory,
    module_edit_tags,
    pair_outcomes,
)
from tasklens.events import (
    RawEvent, UserAction, build_timelines, deduplicate, parse_event_line
)
from tasklens.gestalt import similarity_ratio
from tasklens.report import render_report, run_pipeline
from tasklens.synth import (
    EditMix,
    edit_analysis_lines,
    edit_outcome_templates,
    mixed_lines,
    module_tag_lines,
    module_tag_templates,
    write_log,
)
from tasklens.taskparse import (
    DEFAULT_DIRECTIVE_KEYS,
    AnsibleTask,
    NotATaskShape,
    TaskParseError,
    YamlSyntax,
    parse_tasks,
)

UTC = timezone.utc
CONFIG = Config()
FLOOR = CONFIG.rename_match_floor


def parse(text):
    return parse_tasks(text, DEFAULT_DIRECTIVE_KEYS)


def new_cache(config=CONFIG):
    return TaskCache(config)

SHOWN = """\
ansible.builtin.copy:
  src: files/app.conf
  dest: /etc/app.conf
  owner: root
  group: root
  mode: '0644'"""


def doc_with(name, body):
    lines = [f"- name: {name}"]
    lines.extend("  " + line for line in body.splitlines())
    return "\n".join(lines)


def timeline_from(specs, user="u1"):
    """specs: list of (kind, fields) in chronological order."""
    base = datetime(2023, 6, 2, 9, 0, 0, tzinfo=UTC)
    lines = [
        json.dumps(
            {"event_id": "warm", "user_id": user,
             "ts": (base - timedelta(days=1)).isoformat(),
             "type": "completion", "suggestion_id": "warm", "prompt": "w", "context": ""}
        )
    ]
    for i, (kind, fields) in enumerate(specs):
        obj = {"event_id": f"e{i}", "user_id": user,
               "ts": (base + timedelta(seconds=i)).isoformat(), "type": kind}
        obj.update(fields)
        lines.append(json.dumps(obj))
    events = [parse_event_line(line) for line in lines]
    (timeline,) = build_timelines(events)
    return timeline


def suggestion_fields(sid, text):
    return {"suggestion_id": sid, "text": text, "lines": len(text.splitlines()), "tokens": 20}


class TestPairOutcomes:
    def test_accept_then_content_pairs_document(self):
        doc = doc_with("deploy app config", SHOWN)
        timeline = timeline_from(
            [
                ("completion", {"suggestion_id": "s1", "prompt": "- name: deploy app config", "context": ""}),
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
                ("content", {"document": doc}),
            ]
        )
        result = pair_outcomes(timeline, new_cache())
        (outcome,) = result.outcomes
        suggestion, snapshot = timeline.events[2], timeline.events[4]
        assert outcome.decision is UserAction.ACCEPTED
        assert outcome.suggestion is suggestion
        assert outcome.snapshot is snapshot and snapshot.document_text == doc
        assert outcome.shown_task.name == "deploy app config"

    def test_outcome_copies_no_event_field(self):
        """An outcome holds its suggestion and snapshot events, not copies of
        their fields."""
        assert SuggestionOutcome.__slots__ == (
            "suggestion", "shown_task", "decision", "snapshot", "verdict"
        )
        fields = {
            field for cls in RawEvent.__subclasses__()
            for field in (*RawEvent.__slots__, *cls.__slots__)
        }
        assert not fields & set(SuggestionOutcome.__slots__)

    def test_reject_skips_content(self):
        timeline = timeline_from(
            [
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "rejected"}),
                ("content", {"document": "x: 1"}),
            ]
        )
        (outcome,) = pair_outcomes(timeline, new_cache()).outcomes
        assert outcome.decision is UserAction.REJECTED
        assert outcome.snapshot is None
        classified = classify_outcome(outcome, new_cache())
        assert classified.verdict.category is Category.REJECTED
        assert classified.verdict.edit_fraction is None

    def test_no_action_means_ignored(self):
        timeline = timeline_from([("suggestion", suggestion_fields("s1", SHOWN))])
        (outcome,) = pair_outcomes(timeline, new_cache()).outcomes
        assert outcome.decision is UserAction.IGNORED
        assert classify_outcome(outcome, new_cache()).verdict.category is Category.IGNORED

    def test_accept_without_content_is_unresolved(self):
        timeline = timeline_from(
            [
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
            ]
        )
        (outcome,) = pair_outcomes(timeline, new_cache()).outcomes
        assert classify_outcome(outcome, new_cache()).verdict.category is Category.UNRESOLVED

    def test_orphan_actions_counted(self):
        timeline = timeline_from(
            [
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
                ("action", {"suggestion_id": "ghost", "action": "accepted"}),
            ]
        )
        assert pair_outcomes(timeline, new_cache()).orphan_actions == 1

    def test_unparseable_suggestion_counted_and_skipped(self):
        timeline = timeline_from(
            [("suggestion", suggestion_fields("s1", "not a task at all"))]
        )
        result = pair_outcomes(timeline, new_cache())
        assert result.outcomes == []
        assert result.unparseable_suggestions == 1

    def test_content_before_action_not_used(self):
        doc = doc_with("deploy app config", SHOWN)
        timeline = timeline_from(
            [
                ("content", {"document": "earlier: doc"}),
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
                ("content", {"document": doc}),
            ]
        )
        (outcome,) = pair_outcomes(timeline, new_cache()).outcomes
        assert outcome.snapshot.document_text == doc


def match_task(lines, name=None):
    return AnsibleTask(name, None, {}, {}, tuple(lines))


def match_tasks(names):
    lines = st.lists(st.sampled_from(["a", "b", "c  ", "- d: 1", ""]), max_size=6)
    return st.builds(match_task, lines, names)


def unpruned_match(shown, doc_tasks, rename_match_floor):
    """match_committed_task without the bound: every candidate is compared."""
    if shown.name is not None:
        for task in doc_tasks:
            if task.name == shown.name:
                return task
    shown_lines = [line.rstrip() for line in shown.raw_lines]
    best, best_ratio = None, 0.0
    for task in doc_tasks:
        ratio = similarity_ratio(shown_lines, [line.rstrip() for line in task.raw_lines])
        if ratio > best_ratio:
            best, best_ratio = task, ratio
    if best is not None and best_ratio >= rename_match_floor:
        return best
    return None


class TestMatchCommittedTask:
    def test_name_match_wins(self):
        shown = parse(SHOWN)[0].with_name("deploy app config")
        doc = parse(
            doc_with("other task", SHOWN) + "\n" + doc_with("deploy app config", _replace_line(SHOWN, 1, "  src: changed"))
        )
        match = match_committed_task(shown, doc, FLOOR)
        assert match.name == "deploy app config"

    def test_rename_falls_back_to_best_ratio(self):
        shown = parse(SHOWN)[0].with_name("old name")
        doc = parse(doc_with("new name", _replace_line(SHOWN, 1, "  src: changed")))
        match = match_committed_task(shown, doc, FLOOR)
        assert match is not None and match.name == "new name"

    def test_below_floor_is_no_match(self):
        shown = parse(SHOWN)[0].with_name("old name")
        other = "ansible.builtin.service:\n  enabled: true\n  daemon_reload: true"
        doc = parse(doc_with("new name", other))
        assert match_committed_task(shown, doc, FLOOR) is None

    def test_empty_document_is_no_match(self):
        shown = parse(SHOWN)[0]
        assert match_committed_task(shown, (), FLOOR) is None

    @settings(max_examples=300, deadline=None)
    @given(
        shown=match_tasks(st.sampled_from([None, None, None, "n1"])),
        doc=st.lists(match_tasks(st.sampled_from([None, "n1", "n2"])), max_size=8),
        floor=st.sampled_from([0.0, 0.3, 0.3, 0.5, 1.0]),
    )
    def test_pruned_scan_equals_full_scan(self, shown, doc, floor):
        # Lines from a five-line alphabet make equal ratios common; the
        # first candidate with the best ratio must win, by identity.
        assert match_committed_task(shown, doc, floor) is unpruned_match(shown, doc, floor)

    def test_candidates_that_cannot_beat_the_best_are_not_compared(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(b)
            return similarity_ratio(a, b)

        monkeypatch.setattr(edits, "similarity_ratio", counting)
        shown = match_task(["a", "b", "c"])
        doc = [match_task(["x", "y"]), match_task(["a", "b", "c "]), match_task(["a", "b", "x"])]
        assert match_committed_task(shown, doc, FLOOR) is doc[1]
        assert calls == [["a", "b", "c"]]


def _replace_line(text, index, replacement):
    lines = text.splitlines()
    lines[index] = replacement
    return "\n".join(lines)


def classify(shown_text, doc_text, name="deploy app config", config=None):
    timeline = timeline_from(
        [
            ("completion", {"suggestion_id": "s1", "prompt": f"- name: {name}", "context": ""}),
            ("suggestion", suggestion_fields("s1", shown_text)),
            ("action", {"suggestion_id": "s1", "action": "accepted"}),
            ("content", {"document": doc_text}),
        ]
    )
    config = config or CONFIG
    cache = new_cache(config)
    (outcome,) = pair_outcomes(timeline, cache).outcomes
    return classify_outcome(outcome, cache)


class TestClassifyOutcome:
    def test_identical_body_fully_accepted(self):
        outcome = classify(SHOWN, doc_with("deploy app config", SHOWN))
        assert outcome.verdict.category is Category.FULLY_ACCEPTED
        assert outcome.verdict.edit_fraction == 0.0
        assert not outcome.verdict.module_changed

    def test_one_of_six_lines_minor(self):
        doc = doc_with("deploy app config", _replace_line(SHOWN, 2, "  dest: /etc/app-v2.conf"))
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.category is Category.MINOR_EDIT
        assert outcome.verdict.edit_fraction == pytest.approx(1 / 6)
        assert outcome.verdict.minor_subcategory is MinorSubcategory.VALUE_ONLY

    def test_disjoint_body_with_name_kept_is_major(self):
        other = "ansible.builtin.service:\n  enabled: true\n  daemon_reload: true\n  force: yes\n  sleep: 3\n  state: reloaded"
        outcome = classify(SHOWN, doc_with("deploy app config", other))
        assert outcome.verdict.category is Category.MAJOR_EDIT
        assert outcome.verdict.edit_fraction == 1.0

    def test_absent_task_is_deleted(self):
        outcome = classify(SHOWN, "")
        assert outcome.verdict.category is Category.DELETED_AFTER_ACCEPT
        assert outcome.verdict.committed_task is None
        assert outcome.verdict.edit_fraction is None

    def test_unparseable_document_is_unresolved(self):
        outcome = classify(SHOWN, "key: [unclosed")
        assert outcome.verdict.category is Category.UNRESOLVED
        assert outcome.verdict.doc_unparseable

    def test_threshold_is_configurable(self):
        doc = doc_with("deploy app config", _replace_line(SHOWN, 2, "  dest: /etc/app-v2.conf"))
        outcome = classify(SHOWN, doc, config=Config(minor_major_threshold=0.1))
        assert outcome.verdict.category is Category.MAJOR_EDIT

    def test_fqcn_shortening_alone(self):
        # same short module name: not module_changed, but the body did change
        doc = doc_with("deploy app config", _replace_line(SHOWN, 0, "copy:"))
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.edit_fraction > 0
        assert not outcome.verdict.module_changed
        assert outcome.verdict.module_edit_tags == {ModuleEditTag.FQCN_SHORTENED}

    def test_module_changed_minor(self):
        doc = doc_with(
            "deploy app config", _replace_line(SHOWN, 0, "ansible.builtin.template:")
        )
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.category is Category.MINOR_EDIT
        assert outcome.verdict.module_changed
        assert outcome.verdict.minor_subcategory is None
        assert outcome.verdict.module_edit_tags == {ModuleEditTag.OTHER}

    def test_middle_task_of_a_play_fully_accepted(self):
        body = "ansible.builtin.debug:\n  msg: hello"
        doc = (
            "- hosts: all\n  tasks:\n"
            "    - name: first\n      ansible.builtin.ping:\n"
            "    - name: deploy app config\n      ansible.builtin.debug:\n        msg: hello\n"
            "    - name: last\n      ansible.builtin.ping:\n"
        )
        outcome = classify(body, doc)
        assert outcome.verdict.category is Category.FULLY_ACCEPTED
        assert outcome.verdict.edit_fraction == 0.0

    def test_last_task_before_handlers_fully_accepted(self):
        doc = (
            "- hosts: all\n  tasks:\n"
            "    - name: deploy app config\n"
            + "".join(f"      {line}\n" for line in SHOWN.splitlines())
            + "  handlers:\n    - name: restart\n      ansible.builtin.service:\n"
            "        name: app\n"
        )
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.category is Category.FULLY_ACCEPTED
        assert outcome.verdict.committed_task.body_lines == SHOWN.splitlines()

    @pytest.mark.parametrize("body", ["src: &a [*a]", "src: !!python/name:os.system"])
    def test_unconstructable_document_is_unresolved(self, body):
        doc = doc_with("deploy app config", "ansible.builtin.copy:\n  " + body)
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.category is Category.UNRESOLVED
        assert outcome.verdict.doc_unparseable

    @pytest.mark.parametrize("name", ["deploy app config", "renamed"])
    def test_pair_past_the_matching_budget_is_unresolved(self, monkeypatch, name):
        # by name the edit fraction is refused, renamed the similarity scan is
        monkeypatch.setattr(gestalt, "MAX_MATCH_WORK", 10)
        doc = doc_with(name, _replace_line(SHOWN, 2, "  dest: /etc/app-v2.conf"))
        outcome = classify(SHOWN, doc)
        assert outcome.verdict.category is Category.UNRESOLVED
        assert outcome.verdict.edit_fraction is None
        assert not outcome.verdict.doc_unparseable


def options_task(module, options):
    lines = [f"{module}:"] + [f"  {k}: {v}" for k, v in options.items()]
    return parse("\n".join(lines))[0]


class TestMinorSubcategory:
    def test_value_only(self):
        shown = options_task("debug", {"msg": "a"})
        committed = options_task("debug", {"msg": "b"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.VALUE_ONLY

    def test_option_added(self):
        shown = options_task("copy", {"src": "x"})
        committed = options_task("copy", {"src": "x", "mode": "'0644'"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.OPTION_ADDED

    def test_option_removed(self):
        shown = options_task("copy", {"src": "x", "mode": "'0644'"})
        committed = options_task("copy", {"src": "x"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.OPTION_REMOVED

    def test_key_only_rename(self):
        shown = options_task("copy", {"path": "x"})
        committed = options_task("copy", {"dest": "x"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.KEY_ONLY

    def test_key_and_value(self):
        shown = options_task("copy", {"path": "x"})
        committed = options_task("copy", {"dest": "y"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.KEY_AND_VALUE

    def test_mixed(self):
        shown = options_task("copy", {"path": "x", "owner": "root"})
        committed = options_task("copy", {"dest": "x", "owner": "admin"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.MIXED
        # an added option next to a changed value
        committed = options_task("copy", {"path": "x", "owner": "admin", "mode": "'0644'"})
        assert minor_subcategory(shown, committed) is MinorSubcategory.MIXED

    def test_key_only_rename_of_a_set(self):
        shown = options_task("copy", {"a": "!!set {x, y}", "b": 1})
        committed = options_task("copy", {"e": "!!set {y, x}", "b": 1})
        assert minor_subcategory(shown, committed) is MinorSubcategory.KEY_ONLY

    def test_identical_options_is_none(self):
        shown = options_task("copy", {"src": "x"})
        committed = options_task("copy", {"src": "x"})
        assert minor_subcategory(shown, committed) is None


class TestModuleEditTags:
    def test_fqcn_shortened(self):
        shown = options_task("ansible.builtin.debug", {"msg": "a"})
        committed = options_task("debug", {"msg": "a"})
        assert module_edit_tags(shown, committed, CONFIG) == {ModuleEditTag.FQCN_SHORTENED}

    def test_command_to_shell(self):
        shown = options_task("ansible.builtin.command", {"cmd": "ls"})
        committed = options_task("ansible.builtin.shell", {"cmd": "ls"})
        assert module_edit_tags(shown, committed, CONFIG) == {ModuleEditTag.COMMAND_SHELL}

    def test_similar_module_from_config(self):
        config = Config(similar_modules=(frozenset({"yum", "dnf", "package"}),))
        shown = options_task("ansible.builtin.yum", {"name": "x"})
        committed = options_task("ansible.builtin.dnf", {"name": "x"})
        assert module_edit_tags(shown, committed, config) == {ModuleEditTag.SIMILAR_MODULE}
        assert module_edit_tags(shown, committed, CONFIG) == {ModuleEditTag.OTHER}

    def test_reorganization_via_added_directive(self):
        shown = options_task("ansible.builtin.copy", {"src": "x"})
        (committed,) = parse(
            "- ansible.builtin.file:\n    src: x\n  register: out\n"
        )
        assert module_edit_tags(shown, committed, CONFIG) == {ModuleEditTag.REORGANIZATION}

    def test_fqcn_and_reorganization_overlap(self):
        shown = options_task("ansible.builtin.debug", {"msg": "a"})
        (committed,) = parse("- debug:\n    msg: a\n  register: out\n")
        assert module_edit_tags(shown, committed, CONFIG) == {
            ModuleEditTag.FQCN_SHORTENED,
            ModuleEditTag.REORGANIZATION,
        }

    def test_other_only_when_nothing_else_fires(self):
        shown = options_task("ansible.builtin.lineinfile", {"path": "x"})
        committed = options_task("ansible.builtin.blockinfile", {"path": "x"})
        assert module_edit_tags(shown, committed, CONFIG) == {ModuleEditTag.OTHER}


class TestTaskCache:
    def test_item_memo_is_per_cache(self):
        doc = (
            "- hosts: all\n  tasks:\n"
            "    - name: t\n      takeover: true\n      debug:\n        msg: hi\n"
            "    - name: u\n      debug:\n        msg: ho\n"
        )
        custom = new_cache(Config(directive_keys=("name", "takeover")))
        default = new_cache()
        first, second = custom.parse(doc)
        assert first.directives == {"takeover": True}
        # the default keys read 'takeover' as a second module key
        with pytest.raises(NotATaskShape):
            parse(doc)
        assert default.parse(doc) is None
        assert custom._memo.items and default._memo.items
        for key, task in default._memo.items.items():
            assert custom._memo.items.get(key) is not task
        assert custom.parse(doc + "    - name: v\n      debug:\n        msg: hu\n")[1] is second

    def test_failed_lookups_keep_no_memory(self):
        """A failed lookup leaves nothing behind, however often it repeats.  A
        cache that kept an error object and raised it again would grow its
        traceback, and the frames it holds, on every lookup; the suppress keeps
        such a cache measurable."""
        texts = ["key: [unclosed\nnext: x\n", "just a sentence"]
        with pytest.raises(YamlSyntax):
            parse(texts[0])
        with pytest.raises(NotATaskShape):
            parse(texts[1])
        cache = new_cache()

        def look_up(count):
            for _ in range(count):
                for text in texts:
                    with contextlib.suppress(TaskParseError):
                        cache.parse(text)
                    with contextlib.suppress(TaskParseError):
                        cache.shown_task(text, "a name")

        tracemalloc.start()
        try:
            look_up(100)
            before = tracemalloc.get_traced_memory()[0]
            look_up(1000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 20_000  # under 5 bytes for each of the 4,000 lookups
        for text in texts:
            assert cache.parse(text) is None
            assert cache.shown_task(text, "a name") is None


class TestAnalyzeTimeline:
    def _mixed_timeline(self):
        doc_full = doc_with("task a", SHOWN)
        doc_minor = doc_with("task b", _replace_line(SHOWN, 2, "  dest: /tmp/x"))
        return timeline_from(
            [
                ("completion", {"suggestion_id": "s1", "prompt": "- name: task a", "context": ""}),
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
                ("content", {"document": doc_full, "suggestion_id": "s1"}),
                ("completion", {"suggestion_id": "s2", "prompt": "- name: task b", "context": ""}),
                ("suggestion", suggestion_fields("s2", SHOWN)),
                ("action", {"suggestion_id": "s2", "action": "accepted"}),
                ("content", {"document": doc_minor, "suggestion_id": "s2"}),
                ("suggestion", suggestion_fields("s3", SHOWN)),
                ("action", {"suggestion_id": "s3", "action": "rejected"}),
            ]
        )

    def test_categories_partition_accepted(self):
        analysis = analyze_timeline(self._mixed_timeline(), new_cache())
        categories = [o.verdict.category for o in analysis.outcomes]
        assert categories.count(Category.FULLY_ACCEPTED) == 1
        assert categories.count(Category.MINOR_EDIT) == 1
        assert categories.count(Category.REJECTED) == 1

    def test_deterministic_across_runs(self):
        timeline = self._mixed_timeline()
        first = analyze_timeline(timeline, new_cache())
        second = analyze_timeline(timeline, new_cache())

        def rows(analysis):
            return [(o.suggestion.suggestion_id, o.verdict.category, o.verdict.edit_fraction)
                    for o in analysis.outcomes]

        assert rows(first) == rows(second)


LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
TAG_CONFIG = Config(similar_modules=(frozenset({"yum", "dnf", "package"}),))


def random_mix_lines(seed):
    """Five users' interleaved outcomes.  Each pairs a suggestion text and a
    prompt with the next snapshot, all drawn from small pools: pairs repeat,
    and the pools hold renames, deletions, module changes, two-task and
    unparseable snapshots, and texts that are not one task."""
    rng = random.Random(seed)
    templates = [*edit_outcome_templates().values(), *module_tag_templates().values()]
    texts = sorted({t.suggestion_text for t in templates}) + [
        "- name: own name\n  debug:\n    msg: hi", "key: [unclosed", "two: 1\nthree: 2",
    ]
    docs = sorted({t.document for t in templates if t.document is not None})
    docs += [
        docs[1].replace("- name: ", "- name: renamed ", 1),
        docs[1] + "\n" + docs[-1],
        "key: [unclosed",
        "- name: own name\n  debug:\n    msg: ho",
    ]
    prompts = sorted({t.prompt for t in templates}) + ["- name: own name", "  -   name:   spaced  "]
    base = datetime(2023, 6, 2, 9, tzinfo=UTC)
    clocks = {f"u{i}": base for i in range(5)}
    lines = []

    def emit(user, kind, **fields):
        clocks[user] += timedelta(seconds=1)
        lines.append(json.dumps({"event_id": f"e{len(lines)}", "user_id": user,
                                 "ts": clocks[user].isoformat(), "type": kind, **fields}))

    for user in clocks:
        emit(user, "completion", suggestion_id=f"warm-{user}", prompt="- name: warm", context="")
        clocks[user] += timedelta(days=1)
    def either(value, pool, odds):
        return rng.choice(pool) if value is None or rng.random() < odds else value

    for i in range(300):
        user, sid = rng.choice(sorted(clocks)), f"s{i}"
        template = rng.choice(templates)
        if rng.random() < 0.9:
            emit(user, "completion", suggestion_id=sid, context="",
                 prompt=either(template.prompt, prompts, 0.2))
        text = either(template.suggestion_text, texts, 0.15)
        emit(user, "suggestion", suggestion_id=sid, text=text,
             lines=len(text.splitlines()), tokens=5)
        action = rng.choice(["accepted"] * 4 + ["rejected", None])
        if action is not None:
            emit(user, "action", suggestion_id=sid, action=action)
        if rng.random() < 0.8:
            emit(user, "content", document=either(template.document, docs, 0.4))
    return lines


def criterion_logs():
    """The synth criterion logs at a small scale, and random mixes, with their configs."""
    small_tags = [("fqcn", 12), ("reorg", 5), ("cmdshell", 17), ("similar", 16),
                  ("other", 29), ("fqcn_reorg", 6)]
    mix = EditMix(fully=30, minor=20, minor_module=5, major=10, deleted=15,
                  rejected=10, ignored=5, unresolved=5)
    return {
        "table": (edit_analysis_lines(mix, n_users=8), Config()),
        "module_tags": (module_tag_lines(small_tags, n_users=6), TAG_CONFIG),
        "mixed": (mixed_lines(target_events=3_000, n_users=30), Config()),
        **{f"random{seed}": (random_mix_lines(seed), TAG_CONFIG) for seed in range(3)},
    }


class TestVerdictTable:
    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_report_equals_every_outcome_classified_from_scratch(
        self, loader, tmp_path, monkeypatch
    ):
        """The verdict table changes no report byte: a fresh cache for each
        outcome classifies every one of them from scratch."""
        monkeypatch.setattr(taskparse, "_Loader", loader)
        tabled = edits.classify_outcome

        def from_scratch(outcome, cache):
            return tabled(outcome, TaskCache(cache.config))

        for name, (lines, config) in criterion_logs().items():
            log = write_log(tmp_path / f"{name}.jsonl", lines)
            with_table = render_report(run_pipeline([log], config), "json")
            with monkeypatch.context() as patched:
                patched.setattr(edits, "classify_outcome", from_scratch)
                scratch = render_report(run_pipeline([log], config), "json")
            assert with_table == scratch, name

    def test_repeated_pairs_are_matched_once(self, tmp_path, monkeypatch):
        calls = []
        real_match = edits.match_committed_task
        monkeypatch.setattr(
            edits, "match_committed_task", lambda *args: calls.append(1) or real_match(*args)
        )
        lines, config = criterion_logs()["table"]
        report = run_pipeline([write_log(tmp_path / "table.jsonl", lines)], config)
        # 80 accepted outcomes have a snapshot: one shown task, five distinct
        # snapshots (the deletion's is empty), so five pairs to match.
        assert report.acceptance.initially_accepted == 85
        assert report.acceptance.unresolved == 5
        assert len(calls) == 5

    def test_outcomes_of_one_pair_share_one_verdict(self):
        lines, config = criterion_logs()["table"]
        cache = new_cache(config)
        outcomes = [
            outcome
            for timeline in build_timelines(deduplicate(map(parse_event_line, lines)))
            for outcome in analyze_timeline(timeline, cache).outcomes
        ]
        verdicts = {}
        for outcome in outcomes:
            snapshot = outcome.snapshot
            document = None if snapshot is None else snapshot.document_text
            pair = (outcome.decision, id(outcome.shown_task), document)
            assert verdicts.setdefault(pair, outcome.verdict) is outcome.verdict
        # 100 outcomes hold 8 verdicts: the five matched pairs', and one each
        # for rejected, ignored and unresolved.
        assert len(outcomes) == 100
        assert len({id(outcome.verdict) for outcome in outcomes}) == 8

    def test_cache_from_each_config_gives_its_verdicts(self):
        """Minor under the default threshold, major under a lower one: a cache
        built from a config classifies under it, and its table, filled or
        not, gives what a fresh cache gives."""
        minor_doc = doc_with("deploy app config", _replace_line(SHOWN, 2, "  dest: /etc/v2.conf"))
        timeline = timeline_from(
            [
                ("completion", {"suggestion_id": "s1", "prompt": "- name: deploy app config",
                                "context": ""}),
                ("suggestion", suggestion_fields("s1", SHOWN)),
                ("action", {"suggestion_id": "s1", "action": "accepted"}),
                ("content", {"document": minor_doc}),
            ]
        )
        strict = Config(minor_major_threshold=0.1)
        for config, expected in ((CONFIG, Category.MINOR_EDIT), (strict, Category.MAJOR_EDIT)):
            cache = new_cache(config)
            assert cache.config is config
            (paired,) = pair_outcomes(timeline, cache).outcomes
            for _ in range(2):  # the second verdict comes from the table
                copy = SuggestionOutcome(
                    paired.suggestion, paired.shown_task, paired.decision, paired.snapshot
                )
                outcome = classify_outcome(copy, cache)
                assert outcome.verdict.category is expected
                assert outcome.verdict.edit_fraction == pytest.approx(1 / 6)
                fresh_cache = new_cache(config)
                (fresh,) = pair_outcomes(timeline, fresh_cache).outcomes
                assert outcome == classify_outcome(fresh, fresh_cache)

    def test_shown_task_is_named_once_per_text_and_prompt(self, monkeypatch):
        names = []
        monkeypatch.setattr(
            edits, "name_from_prompt", lambda prompt: names.append(prompt) or prompt[8:]
        )
        cache = new_cache()
        first = cache.shown_task(SHOWN, "- name: deploy")
        assert first.name == "deploy"
        assert cache.shown_task(SHOWN, "- name: deploy") is first
        assert names == ["- name: deploy"]
        other = cache.shown_task(SHOWN, "- name: other")
        assert other.name == "other" and other is not first
        assert cache.shown_task(SHOWN, None).name is None
        assert names == ["- name: deploy", "- name: other"]
