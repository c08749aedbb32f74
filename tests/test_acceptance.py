"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each."""

import json
import random
import time
from datetime import date

import pytest
import yaml

from tasklens import taskparse
from tasklens.config import Config, load_config
from tasklens.events import build_timelines, deduplicate, read_events
from tasklens.gestalt import matching_blocks, similarity_ratio
from tasklens.metrics import retention_curve, returning_user_cohort
from tasklens.report import render_report, run_pipeline
from tasklens.synth import (
    MODULE_TAG_CONFIG_YAML,
    TABLE_MIX,
    cohort_lines,
    edit_analysis_lines,
    feedback_lines,
    mixed_lines,
    module_tag_lines,
    retention_lines,
    write_log,
)

from gestalt_oracle import brute_blocks


@pytest.fixture
def check(capsys):
    """Print the criterion verdict straight to the terminal, then assert."""

    def _check(name: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        assert ok, f"{name} failed: {detail}"

    return _check


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_1_table_identity(workdir, check):
    """Planted edit-analysis log reproduces the headline table arithmetic."""
    log = write_log(workdir / "table.jsonl", edit_analysis_lines(TABLE_MIX, n_users=64))

    started = time.perf_counter()
    report = run_pipeline([log], Config())
    blob = render_report(report, "json")["report.json"]
    elapsed = time.perf_counter() - started

    acc = report.acceptance
    counts = (
        acc.total_suggestions, acc.initially_accepted, acc.fully_accepted,
        acc.minor_edits - acc.module_changed_minor, acc.major_edits,
        acc.deleted_after_accept, acc.module_changed_minor,
    )
    expected = (62099, 40938, 24811, 5672, 2713, 7436, 306)
    initial = 100 * acc.initial_rate
    strong = 100 * acc.strong_rate
    shares = [
        100 * acc.fully_accepted / acc.initially_accepted,
        100 * (acc.minor_edits - acc.module_changed_minor) / acc.initially_accepted,
        100 * acc.major_edits / acc.initially_accepted,
        100 * acc.deleted_after_accept / acc.initially_accepted,
    ]
    targets = (60.60, 13.85, 6.62, 18.16)

    ok = (
        counts == expected
        and abs(initial - 65.92) <= 0.02
        and 49.08 <= strong <= 49.10
        and all(abs(s - t) <= 0.02 for s, t in zip(shares, targets))
        and b'"initial_rate": 65.92' in blob
        and elapsed < 5.0
    )
    check(
        "1 table-identity",
        ok,
        f"counts={counts} initial={initial:.4f}% strong={strong:.4f}% "
        f"shares={[round(s, 4) for s in shares]} runtime={elapsed:.2f}s",
    )


def test_criterion_2_module_tag_identity(workdir, check):
    """Planted module-edit log reproduces the module-edit tag shares."""
    log = write_log(workdir / "tags.jsonl", module_tag_lines())
    config_path = workdir / "tags.yaml"
    config_path.write_text(MODULE_TAG_CONFIG_YAML)
    report = run_pipeline([log], load_config(config_path))

    total = report.acceptance.module_edited
    counts = report.acceptance.module_edit_tags
    targets = {
        "fqcn_shortened": (346, 20.2),
        "reorganization": (211, 12.3),
        "command_shell": (352, 20.6),
        "similar_module": (336, 19.6),
        "other": (586, 34.2),
    }
    shares = {tag: 100 * counts[tag] / total for tag in targets}
    ok = total == 1710 and all(
        counts[tag] == count and abs(shares[tag] - share) <= 0.1
        for tag, (count, share) in targets.items()
    )
    check(
        "2 module-tag-identity",
        ok,
        f"outcomes={total} shares={{{', '.join(f'{t}={shares[t]:.2f}' for t in targets)}}}",
    )


def test_criterion_3_gestalt_oracle_equivalence(check):
    """10,000 random pairs agree exactly with the brute-force oracle."""
    rng = random.Random(20230415)
    pairs = 10_000
    started = time.perf_counter()
    mismatches = 0
    for _ in range(pairs):
        alphabet = rng.randrange(1, 5)
        a = [rng.randrange(alphabet) for _ in range(rng.randrange(13))]
        b = [rng.randrange(alphabet) for _ in range(rng.randrange(13))]
        got = [tuple(blk) for blk in matching_blocks(a, b)]
        want = brute_blocks(a, b)
        matched = sum(length for (_, _, length) in want)
        total = len(a) + len(b)
        want_ratio = 1.0 if total == 0 else 2.0 * matched / total
        if got != want or similarity_ratio(a, b) != want_ratio:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    check(
        "3 gestalt-oracle",
        ok,
        f"pairs={pairs} mismatches={mismatches} runtime={elapsed:.1f}s",
    )


def test_criterion_4_retention_properties(workdir, check):
    """Day 0 is 100%; planted day-1 share exact; duplication invariance."""
    log = write_log(workdir / "retention.jsonl", retention_lines(10_000, 4_479))
    ingest = read_events([log])
    timelines = build_timelines(deduplicate(ingest.events))
    window_end = date(2023, 7, 10)
    curve = retention_curve(timelines, 30, window_end)

    day0 = curve.points[0].percentage
    day1 = curve.points[1].percentage

    # k-fold duplication: same events under k fresh user ids per user
    k = 3
    duplicated = []
    for line in retention_lines(10_000, 4_479):
        obj = json.loads(line)
        for fold in range(k):
            clone = dict(obj)
            clone["user_id"] = f"{obj['user_id']}-fold{fold}"
            clone["event_id"] = f"{obj['event_id']}-fold{fold}"
            clone["suggestion_id"] = f"{obj['suggestion_id']}-fold{fold}"
            duplicated.append(json.dumps(clone))
    folded_log = write_log(workdir / "retention-folded.jsonl", duplicated)
    folded = build_timelines(deduplicate(read_events([folded_log]).events))
    folded_curve = retention_curve(folded, 30, window_end)

    ok = (
        day0 == 100.0
        and day1 == 44.79
        and [p.percentage for p in curve.points]
        == [p.percentage for p in folded_curve.points]
    )
    check("4 retention-properties", ok, f"day0={day0} day1={day1} k={k}-fold invariant")


def test_criterion_5_cohort_identity(workdir, check):
    """10,696 users with 3,910 returning report a 36.56% returning share."""
    log = write_log(workdir / "cohort.jsonl", cohort_lines(10_696, 3_910))
    report = run_pipeline([log], Config())
    share = 100 * report.returning_users / report.total_users
    cohort = returning_user_cohort(build_timelines(deduplicate(read_events([log]).events)))
    ok = (
        report.total_users == 10_696
        and report.returning_users == len(cohort) == 3_910
        and abs(share - 36.56) <= 0.01
    )
    check("5 cohort-identity", ok, f"users={report.total_users} share={share:.4f}%")


def test_criterion_6_feedback_identities(workdir, check):
    """Planted label and star fixtures reproduce the published shares."""
    from tasklens.feedback import summarize_feedback

    stars_log = write_log(
        workdir / "stars.jsonl",
        feedback_lines(star_counts={5: 285, 4: 285, 3: 158, 2: 136, 1: 136}),
    )
    star_summary = summarize_feedback(read_events([stars_log]).events)

    labels_log = write_log(
        workdir / "labels.jsonl",
        feedback_lines(
            negative_labels={
                "cannot_get_to_work": 6649, "poor_suggestions": 1571,
                "bad_experience": 579, "not_informative": 1204,
            },
            positive_labels={
                "productivity": 427, "accuracy": 337, "ease_of_use": 197, "general": 39,
            },
        ),
    )
    label_summary = summarize_feedback(read_events([labels_log]).events)

    neg = {k: 100 * v for k, v in label_summary.negative_labels.shares.items()}
    pos = {k: 100 * v for k, v in label_summary.positive_labels.shares.items()}
    star_split = (
        100 * star_summary.satisfied_share,
        100 * star_summary.neutral_share,
        100 * star_summary.dissatisfied_share,
    )

    neg_targets = {
        "cannot_get_to_work": 66.49, "poor_suggestions": 15.71,
        "bad_experience": 5.79, "not_informative": 12.04,
    }
    pos_targets = {
        "productivity": 42.7, "accuracy": 33.7, "ease_of_use": 19.7, "general": 3.9,
    }
    ok = (
        all(abs(neg[k] - t) <= 0.05 for k, t in neg_targets.items())
        and all(abs(pos[k] - t) <= 0.05 for k, t in pos_targets.items())
        and all(abs(s - t) <= 0.05 for s, t in zip(star_split, (57.0, 15.8, 27.2)))
    )
    check(
        "6 feedback-identities",
        ok,
        f"stars={tuple(round(s, 3) for s in star_split)} "
        f"neg={[round(neg[k], 3) for k in neg_targets]} "
        f"pos={[round(pos[k], 3) for k in pos_targets]}",
    )


def test_criterion_7_determinism_and_scale(workdir, check):
    """100k-event log analyzed in <10s; repeated runs byte-identical."""
    lines = mixed_lines(target_events=100_000)
    log = write_log(workdir / "mixed.jsonl", lines)

    started = time.perf_counter()
    first = render_report(run_pipeline([log], Config()), "json")["report.json"]
    elapsed = time.perf_counter() - started

    second = render_report(run_pipeline([log], Config()), "json")["report.json"]

    ok = len(lines) >= 100_000 and elapsed < 10.0 and first == second
    check(
        "7 determinism-and-scale",
        ok,
        f"events={len(lines)} runtime={elapsed:.2f}s repeat=={first == second}",
    )


@pytest.mark.parametrize("log_name", ["tags", "mixed"])
def test_reports_do_not_depend_on_libyaml(workdir, monkeypatch, log_name):
    """The criterion-2 log with its config and the criterion-7 log give the
    same JSON report bytes under the pure-Python loader as under the default."""
    if log_name == "tags":
        log = write_log(workdir / "tags-loader.jsonl", module_tag_lines())
        config_path = workdir / "tags-loader.yaml"
        config_path.write_text(MODULE_TAG_CONFIG_YAML)
        config = load_config(config_path)
    else:
        log = write_log(workdir / "mixed-loader.jsonl", mixed_lines(target_events=100_000))
        config = Config()
    default = render_report(run_pipeline([log], config), "json")
    monkeypatch.setattr(taskparse, "_Loader", yaml.SafeLoader)
    assert render_report(run_pipeline([log], config), "json") == default
