"""Tests of the benchmark itself.  Run: python3 -m pytest bench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import playbooks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_MIX = {"fully": 3, "minor": 2, "major": 1, "deleted": 1,
             "rename_fully": 1, "rename_minor": 1, "rejected": 2}


def small_playbooks(seed: int):
    return playbooks.playbook_lines(seed, n_users=3, user_mix=SMALL_MIX)


@pytest.fixture
def small_log(tmp_path):
    lines, planted = small_playbooks(7)
    log = tmp_path / "playbooks.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return log, planted


def _report(log) -> bytes:
    from tasklens.report import render_report, run_pipeline

    return render_report(run_pipeline([log]), "json")["report.json"]


def test_playbooks_generator_is_deterministic_per_seed():
    assert small_playbooks(3) == small_playbooks(3)
    assert small_playbooks(3)[0] != small_playbooks(4)[0]
    assert small_playbooks(3)[1] == small_playbooks(4)[1]


def test_collector_deal_is_deterministic_and_keeps_each_user_in_order():
    lines = workloads.table_lines()[:5000]
    dealt = workloads.deal_to_collectors(lines, 5)
    assert dealt == workloads.deal_to_collectors(lines, 5)
    assert dealt != workloads.deal_to_collectors(lines, 6)
    assert sorted(dealt) == sorted(lines)
    user = workloads._USER_RE.search(lines[-1]).group(1)
    assert [l for l in dealt if f'"{user}"' in l] == [l for l in lines if f'"{user}"' in l]


def test_copied_generators_match_the_package():
    synth = pytest.importorskip("tasklens.synth")
    assert workloads.table_lines() == synth.edit_analysis_lines(synth.TABLE_MIX, n_users=64)
    assert workloads.mixed_lines() == synth.mixed_lines(100_000)


def test_playbooks_report_does_not_depend_on_the_seed(tmp_path):
    reports = []
    for seed in (1, 2):
        log = tmp_path / f"pb{seed}.jsonl"
        log.write_text("\n".join(small_playbooks(seed)[0]) + "\n", encoding="utf-8")
        reports.append(_report(log))
    assert reports[0] == reports[1]


def test_traced_run_gives_the_untraced_report_and_the_planted_counts(small_log, tmp_path):
    log, planted = small_log
    untraced = run.run_child(["run", str(log)], seed=1, timeout=120)
    traced = run.run_child(["trace", str(log), str(tmp_path / "spans.json")], seed=1, timeout=120)
    assert untraced["code"] == traced["code"] == 0
    assert traced["report"] == untraced["report"]
    reference = untraced["report"].encode("utf-8")
    assert run.check_run(untraced, reference, planted) == []
    assert run.check_run(traced, reference, planted) == []

    layers = traced["layers"]
    assert layers["edits.rename_fallbacks"] == planted["renamed"]
    assert layers["edits.outcomes"] == planted["total_suggestions"]
    assert layers["trace.absent_wraps"] == 0
    self_times = sum(layers[name] for name in tracer.SELF_TIMES)
    assert self_times + layers["trace.unattributed_s"] == pytest.approx(layers["trace.wall_s"])
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) == layers["trace.spans"]


def test_tampered_report_counts_as_failed_run(small_log):
    log, planted = small_log
    good = _report(log)
    result = {"code": 0, "report": good.decode("utf-8")}
    assert run.check_run(result, good, planted) == []

    tampered = dict(result, report=result["report"].replace('"major_edits": 3', '"major_edits": 4'))
    assert tampered["report"] != result["report"]
    problems = run.check_run(tampered, good, planted)
    assert "report differs from the reference report" in problems
    assert any("major_edits" in p for p in problems)
    assert run.check_run({"code": 2, "error": "boom"}, good, planted)


def test_missing_layer_function_is_reported_absent(monkeypatch, small_log):
    import tasklens.report

    log, _ = small_log
    read_events = tasklens.report.read_events
    monkeypatch.delattr(tasklens.report, "deduplicate")
    spans = tracer.SPANS + (("events.gone", "tasklens.no_such_module", "f"),)
    trace = tracer.Tracer(spans=spans).install()
    try:
        assert set(trace.absent) == {"tasklens.report.deduplicate", "tasklens.no_such_module.f"}
        tasklens.report.read_events([log])
    finally:
        trace.uninstall()
    layers = trace.layer_metrics(wall_s=1.0)
    assert layers["trace.absent_wraps"] == 2
    assert layers["events.dedup_s"] == 0.0
    assert layers["events.read_s"] > 0.0
    assert tasklens.report.read_events is read_events
