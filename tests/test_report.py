import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml

from tasklens import taskparse
from tasklens.cli import main
from tasklens.config import Config, load_config
from tasklens.edits import Category, TaskCache, analyze_timeline
from tasklens.metrics import returning_user_cohort
from tasklens.report import (
    REPORT_FORMATS,
    UnknownFormat,
    ZeroEvents,
    ingest_window,
    render_report,
    report_to_dict,
    run_pipeline,
)
from tasklens.synth import (
    EditMix,
    MODULE_TAG_CONFIG_YAML,
    edit_analysis_lines,
    module_tag_lines,
    write_log,
)

from small_log import SMALL_MIX, small_log_lines

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, hash_seed: str = "0") -> bytes:
    """Standard output of a fresh interpreter that imports tasklens from SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=True, timeout=120
    ).stdout


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    return write_log(tmp_path_factory.mktemp("small") / "log.jsonl", small_log_lines())


@pytest.fixture(scope="module")
def small_report(small_log):
    return run_pipeline([small_log], Config())


class TestRunPipeline:
    def test_counts(self, small_report):
        acc = small_report.acceptance
        assert acc.total_suggestions == SMALL_MIX.total == 55
        assert acc.initially_accepted == SMALL_MIX.accepted == 41
        assert acc.fully_accepted == 20
        assert acc.minor_edits == 9
        assert acc.module_changed_minor == 3
        assert acc.major_edits == 4
        assert acc.deleted_after_accept == 5
        assert acc.unresolved == 3

    def test_accepted_breakdown_separates_module_changed(self, small_report):
        breakdown = report_to_dict(small_report)["accepted_breakdown"]
        assert breakdown["minor_edits"]["count"] == 6
        assert breakdown["module_changed_minor"]["count"] == 3
        assert breakdown["fully_accepted"]["count"] == 20
        assert small_report.acceptance.minor_breakdown["module_changed"] == 3

    def test_feedback_flows_through(self, small_report):
        assert small_report.feedback.total == 11
        assert small_report.feedback.negative_labels.counts == {"broken": 2}

    def test_zero_events(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ZeroEvents):
            run_pipeline([empty], Config())

    def test_window_filter_excludes_events(self, small_log):
        from datetime import date

        with pytest.raises(ZeroEvents):
            run_pipeline([small_log], Config(), window_end=date(2020, 1, 1))

    def test_one_sided_window_equals_a_cut_log(self, small_log, small_report, tmp_path):
        """A bound drops exactly the lines whose user-local day lies beyond it."""
        first, last = small_report.window
        assert first < last
        lines = small_log.read_text().splitlines()
        for bounds, day in (({"window_start": last}, last), ({"window_end": first}, first)):
            cut = write_log(tmp_path / "cut.jsonl", [
                line for line in lines if json.loads(line)["ts"][:10] == day.isoformat()
            ])
            bounded = run_pipeline([small_log], Config(), **bounds)
            assert bounded.window == (day, day)
            assert render_report(bounded, "json") == render_report(
                run_pipeline([cut], Config()), "json"
            )

    def test_every_count_reconstructible_from_log(self, small_log, small_report):
        """Independent recount of the raw JSONL, no library code."""
        by_type = {}
        users = set()
        stars = {s: 0 for s in range(1, 6)}
        with open(small_log) as handle:
            for line in handle:
                obj = json.loads(line)
                by_type[obj["type"]] = by_type.get(obj["type"], 0) + 1
                users.add(obj["user_id"])
                if obj["type"] == "feedback":
                    stars[obj["stars"]] += 1
        assert small_report.acceptance.total_suggestions == by_type["suggestion"]
        assert small_report.total_users == len(users)
        assert small_report.feedback.star_histogram == stars


class TestRecountFromVerdicts:
    """Each outcome's verdict is the row behind the report's outcome numbers:
    counting the verdicts of the returning cohort gives every count in the
    acceptance, accepted_breakdown, minor_edit_breakdown and module_edits
    sections."""

    @staticmethod
    def _recount(outcomes) -> dict:
        verdicts = [o.verdict for o in outcomes]
        categories = Counter(v.category.value for v in verdicts)
        minors = [v for v in verdicts if v.category is Category.MINOR_EDIT]
        minor = Counter(
            "module_changed" if v.module_changed
            else v.minor_subcategory.value if v.minor_subcategory else "unclassified"
            for v in minors
        )
        total = len(verdicts)
        accepted = total - categories["rejected"] - categories["ignored"]
        strong = (categories["fully_accepted"] + categories["minor_edit"]
                  - minor["module_changed"] + categories["unresolved"])
        slices = {
            "fully_accepted": categories["fully_accepted"],
            "minor_edits": categories["minor_edit"] - minor["module_changed"],
            "major_edits": categories["major_edit"],
            "deleted_after_accept": categories["deleted_after_accept"],
            "module_changed_minor": minor["module_changed"],
            "unresolved": categories["unresolved"],
        }
        return {
            "acceptance": {
                "total_suggestions": total,
                "initially_accepted": accepted,
                **slices,
                # Here minor_edits counts the module-changed minors too.
                "minor_edits": categories["minor_edit"],
                "avg_lines_per_suggestion": round(
                    sum(o.suggestion.line_count for o in outcomes) / total, 2),
                "avg_tokens_per_suggestion": round(
                    sum(o.suggestion.token_count for o in outcomes) / total, 2),
                "initial_rate": round(100.0 * accepted / total, 2),
                "strong_rate": round(100.0 * strong / total, 2),
            },
            "accepted_breakdown": Counter(slices),
            "minor_edit_breakdown": minor,
            "module_edits": {
                "outcomes": sum(1 for v in verdicts if v.module_edit_tags),
                "tags": Counter(tag.value for v in verdicts for tag in v.module_edit_tags),
            },
        }

    @staticmethod
    def _reported(doc: dict) -> dict:
        def counts(shares):
            return Counter({key: share["count"] for key, share in shares.items()})

        return {
            "acceptance": doc["acceptance"],
            "accepted_breakdown": counts(doc["accepted_breakdown"]),
            "minor_edit_breakdown": counts(doc["minor_edit_breakdown"]),
            "module_edits": {"outcomes": doc["module_edits"]["outcomes"],
                             "tags": counts(doc["module_edits"]["tags"])},
        }

    @pytest.mark.parametrize("name", ["small", "module_tags"])
    def test_counts_equal_the_report(self, name, tmp_path):
        if name == "small":
            log, config = write_log(tmp_path / "small.jsonl", small_log_lines()), Config()
        else:
            log = write_log(tmp_path / "tags.jsonl", module_tag_lines())
            (tmp_path / "tags.yaml").write_text(MODULE_TAG_CONFIG_YAML)
            config = load_config(tmp_path / "tags.yaml")
        timelines = ingest_window([log], config)[3]
        returning = returning_user_cohort(timelines)
        cache = TaskCache(config)
        outcomes = [
            outcome for timeline in timelines if timeline.user_id in returning
            for outcome in analyze_timeline(timeline, cache).outcomes
        ]
        recounted = self._recount(outcomes)
        assert recounted == self._reported(report_to_dict(run_pipeline([log], config)))
        assert recounted["minor_edit_breakdown"]
        if name == "module_tags":
            assert recounted["module_edits"]["outcomes"]


def test_report_does_not_depend_on_libyaml(small_log, small_report, monkeypatch):
    monkeypatch.setattr(taskparse, "_Loader", yaml.SafeLoader)
    pure = run_pipeline([small_log], Config())
    assert render_report(pure, "json") == render_report(small_report, "json")


class TestScaledDistribution:
    def test_one_percent_scale_matches_headline_shares(self, tmp_path):
        """Category shares at 1/100 scale stay within half a point of the
        full-scale targets."""
        mix = EditMix(
            fully=248, minor=57, minor_module=3, major=27, deleted=74, rejected=212
        )
        log = write_log(tmp_path / "scaled.jsonl", edit_analysis_lines(mix, n_users=8))
        report = run_pipeline([log], Config())
        acc = report.acceptance
        shares = {
            "fully": 100 * acc.fully_accepted / acc.initially_accepted,
            "minor": 100 * (acc.minor_edits - acc.module_changed_minor) / acc.initially_accepted,
            "major": 100 * acc.major_edits / acc.initially_accepted,
            "deleted": 100 * acc.deleted_after_accept / acc.initially_accepted,
        }
        targets = {"fully": 60.60, "minor": 13.85, "major": 6.62, "deleted": 18.16}
        for key, target in targets.items():
            assert abs(shares[key] - target) <= 0.5, (key, shares[key])


class TestTemporalRawVsDedup:
    def test_duplicates_inflate_only_raw_profile(self, tmp_path):
        lines = edit_analysis_lines(SMALL_MIX, n_users=5)
        # replay one completion line byte-identically except id and +1s
        obj = json.loads(next(l for l in lines if '"type":"completion"' in l))
        obj["event_id"] = "replay"
        obj["ts"] = obj["ts"][:18] + "9" + obj["ts"][19:]
        lines.append(json.dumps(obj))
        log = write_log(tmp_path / "dup.jsonl", lines)
        report = run_pipeline([log], Config())
        raw_total = sum(report.temporal_raw.daily_counts.values())
        dedup_total = sum(report.temporal_dedup.daily_counts.values())
        assert raw_total == dedup_total + 1
        assert report.data_quality.duplicates_removed == 1


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, small_log):
        first = render_report(run_pipeline([small_log], Config()), "json")
        second = render_report(run_pipeline([small_log], Config()), "json")
        assert first == second

    def test_report_does_not_depend_on_line_order_or_layout(self, tmp_path, capsys):
        lines = small_log_lines()

        def report(name: str, *files: str, newline: str = "\n") -> str:
            paths = []
            for index, text in enumerate(files):
                path = tmp_path / f"{name}{index}.jsonl"
                path.write_bytes(text.replace("\n", newline).encode("utf-8"))
                paths.append(str(path))
            assert main(["report", "--format", "json", "--events", *paths]) == 0
            return capsys.readouterr().out

        def log(some: list[str]) -> str:
            return "".join(line + "\n" for line in some)

        expected = report("plain", log(lines))
        shuffled = list(lines)
        random.Random(7).shuffle(shuffled)
        third = len(lines) // 3
        assert report("shuffled", log(shuffled)) == expected
        assert report("reversed", log(lines[::-1])) == expected
        assert report("split", log(lines[:third]), log(lines[third:2 * third]),
                      log(lines[2 * third:])) == expected
        assert report("blank", "\n\n".join(lines) + "\n \n") == expected
        assert report("crlf", log(lines), newline="\r\n") == expected

    def test_tied_lines_do_not_depend_on_the_file_order(self, tmp_path, capsys):
        """An accepted and a rejected action that share user_id, ts and
        event_id, one in each file: ties are ordered by kind, then by
        content, so either file order gives the same bytes."""
        lines = small_log_lines()
        accepted = next(line for line in lines if '"action":"accepted"' in line)
        a = write_log(tmp_path / "a.jsonl", lines)
        b = write_log(tmp_path / "b.jsonl", [accepted.replace('"accepted"', '"rejected"')])
        reports = []
        for order in ((a, b), (b, a)):
            assert main(["report", "--format", "json", "--events", *map(str, order)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["acceptance"]["initially_accepted"] == SMALL_MIX.accepted

    def test_report_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Enum members hash by identity, and each run's member addresses and
        string hashes differ: the module-edit tag sets, the category counts
        and the dedup keys must give the same bytes under any hash seed."""
        log = write_log(tmp_path / "tags.jsonl", module_tag_lines())
        config = tmp_path / "tags.yaml"
        config.write_text(MODULE_TAG_CONFIG_YAML)
        argv = ("-m", "tasklens.cli", "report", "--events", str(log), "--format", "json",
                "--config", str(config))
        first, second = (run_python(*argv, hash_seed=seed) for seed in ("0", "7"))
        assert first == second
        assert json.loads(first)["module_edits"]["outcomes"] == 1710


def test_setup_imports_no_dataclasses_inspect_or_csv():
    """The set-up of every run, importing the CLI and loading the default
    config, leaves out modules that only cost start-up time: records are
    built without dataclasses (which imports inspect), and csv is imported
    by the CSV renderer alone."""
    loaded = run_python("-c", (
        "import sys, tasklens.cli; tasklens.cli.load_config(None); "
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    ))
    assert loaded == b"[]\n"


class TestRendering:
    def test_json_shape_and_formatting(self, small_report):
        blob = render_report(small_report, "json")["report.json"]
        doc = json.loads(blob)
        assert doc["acceptance"]["initial_rate"] == round(
            100 * small_report.acceptance.initial_rate, 2
        )
        assert '"initial_rate": ' in blob.decode()
        assert doc["data_quality"]["unresolved_outcomes"] == 3

    def test_csv_one_file_per_section(self, small_report):
        files = render_report(small_report, "csv")
        assert {
            "summary.csv", "acceptance.csv", "accepted_breakdown.csv",
            "minor_edit_breakdown.csv", "module_edit_tags.csv", "retention.csv",
            "temporal_daily.csv", "temporal_weekday.csv", "feedback_stars.csv",
            "feedback_labels.csv", "data_quality.csv",
        } == set(files)
        acceptance = files["acceptance.csv"].decode().splitlines()
        assert acceptance[0] == "metric,value"
        assert any(row.startswith("total_suggestions,55") for row in acceptance)

    def test_table_renders_sections(self, small_report):
        text = render_report(small_report, "table")["report.txt"].decode()
        assert "Acceptance (returning-user cohort)" in text
        assert "Retention" in text
        assert "Data quality" in text

    def test_renders_match_golden_files(self, small_report):
        """Every file of every format, byte for byte, against the renders of
        this log kept in tests/golden."""
        rendered = {}
        for fmt in REPORT_FORMATS:
            rendered.update(render_report(small_report, fmt))
        assert rendered == {path.name: path.read_bytes() for path in GOLDEN.iterdir()}

    def test_unknown_format(self, small_report):
        with pytest.raises(UnknownFormat):
            render_report(small_report, "xml")

    def test_report_dict_is_json_stable(self, small_report):
        doc1 = json.dumps(report_to_dict(small_report))
        doc2 = json.dumps(report_to_dict(small_report))
        assert doc1 == doc2


class TestCli:
    def test_ingest(self, small_log, capsys):
        assert main(["ingest", "--events", str(small_log)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "duplicates" in out

    def test_ingest_window_excluding_every_event_is_data_error(self, small_log, capsys):
        assert main(["ingest", "--events", str(small_log), "--window-start", "2030-01-01"]) == 2
        assert "events           0" in capsys.readouterr().out

    def test_ingest_one_day_window_equals_a_cut_log(self, small_log, tmp_path, capsys):
        day = json.loads(small_log.read_text().splitlines()[-1])["ts"][:10]
        cut = write_log(tmp_path / "cut.jsonl", [
            line for line in small_log.read_text().splitlines()
            if json.loads(line)["ts"][:10] == day
        ])
        assert main(["ingest", "--events", str(cut)]) == 0
        expected = capsys.readouterr().out
        assert main([
            "ingest", "--events", str(small_log), "--window-start", day, "--window-end", day
        ]) == 0
        windowed = capsys.readouterr().out
        assert windowed == expected
        assert "events           0" not in windowed

    def test_analyze_prints_table(self, small_log, capsys):
        assert main(["analyze", "--events", str(small_log)]) == 0
        assert "Acceptance" in capsys.readouterr().out

    def test_report_json_stdout(self, small_log, capsys):
        assert main(["report", "--events", str(small_log), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["acceptance"]["total_suggestions"] == 55

    def test_report_csv_to_dir(self, small_log, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(
            ["report", "--events", str(small_log), "--format", "csv", "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "acceptance.csv").exists()

    def test_report_csv_without_out_is_usage_error(self, small_log):
        with pytest.raises(SystemExit) as err:
            main(["report", "--events", str(small_log), "--format", "csv"])
        assert err.value.code == 1

    def test_report_csv_without_out_is_checked_before_the_run(self):
        with pytest.raises(SystemExit) as err:
            main(["report", "--events", "/nonexistent.jsonl", "--format", "csv"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["ingest", "analyze", "report"])
    def test_inverted_window_is_usage_error_before_any_log_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--events", "/nonexistent.jsonl",
                  "--window-start", "2023-06-10", "--window-end", "2023-06-01"])
        assert err.value.code == 1
        assert "--window-start 2023-06-10 is after --window-end 2023-06-01" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    @pytest.mark.parametrize("day", [
        "20230601", "2023-W22-4", "2023-152", "2023-06-01xyz", "2023-06-01T08:00:00",
        "2023-6-1", "2023-02-30", "\uff12\uff10\uff12\uff13-06-01", " 2023-06-01",
    ])
    def test_window_date_other_than_yyyy_mm_dd_is_usage_error(self, small_log, flag, day, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ingest", "--events", str(small_log), flag, day])
        assert err.value.code == 1
        assert "not a YYYY-MM-DD date" in capsys.readouterr().err

    def test_missing_events_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["ingest", "analyze", "report"])
    def test_missing_file_is_data_error(self, command, capsys):
        assert main([command, "--events", "/nonexistent.jsonl"]) == 2
        assert "no such file: /nonexistent.jsonl" in capsys.readouterr().err

    def test_hostile_lines_are_counted_not_fatal(self, small_log, tmp_path, capsys):
        log = tmp_path / "hostile.jsonl"
        log.write_bytes(
            small_log.read_bytes()
            + b"[" * 100_000 + b"]" * 100_000 + b"\n"
            + b'{"event_id": "x\xff", "user_id": "u"}\n'
            # lone surrogates, once in a rendered label and once in YAML input
            + b'{"event_id": "f", "user_id": "fb", "ts": "2023-06-01T08:00:00Z",'
            b' "type": "feedback", "stars": 2, "comment": "c", "label": "bad\\udc80"}\n'
            + b'{"event_id": "s", "user_id": "u00000", "ts": "2023-06-01T09:00:00Z",'
            b' "type": "suggestion", "suggestion_id": "sx", "text": "- name: x\\udc80",'
            b' "lines": 1, "tokens": 3}\n'
            # a type that is not a string
            + b'{"event_id": "t1", "user_id": "u", "ts": "2023-06-01T09:00:00Z", "type": [1]}\n'
            + b'{"event_id": "t2", "user_id": "u", "ts": "2023-06-01T09:00:00Z", "type": {}}\n'
        )
        assert main(["report", "--events", str(log), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["data_quality"]["malformed_lines"] == 6
        assert main(["analyze", "--events", str(log)]) == 0
        csv_dir = tmp_path / "csv"
        assert main(["report", "--events", str(log), "--format", "csv", "--out", str(csv_dir)]) == 0

    def test_alias_doubling_chain_is_unparseable_not_slow(self, tmp_path, capsys):
        chain = ", ".join(
            ["&a0 [x, x]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, 21)]
        )
        hostile = f"- name: chain\n  copy:\n    src: [{chain}]\n"
        plain = "- name: plain\n  copy:\n    src: a\n"
        rows = [
            ("2023-06-01T09:00:00Z", "completion", {"suggestion_id": "w", "prompt": "w", "context": ""}),
            # the chain in the suggestion, and a minor edit of it committed
            ("2023-06-02T09:00:00Z", "suggestion",
             {"suggestion_id": "s1", "text": hostile, "lines": 3, "tokens": 9}),
            ("2023-06-02T09:00:01Z", "action", {"suggestion_id": "s1", "action": "accepted"}),
            ("2023-06-02T09:00:02Z", "content", {"document": hostile + "    mode: '0644'\n"}),
            # a plain suggestion committed into a document holding the chain
            ("2023-06-02T09:01:00Z", "suggestion",
             {"suggestion_id": "s2", "text": plain, "lines": 3, "tokens": 9}),
            ("2023-06-02T09:01:01Z", "action", {"suggestion_id": "s2", "action": "accepted"}),
            ("2023-06-02T09:01:02Z", "content", {"document": hostile + plain}),
        ]
        log = tmp_path / "chain.jsonl"
        log.write_text(
            "".join(
                json.dumps({"event_id": f"e{i}", "user_id": "u1", "ts": ts, "type": kind, **fields}) + "\n"
                for i, (ts, kind, fields) in enumerate(rows)
            )
        )
        started = time.perf_counter()
        assert main(["report", "--events", str(log), "--format", "json"]) == 0
        assert time.perf_counter() - started < 1.0
        quality = json.loads(capsys.readouterr().out)["data_quality"]
        assert quality["unparseable_suggestions"] == 1
        assert quality["unparseable_documents"] == 1

    @staticmethod
    def _report_one_edit(tmp_path, capsys, shown, committed):
        """`report` on one accepted task ``shown``, committed as ``committed``; (report, seconds)."""
        rows = [
            ("2023-06-01T09:00:00Z", "completion", {"suggestion_id": "w", "prompt": "w", "context": ""}),
            ("2023-06-02T09:00:00Z", "suggestion",
             {"suggestion_id": "s1", "text": shown, "lines": len(shown.splitlines()), "tokens": 9}),
            ("2023-06-02T09:00:01Z", "action", {"suggestion_id": "s1", "action": "accepted"}),
            ("2023-06-02T09:00:02Z", "content", {"document": committed}),
        ]
        log = tmp_path / "big.jsonl"
        log.write_text(
            "".join(
                json.dumps({"event_id": f"e{i}", "user_id": "u1", "ts": ts, "type": kind, **fields}) + "\n"
                for i, (ts, kind, fields) in enumerate(rows)
            )
        )
        started = time.perf_counter()
        assert main(["report", "--events", str(log), "--format", "json"]) == 0
        elapsed = time.perf_counter() - started
        return json.loads(capsys.readouterr().out), elapsed

    @staticmethod
    def _msg_list(items):
        return "- name: big\n  debug:\n    msg:\n" + "".join(f"      - {x}\n" for x in items)

    def test_large_task_edited_on_every_other_line_is_fast(self, tmp_path, capsys):
        shown = [f"line {i}" for i in range(1000)]
        committed = [x if i % 2 else f"edited {i}" for i, x in enumerate(shown)]
        report, elapsed = self._report_one_edit(
            tmp_path, capsys, self._msg_list(shown), self._msg_list(committed)
        )
        assert elapsed < 2.0
        # 500 of 1,002 body lines edited: the "debug:" and "msg:" lines match too
        assert report["acceptance"]["minor_edits"] == 1

    def test_pair_past_the_matching_budget_is_unresolved_not_slow(self, tmp_path, capsys):
        shown = self._msg_list(["x"] * 2000)
        committed = self._msg_list(["x" if i % 3 else "y" for i in range(2000)])
        baseline, _ = self._report_one_edit(tmp_path, capsys, shown, shown)
        report, elapsed = self._report_one_edit(tmp_path, capsys, shown, committed)
        assert elapsed < 2.0

        def keys(value):
            if isinstance(value, dict):
                return {k: keys(v) for k, v in value.items()}
            return None

        assert keys(report) == keys(baseline)
        assert baseline["acceptance"]["fully_accepted"] == 1
        assert report["acceptance"]["fully_accepted"] == 0
        assert report["acceptance"]["unresolved"] == baseline["acceptance"]["unresolved"] + 1
        assert (report["data_quality"]["unresolved_outcomes"]
                == baseline["data_quality"]["unresolved_outcomes"] + 1)

    def test_option_keys_that_read_alike_do_not_crash(self, tmp_path, capsys):
        shown = '- name: collide\n  debug:\n    msg: {1: ~, "1": x}\n    var: a\n    verbosity: 1\n'
        committed = shown.replace("verbosity: 1", "verbosity: 2")
        report, _ = self._report_one_edit(tmp_path, capsys, shown, committed)
        assert report["acceptance"]["minor_edits"] == 1
        assert report["minor_edit_breakdown"]["value_only"]["count"] == 1

    def test_empty_log_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", "--events", str(empty)]) == 2

    def test_config_flag(self, small_log, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MODULE_TAG_CONFIG_YAML)
        assert main(["analyze", "--events", str(small_log), "--config", str(cfg)]) == 0

    def test_bad_config_is_data_error(self, small_log, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("minor_major_threshold: 7\n")
        assert main(["analyze", "--events", str(small_log), "--config", str(cfg)]) == 2

    def test_config_value_pyyaml_cannot_build_is_data_error(self, small_log, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("retention_horizon: !!int \n")
        assert main(["report", "--events", str(small_log), "--config", str(cfg)]) == 2
        assert "config key '<file>'" in capsys.readouterr().err

    def test_suggestion_value_pyyaml_cannot_build_is_unparseable(
        self, small_log, small_report, tmp_path, capsys
    ):
        log = tmp_path / "tagged.jsonl"
        log.write_bytes(
            small_log.read_bytes()
            + b'{"event_id": "s", "user_id": "u00000", "ts": "2023-06-01T09:00:00Z",'
            b' "type": "suggestion", "suggestion_id": "sx",'
            b' "text": "- name: a\\n  debug: !!int \\n", "lines": 2, "tokens": 3}\n'
        )
        assert main(["report", "--events", str(log), "--format", "json"]) == 0
        quality = json.loads(capsys.readouterr().out)["data_quality"]
        assert (quality["unparseable_suggestions"]
                == small_report.data_quality.unparseable_suggestions + 1)

    def test_window_flags(self, small_log, capsys):
        assert main(
            ["analyze", "--events", str(small_log),
             "--window-start", "2023-05-01", "--window-end", "2023-12-31"]
        ) == 0

    def test_workers_flag(self, small_log, capsys):
        with pytest.raises(SystemExit) as err:
            main(["report", "--workers", "2", "--events", str(small_log)])
        assert err.value.code == 1
