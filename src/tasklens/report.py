"""Pipeline orchestration and report rendering.

ingest_window reads JSONL logs, cuts them to the window, deduplicates and builds
timelines.  run_pipeline then restricts edit analysis to the returning-user
cohort (users active on 2+ days), and aggregates every analysis into one
AnalysisReport.  Rendering is strictly
deterministic: stable key order, percentages at two decimals, raw counts
always alongside so no precision is lost.
"""

from __future__ import annotations

import io
import json
from datetime import date
from pathlib import Path
from typing import Iterable, NamedTuple

from .config import Config
from .edits import TaskCache, analyze_timeline
from .events import build_timelines, collector_paused, deduplicate, read_events
from .feedback import FeedbackSummary, summarize_feedback
from .metrics import (
    AcceptanceSummary,
    RetentionCurve,
    TemporalProfile,
    acceptance_summary,
    retention_curve,
    returning_user_cohort,
    temporal_profile,
)

REPORT_FORMATS = ("json", "csv", "table")


class ZeroEvents(ValueError):
    pass


class UnknownFormat(ValueError):
    pass


class DataQuality(NamedTuple):
    malformed_lines: int
    duplicates_removed: int
    orphan_actions: int
    unresolved_outcomes: int
    unparseable_suggestions: int
    unparseable_documents: int


class AnalysisReport(NamedTuple):
    window: tuple[date, date]
    total_users: int
    returning_users: int
    acceptance: AcceptanceSummary
    retention: RetentionCurve
    temporal_raw: TemporalProfile
    temporal_dedup: TemporalProfile
    feedback: FeedbackSummary
    data_quality: DataQuality


def ingest_window(
    event_paths: Iterable[str | Path],
    config: Config,
    window_start: date | None = None,
    window_end: date | None = None,
) -> tuple[list, int, list, list]:
    """(events inside the window, malformed lines, deduplicated events, timelines):
    the front half of run_pipeline and all of the ``ingest`` command.  The three
    steps resolve in this module, where ``bench/tracer.py`` wraps them."""
    ingest = read_events(event_paths)
    events = ingest.events
    if window_start or window_end:
        first, last = window_start or date.min, window_end or date.max
        events = [e for e in events if first <= e.day <= last]
    deduped = deduplicate(events, config.dedup_window_seconds)
    return events, ingest.malformed_lines, deduped, build_timelines(deduped)


@collector_paused()
def run_pipeline(
    event_paths: Iterable[str | Path],
    config: Config | None = None,
    window_start: date | None = None,
    window_end: date | None = None,
) -> AnalysisReport:
    """Full analysis over one or more JSONL logs.

    Identical inputs and config produce byte-identical rendered reports;
    per-user work runs in user-id order.  The cyclic garbage collector is
    paused for the call (see ``collector_paused``).
    """
    config = config or Config()
    events, malformed, deduped, timelines = ingest_window(
        event_paths, config, window_start, window_end
    )
    if not events:
        raise ZeroEvents("no parseable events in the analysis window")

    days = {e.day for e in events}
    window = (window_start or min(days), window_end or max(days))

    returning = returning_user_cohort(timelines)

    cache = TaskCache(config)
    analyses = [analyze_timeline(t, cache) for t in timelines if t.user_id in returning]
    summary = acceptance_summary(o for analysis in analyses for o in analysis.outcomes)
    return AnalysisReport(
        window=window,
        total_users=len(timelines),
        returning_users=len(returning),
        acceptance=summary,
        retention=retention_curve(timelines, config.retention_horizon, window[1]),
        temporal_raw=temporal_profile(events, window),
        temporal_dedup=temporal_profile(deduped, window),
        feedback=summarize_feedback(deduped),
        data_quality=DataQuality(
            malformed_lines=malformed,
            duplicates_removed=len(events) - len(deduped),
            orphan_actions=sum(a.orphan_actions for a in analyses),
            unresolved_outcomes=summary.unresolved,
            unparseable_suggestions=sum(a.unparseable_suggestions for a in analyses),
            unparseable_documents=summary.unparseable_documents,
        ),
    )


def _pct(numerator: float, denominator: float) -> float:
    return round(100.0 * numerator / denominator, 2) if denominator else 0.0


def _share_map(counts: dict[str, int], denominator: int) -> dict[str, dict]:
    return {
        key: {"count": count, "share": _pct(count, denominator)}
        for key, count in counts.items()
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """The canonical, deterministic dict form behind every render format."""
    acc = report.acceptance
    retention = report.retention
    return {
        "window": {"start": report.window[0].isoformat(), "end": report.window[1].isoformat()},
        "cohort": "returning_users",
        "users": {
            "total": report.total_users,
            "returning": report.returning_users,
            "returning_share": _pct(report.returning_users, report.total_users),
        },
        "acceptance": {
            "total_suggestions": acc.total_suggestions,
            "initially_accepted": acc.initially_accepted,
            "fully_accepted": acc.fully_accepted,
            "minor_edits": acc.minor_edits,
            "major_edits": acc.major_edits,
            "deleted_after_accept": acc.deleted_after_accept,
            "module_changed_minor": acc.module_changed_minor,
            "unresolved": acc.unresolved,
            "avg_lines_per_suggestion": round(acc.avg_lines_per_suggestion, 2),
            "avg_tokens_per_suggestion": round(acc.avg_tokens_per_suggestion, 2),
            "initial_rate": round(100.0 * acc.initial_rate, 2),
            "strong_rate": round(100.0 * acc.strong_rate, 2),
        },
        # Disjoint slices over accepted suggestions: the minor slice excludes
        # module-changed minors, which get their own slice.
        "accepted_breakdown": _share_map(
            {
                "fully_accepted": acc.fully_accepted,
                "minor_edits": acc.minor_edits - acc.module_changed_minor,
                "major_edits": acc.major_edits,
                "deleted_after_accept": acc.deleted_after_accept,
                "module_changed_minor": acc.module_changed_minor,
                "unresolved": acc.unresolved,
            },
            acc.initially_accepted,
        ),
        "minor_edit_breakdown": _share_map(acc.minor_breakdown, acc.minor_edits),
        "module_edits": {
            "outcomes": acc.module_edited,
            "tags": _share_map(acc.module_edit_tags, acc.module_edited),
        },
        "retention": {
            "window_end": retention.window_end.isoformat(),
            "days": [
                {
                    "day": p.day,
                    "eligible": p.eligible_users,
                    "returned": p.returned_users,
                    "percentage": round(p.percentage, 2),
                }
                for p in retention.points
            ],
        },
        "temporal": {
            "raw": _temporal_dict(report.temporal_raw),
            "deduplicated": _temporal_dict(report.temporal_dedup),
        },
        "feedback": _feedback_dict(report.feedback),
        "data_quality": report.data_quality._asdict(),
    }


def _temporal_dict(profile: TemporalProfile) -> dict:
    return {
        "daily": {d.isoformat(): c for d, c in profile.daily_counts.items()},
        "weekday_means": {name: round(mean, 2) for name, mean in profile.weekday_means.items()},
    }


def _feedback_dict(feedback: FeedbackSummary) -> dict:
    return {
        "total": feedback.total,
        "stars": {str(s): feedback.star_histogram[s] for s in range(1, 6)},
        "satisfied_share": round(100.0 * feedback.satisfied_share, 2),
        "neutral_share": round(100.0 * feedback.neutral_share, 2),
        "dissatisfied_share": round(100.0 * feedback.dissatisfied_share, 2),
        "positive_labels": _labels_dict(feedback.positive_labels),
        "negative_labels": _labels_dict(feedback.negative_labels),
    }


def _labels_dict(dist) -> dict:
    return {
        "labeled": dist.labeled,
        "unlabeled": dist.unlabeled,
        "shares": {
            label: {"count": dist.counts[label], "share": round(100.0 * dist.shares[label], 2)}
            for label in dist.counts
        },
    }


def render_report(report: AnalysisReport, fmt: str) -> dict[str, bytes]:
    """Render to named files: json and table are single files, csv one per section."""
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
        return {"report.json": text.encode("utf-8")}
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "table":
        return {"report.txt": _render_table(report).encode("utf-8")}
    raise UnknownFormat(f"unknown report format: {fmt!r} (expected one of {REPORT_FORMATS})")


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    import csv  # here, so that JSON and table runs do not pay for the import

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _render_csv(report: AnalysisReport) -> dict[str, bytes]:
    doc = report_to_dict(report)
    files: dict[str, bytes] = {}

    summary_rows = [
        ["window_start", doc["window"]["start"]],
        ["window_end", doc["window"]["end"]],
        ["total_users", doc["users"]["total"]],
        ["returning_users", doc["users"]["returning"]],
        ["returning_share", doc["users"]["returning_share"]],
    ]
    files["summary.csv"] = _csv_bytes(["metric", "value"], summary_rows)
    files["acceptance.csv"] = _csv_bytes(
        ["metric", "value"], [[k, v] for k, v in doc["acceptance"].items()]
    )
    files["accepted_breakdown.csv"] = _csv_bytes(
        ["category", "count", "share_pct"],
        [[k, v["count"], v["share"]] for k, v in doc["accepted_breakdown"].items()],
    )
    files["minor_edit_breakdown.csv"] = _csv_bytes(
        ["kind", "count", "share_pct"],
        [[k, v["count"], v["share"]] for k, v in doc["minor_edit_breakdown"].items()],
    )
    files["module_edit_tags.csv"] = _csv_bytes(
        ["tag", "count", "share_pct"],
        [[k, v["count"], v["share"]] for k, v in doc["module_edits"]["tags"].items()],
    )
    files["retention.csv"] = _csv_bytes(
        ["day", "eligible_users", "returned_users", "percentage"],
        [[d["day"], d["eligible"], d["returned"], d["percentage"]] for d in doc["retention"]["days"]],
    )
    raw_daily = doc["temporal"]["raw"]["daily"]
    dedup_daily = doc["temporal"]["deduplicated"]["daily"]
    all_days = sorted(set(raw_daily) | set(dedup_daily))
    files["temporal_daily.csv"] = _csv_bytes(
        ["date", "completions_raw", "completions_deduplicated"],
        [[d, raw_daily.get(d, 0), dedup_daily.get(d, 0)] for d in all_days],
    )
    files["temporal_weekday.csv"] = _csv_bytes(
        ["weekday", "mean_raw", "mean_deduplicated"],
        [
            [name, doc["temporal"]["raw"]["weekday_means"][name],
             doc["temporal"]["deduplicated"]["weekday_means"][name]]
            for name in doc["temporal"]["raw"]["weekday_means"]
        ],
    )
    feedback_rows = [[s, c] for s, c in doc["feedback"]["stars"].items()]
    files["feedback_stars.csv"] = _csv_bytes(["stars", "count"], feedback_rows)
    label_rows = []
    for polarity in ("negative", "positive"):
        for label, entry in doc["feedback"][f"{polarity}_labels"]["shares"].items():
            label_rows.append([polarity, label, entry["count"], entry["share"]])
    files["feedback_labels.csv"] = _csv_bytes(
        ["polarity", "label", "count", "share_pct"], label_rows
    )
    files["data_quality.csv"] = _csv_bytes(
        ["metric", "value"], [[k, v] for k, v in doc["data_quality"].items()]
    )
    return files


def _render_table(report: AnalysisReport) -> str:
    doc = report_to_dict(report)
    out: list[str] = []

    def heading(title: str):
        out.append(title)
        out.append("-" * len(title))

    def kv_block(pairs):
        width = max(len(k) for k, _ in pairs)
        for key, value in pairs:
            out.append(f"  {key:<{width}}  {value}")
        out.append("")

    heading("Analysis window")
    kv_block(list(doc["window"].items()))

    heading("Users")
    kv_block(
        [
            ("total", doc["users"]["total"]),
            ("returning", doc["users"]["returning"]),
            ("returning share", f"{doc['users']['returning_share']}%"),
        ]
    )

    heading("Acceptance (returning-user cohort)")
    acc = doc["acceptance"]
    kv_block(
        [
            ("total suggestions", acc["total_suggestions"]),
            ("initially accepted", acc["initially_accepted"]),
            ("avg lines/suggestion", acc["avg_lines_per_suggestion"]),
            ("avg tokens/suggestion", acc["avg_tokens_per_suggestion"]),
            ("initial rate", f"{acc['initial_rate']}%"),
            ("strong rate", f"{acc['strong_rate']}%"),
        ]
    )

    heading("Accepted-suggestion breakdown")
    for key, entry in doc["accepted_breakdown"].items():
        out.append(f"  {key:<22} {entry['count']:>9}  {entry['share']:>6}%")
    out.append("")

    heading("Minor-edit breakdown")
    for key, entry in doc["minor_edit_breakdown"].items():
        out.append(f"  {key:<22} {entry['count']:>9}  {entry['share']:>6}%")
    out.append("")

    heading(f"Module edits ({doc['module_edits']['outcomes']} outcomes, tags may overlap)")
    for key, entry in doc["module_edits"]["tags"].items():
        out.append(f"  {key:<22} {entry['count']:>9}  {entry['share']:>6}%")
    out.append("")

    heading("Retention")
    out.append(f"  {'day':>4}  {'eligible':>9}  {'returned':>9}  {'pct':>7}")
    for day in doc["retention"]["days"]:
        out.append(
            f"  {day['day']:>4}  {day['eligible']:>9}  {day['returned']:>9}  {day['percentage']:>6}%"
        )
    out.append("")

    heading("Completion requests per weekday (mean, deduplicated)")
    for name, mean in doc["temporal"]["deduplicated"]["weekday_means"].items():
        out.append(f"  {name:<10} {mean:>10}")
    out.append("")

    heading("Feedback")
    fb = doc["feedback"]
    kv_block(
        [
            ("responses", fb["total"]),
            ("satisfied (4-5 stars)", f"{fb['satisfied_share']}%"),
            ("neutral (3 stars)", f"{fb['neutral_share']}%"),
            ("dissatisfied (1-2 stars)", f"{fb['dissatisfied_share']}%"),
        ]
    )
    for polarity in ("negative", "positive"):
        block = fb[f"{polarity}_labels"]
        if block["labeled"]:
            heading(f"{polarity.capitalize()} feedback labels")
            for label, entry in block["shares"].items():
                out.append(f"  {label:<28} {entry['count']:>7}  {entry['share']:>6}%")
            out.append("")

    heading("Data quality")
    kv_block(list(doc["data_quality"].items()))

    return "\n".join(out).rstrip() + "\n"
