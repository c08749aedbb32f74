"""Command-line interface.

    tasklens ingest  --events LOG [LOG ...]
    tasklens analyze --events LOG [LOG ...] [--config FILE]
    tasklens report  --events LOG [LOG ...] --format {json,csv,table} [--out DIR]

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import re
import sys
from datetime import date
from pathlib import Path

from .config import BadConfig, load_config
from .report import (
    REPORT_FORMATS, UnknownFormat, ZeroEvents, ingest_window, render_report, run_pipeline
)

USAGE_ERROR = 1
DATA_ERROR = 2

_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_date(text: str) -> date:
    """Exactly ``YYYY-MM-DD``: ``date.fromisoformat`` alone would also take
    other ISO forms (``20230601``, ``2023-W22-4``) from Python 3.11 on."""
    try:
        if _DATE.fullmatch(text):
            return date.fromisoformat(text)
    except ValueError:  # no such day, such as 2023-02-30
        pass
    raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tasklens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--events", nargs="+", required=True, metavar="PATH",
                       help="JSONL event log(s)")
        p.add_argument("--config", metavar="PATH", help="YAML config file")
        p.add_argument("--window-start", type=_parse_date, metavar="DATE",
                       help="ignore events before this local date")
        p.add_argument("--window-end", type=_parse_date, metavar="DATE",
                       help="ignore events after this local date")

    common(sub.add_parser("ingest", help="validate the log and show dedup stats"))
    common(sub.add_parser("analyze", help="run the full pipeline, print a text report"))
    report = sub.add_parser("report", help="run the pipeline and emit a report")
    common(report)
    report.add_argument("--format", choices=REPORT_FORMATS, default="json")
    report.add_argument("--out", metavar="DIR", help="directory to write report files into")
    return parser


def _checked_config(args):
    """The run's config, once every event log is known to exist."""
    config = load_config(args.config)
    missing = [p for p in args.events if not Path(p).exists()]
    if missing:
        raise ZeroEvents(f"no such file: {missing[0]}")
    return config


def _cmd_ingest(args) -> int:
    events, malformed, deduped, timelines = ingest_window(
        args.events, _checked_config(args), args.window_start, args.window_end
    )
    print(f"files            {len(args.events)}")
    print(f"events           {len(events)}")
    print(f"malformed lines  {malformed}")
    print(f"duplicates       {len(events) - len(deduped)}")
    print(f"users            {len(timelines)}")
    if not events:
        print("error: no parseable events in the analysis window", file=sys.stderr)
        return DATA_ERROR
    return 0


def _run(args):
    return run_pipeline(
        args.events,
        _checked_config(args),
        window_start=args.window_start,
        window_end=args.window_end,
    )


def _cmd_analyze(args) -> int:
    report = _run(args)
    sys.stdout.write(render_report(report, "table")["report.txt"].decode("utf-8"))
    return 0


def _cmd_report(args, parser) -> int:
    if args.out is None and args.format == "csv":
        parser.error("--format csv requires --out DIR")
    files = render_report(_run(args), args.format)
    if args.out is None:
        sys.stdout.write(next(iter(files.values())).decode("utf-8"))
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, blob in files.items():
        (out_dir / name).write_bytes(blob)
        print(f"wrote {out_dir / name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_report(args, parser)
    except (ZeroEvents, BadConfig, UnknownFormat, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
