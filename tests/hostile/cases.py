"""Hostile inputs, generated when a test runs, and the CLI run on them.

Each case is a ``tasklens report`` command line with the exit code and the
``data_quality`` counts it must give.  The CLI runs in a subprocess, so an
input that crashes the interpreter fails its test instead of ending the run.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

NAMES = ("deep_suggestion", "dash_snapshot", "question_snapshot", "deep_config")


@dataclass(frozen=True)
class Case:
    args: tuple[str, ...]  # the arguments after "report"
    exit_code: int
    data_quality: dict[str, int]  # counts the report must show; empty on an error exit


def _event(index: int, stamp: str, kind: str, **fields) -> str:
    return json.dumps({"event_id": f"e{index}", "user_id": "u1", "ts": stamp, "type": kind, **fields})


def _accepted(text: str, snapshot: str) -> str:
    """A user active the day before accepts ``text``; ``snapshot`` is the document saved next."""
    at = "2023-06-01T08:00:0{}+00:00".format
    lines = [
        _event(0, "2023-05-31T08:00:00+00:00", "completion",
               suggestion_id="warm", prompt="- name: warm", context=""),
        _event(1, at(0), "completion", suggestion_id="s1", prompt="- name: a", context=""),
        _event(2, at(1), "suggestion", suggestion_id="s1", text=text,
               lines=len(text.splitlines()), tokens=5),
        _event(3, at(2), "action", suggestion_id="s1", action="accepted"),
        _event(4, at(3), "content", suggestion_id="s1", document=snapshot),
    ]
    return "\n".join(lines) + "\n"


def write_cases(directory: Path) -> dict[str, Case]:
    """Write every case's files into ``directory``; the cases by name."""
    task = "- name: a\n  debug:\n    msg: hi\n"
    files = {
        "deep_suggestion.jsonl": _accepted("[" * 50_000, task),
        "dash_snapshot.jsonl": _accepted(task, "- " * 50_000 + "x"),
        "question_snapshot.jsonl": _accepted(task, "? " * 50_000 + "x"),
        "deep_config.yaml": "[" * 50_000,
    }
    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")

    def events(name):
        return ("--events", str(directory / f"{name}.jsonl"))

    return {
        "deep_suggestion": Case(events("deep_suggestion"), 0, {"unparseable_suggestions": 1}),
        "dash_snapshot": Case(events("dash_snapshot"), 0, {"unparseable_documents": 1}),
        "question_snapshot": Case(events("question_snapshot"), 0, {"unparseable_documents": 1}),
        "deep_config": Case(
            events("dash_snapshot") + ("--config", str(directory / "deep_config.yaml")), 2, {}
        ),
    }


def run_report(python: str, args: tuple[str, ...], *pythonpath: Path) -> subprocess.CompletedProcess:
    """``tasklens report`` under ``python`` with the source tree on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*pythonpath, SRC)))}
    return subprocess.run(
        [python, "-m", "tasklens.cli", "report", *args], capture_output=True, env=env, timeout=120
    )
