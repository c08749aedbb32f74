"""Hostile inputs, generated when a test runs, and the CLI run on them.

Each case is a ``tasklens report`` command line with the exit code it must
give and either the ``data_quality`` counts of its report or what its error
message must say.  The CLI runs in a subprocess, so an input that crashes the
interpreter fails its test instead of ending the run.

Run as a script, this file is the runner of ``run_cases``: it reads a JSON
list of argument lists on stdin and runs ``tasklens report`` on each in turn,
in this one process.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

NAMES = (
    "deep_suggestion", "dash_snapshot", "question_snapshot", "deep_config",
    "alias_suggestion", "alias_snapshot", "int_tag_suggestion", "merge_snapshot",
    "bad_text_lines", "alias_config", "int_key_config", "horizon_config", "week_date_window",
    "set_rename", "deep_extra_field", "list_type", "tab_suggestion", "nan_config",
    "repeated_lines", "formfeed_snapshot", "formfeed_config", "alike_keys",
    "unclosed_config", "plain_formfeed_config", "last_day_event", "last_day_window",
    "millennia_window",
)


@dataclass(frozen=True)
class Case:
    args: tuple[str, ...]  # the arguments after "report"
    exit_code: int
    data_quality: dict[str, int]  # counts the report must show; empty on an error exit
    seconds: float | None = None  # a wall-time bound, where the input's hazard is its cost
    error: str = ""  # what stderr must say on an error exit


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


def alias_chain(levels: int) -> str:
    """A flow list whose level i holds level i - 1 twice, through aliases."""
    links = ["&a0 [x, x]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, levels)]
    return "[" + ", ".join(links) + "]"


def write_cases(directory: Path) -> dict[str, Case]:
    """Write every case's files into ``directory``; the cases by name."""
    task = "- name: a\n  debug:\n    msg: hi\n"
    # Thousands of tasks name one value of about 8,000 nodes, just under the
    # expansion cap: cheap only if the aliased value is built once.
    aliased = f"- name: a\n  debug: &c {alias_chain(11)}\n" + "- debug: *c\n" * 4000
    copy = "- name: a\n  copy:\n    src: y\n"
    # A line that is not UTF-8, and one whose JSON escape spells a lone surrogate.
    feedback = partial(
        _event, kind="feedback", stamp="2023-06-01T08:00:09+00:00", stars=3, comment=""
    )
    # A set value whose key is renamed: the rename's values are counted, so they must hash.
    set_task = "- name: a\n  copy:\n    {}: !!set {{x, y}}\n    b: 1\n    c: 2\n    d: 3\n"
    # Keys 1 and "1" read alike, and their values do not compare with each other.
    alike_task = "- name: a\n  copy:\n    {}: {{1: [x], '1': y}}\n    b: 1\n    c: 2\n    d: 3\n"
    # 2,000 equal option lines, one changed: about 4 million equal line pairs.
    repeated = "- name: a\n  copy:\n" + "    src: x\n" * 2_000
    # An ignored field nested 100 levels deep, past the 64 an event line may nest.
    deep = []
    for _ in range(99):
        deep = [deep]
    bad_lines = (
        feedback(8, label="bad ?").encode().replace(b"?", b"\xff\xfe") + b"\n"
        + feedback(9, label="bad \udc80").encode() + b"\n"
    )
    files = {
        "deep_suggestion.jsonl": _accepted("[" * 50_000, task),
        "dash_snapshot.jsonl": _accepted(task, "- " * 50_000 + "x"),
        "question_snapshot.jsonl": _accepted(task, "? " * 50_000 + "x"),
        "deep_config.yaml": "[" * 50_000,
        "alias_suggestion.jsonl": _accepted(f"- name: a\n  debug: {alias_chain(20)}\n", task),
        "alias_snapshot.jsonl": _accepted(task, aliased),
        "int_tag_suggestion.jsonl": _accepted("- name: a\n  debug: !!int \n", task),
        # A merge key goes to PyYAML's constructor, not the lean value walk.
        "merge_snapshot.jsonl": _accepted(copy, "- name: a\n  copy:\n    <<: {mode: x}\n    src: y\n"),
        "bad_text_lines.jsonl": _accepted(task, task).encode() + bad_lines,
        "set_rename.jsonl": _accepted(set_task.format("a"), set_task.format("e")),
        "alike_keys.jsonl": _accepted(alike_task.format("a"), alike_task.format("e")),
        "deep_extra_field.jsonl": _accepted(task, task) + feedback(8, extra=deep) + "\n",
        "list_type.jsonl": _accepted(task, task)
        + _event(8, "2023-06-01T08:00:09+00:00", ["completion"], suggestion_id="s2") + "\n",
        "tab_suggestion.jsonl": _accepted("- name: a\n  debug:\tmsg\n", task),
        "repeated_lines.jsonl": _accepted(repeated, repeated.replace("src: x", "src: y", 1)),
        # A tab picks the pure-Python loader, whose reader refuses "\x0c" as it starts.
        "formfeed_snapshot.jsonl": _accepted(task, task.replace("hi", "hi\t\x0c")),
        # 15,000 names aliased 11,250 times: 169 million names once expanded,
        # though identical names keep the built config small.
        "alias_config.yaml": "directive_keys: &a [" + ", ".join(["m"] * 15_000) + "]\n"
        + "similar_modules: [" + ", ".join(["*a"] * 11_250) + "]\n",
        "int_key_config.yaml": "1: x\nfoo: y\n",
        "horizon_config.yaml": "retention_horizon: 1.0e+300\n",
        "nan_config.yaml": "minor_major_threshold: .nan\n",
        "formfeed_config.yaml": "retention_horizon: 3\t\x0c\n",
        # No tab, so each loader reads these; libyaml and PyYAML word their
        # errors differently, and at the end of a text without a final line
        # break they put the error on different lines.
        "unclosed_config.yaml": "a: [b",
        "plain_formfeed_config.yaml": "retention_horizon: 3\n\x0c\n",
        # The last representable day, and a window of almost every representable day.
        "last_day_event.jsonl": _accepted(task, task)
        + _event(8, "9999-12-31T12:00:00+00:00", "completion",
                 suggestion_id="s2", prompt="- name: b", context="") + "\n",
        "millennia_window.jsonl": "".join(
            _event(i, stamp, "completion", suggestion_id=f"s{i}", prompt="- name: a", context="")
            + "\n"
            for i, stamp in enumerate(("0001-01-01T08:00:00+00:00", "9999-12-30T12:00:00+00:00"))
        ),
    }
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (directory / name).write_bytes(content)

    def events(name):
        return ("--events", str(directory / f"{name}.jsonl"))

    def bad_config(name, error, seconds=None):
        args = events("dash_snapshot") + ("--config", str(directory / f"{name}.yaml"))
        return Case(args, 2, {}, seconds, error)

    return {
        "deep_suggestion": Case(events("deep_suggestion"), 0, {"unparseable_suggestions": 1}),
        "dash_snapshot": Case(events("dash_snapshot"), 0, {"unparseable_documents": 1}),
        "question_snapshot": Case(events("question_snapshot"), 0, {"unparseable_documents": 1}),
        "deep_config": bad_config("deep_config", "nested deeper than 100 levels"),
        "alias_suggestion": Case(events("alias_suggestion"), 0, {"unparseable_suggestions": 1}),
        "alias_snapshot": Case(events("alias_snapshot"), 0, {"unparseable_documents": 0}, 10.0),
        "int_tag_suggestion": Case(events("int_tag_suggestion"), 0, {"unparseable_suggestions": 1}),
        "merge_snapshot": Case(
            events("merge_snapshot"), 0,
            {"unparseable_suggestions": 0, "unparseable_documents": 0, "unresolved_outcomes": 0},
        ),
        "bad_text_lines": Case(
            events("bad_text_lines"), 0, {"malformed_lines": 2, "unparseable_suggestions": 0}
        ),
        "alias_config": bad_config("alias_config", "aliases expand it", 3.0),
        "int_key_config": bad_config("int_key_config", "config key '1'"),
        "horizon_config": bad_config("horizon_config", "config key 'retention_horizon'"),
        # An ISO week date, which date.fromisoformat reads from Python 3.11 on.
        "week_date_window": Case(
            events("merge_snapshot") + ("--window-start", "2023-W22-4"), 1, {},
            error="not a YYYY-MM-DD date",
        ),
        "set_rename": Case(
            events("set_rename"), 0, {"unparseable_suggestions": 0, "unresolved_outcomes": 0}
        ),
        "alike_keys": Case(
            events("alike_keys"), 0, {"unparseable_suggestions": 0, "unresolved_outcomes": 0}
        ),
        "deep_extra_field": Case(events("deep_extra_field"), 0, {"malformed_lines": 1}),
        "list_type": Case(events("list_type"), 0, {"malformed_lines": 1}),
        # libyaml reads this text, PyYAML's scanner refuses it; the tab decides for both.
        "tab_suggestion": Case(events("tab_suggestion"), 0, {"unparseable_suggestions": 1}),
        "nan_config": bad_config("nan_config", "config key 'minor_major_threshold'"),
        # The pair's work bound refuses it (difflib alone takes about 0.8 s on
        # it on a 2-vCPU x86 under CPython 3.11), so its outcome is unresolved.
        "repeated_lines": Case(events("repeated_lines"), 0, {"unresolved_outcomes": 1}, 5.0),
        "formfeed_snapshot": Case(events("formfeed_snapshot"), 0, {"unparseable_documents": 1}),
        "formfeed_config": bad_config("formfeed_config", "unacceptable character #x000c"),
        "unclosed_config": bad_config("unclosed_config", "invalid YAML: syntax error (line 1)"),
        "plain_formfeed_config": bad_config(
            "plain_formfeed_config", "invalid YAML: unacceptable character #x000c (line 2)"
        ),
        "last_day_event": Case(events("last_day_event"), 0, {"malformed_lines": 0}),
        "last_day_window": Case(
            events("merge_snapshot") + ("--window-end", "9999-12-31"), 0, {"malformed_lines": 0}
        ),
        "millennia_window": Case(events("millennia_window"), 0, {"malformed_lines": 0}, 3.0),
    }


def _environment(pythonpath: tuple[Path, ...]) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*pythonpath, SRC)))}


def run_report(python: str, args: tuple[str, ...], *pythonpath: Path) -> subprocess.CompletedProcess:
    """``tasklens report`` under ``python`` with the source tree on the path."""
    return subprocess.run(
        [python, "-m", "tasklens.cli", "report", *args],
        capture_output=True, env=_environment(pythonpath), timeout=120,
    )


def run_cases(
    python: str, argv: dict[str, tuple[str, ...]], *pythonpath: Path
) -> dict[str, tuple[int, bytes, bytes]]:
    """(exit code, stdout, stderr) of ``tasklens report`` on each case's
    arguments, all run by one ``python`` process with the source tree on the
    path.  A case that ends that process, by a crash, an uncaught exception or
    a timeout, fails, named, as an AssertionError."""
    names = list(argv)
    try:
        done = subprocess.run(
            [python, __file__], input=json.dumps([argv[name] for name in names]).encode(),
            capture_output=True, env=_environment(pythonpath), timeout=600,
        )
        stdout, stderr, ending = done.stdout, done.stderr, f"exit {done.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout, stderr, ending = exc.stdout or b"", exc.stderr or b"", "timed out"
    results = {}
    for name in names:
        header, newline, rest = stdout.partition(b"\n")
        fields = [int(field) for field in header.split()]
        if not newline or len(fields) != 3 or len(rest) < fields[1] + fields[2]:
            raise AssertionError(
                f"case {name!r} ended the runner ({ending}): "
                + stderr.decode(errors="replace")[-2000:]
            )
        code, out_size, err_size = fields
        results[name] = (code, rest[:out_size], rest[out_size:out_size + err_size])
        stdout = rest[out_size + err_size:]
    return results


def _serve() -> None:
    """The runner: each result is a line ``code stdout-size stderr-size`` and
    then the bytes of both streams, written as soon as the case ends."""
    from tasklens.cli import main

    real = sys.stdout, sys.stderr
    for args in json.load(sys.stdin):
        # New streams encoded as a fresh process would encode its own.
        captured = [
            io.TextIOWrapper(io.BytesIO(), encoding=s.encoding, errors=s.errors, newline="\n")
            for s in real
        ]
        sys.stdout, sys.stderr = captured
        try:
            code = main(["report", *args])
        except SystemExit as exc:  # argparse exits with an int
            code = exc.code
        finally:
            sys.stdout, sys.stderr = real
        for stream in captured:
            stream.flush()
        out, err = (stream.buffer.getvalue() for stream in captured)
        sys.stdout.buffer.write(b"%d %d %d\n" % (code, len(out), len(err)) + out + err)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _serve()
