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
from dataclasses import dataclass, field
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
    "millennia_window", "huge_int_line", "escaped_canonical_lines", "raw_cr_line",
    "json_path_lines", "newline_module_key", "reader_edges", "named_prompts", "tied_actions",
)


@dataclass(frozen=True)
class Case:
    args: tuple[str, ...]  # the arguments after "report"
    exit_code: int
    data_quality: dict[str, int]  # counts the report must show; empty on an error exit
    seconds: float | None = None  # a wall-time bound, where the input's hazard is its cost
    error: str = ""  # what stderr must say on an error exit
    acceptance: dict[str, int] = field(default_factory=dict)  # counts of the report's acceptance


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


def nested(levels: int) -> list:
    """An empty list nested ``levels`` levels deep, itself the first."""
    value = []
    for _ in range(levels - 1):
        value = [value]
    return value


def alias_chain(levels: int) -> str:
    """A flow list whose level i holds level i - 1 twice, through aliases."""
    links = ["&a0 [x, x]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, levels)]
    return "[" + ", ".join(links) + "]"


# Task bodies on the boundary of the block shape that taskparse reads without
# the YAML loader: values it reads (a bool, a null, a flow list) and texts it
# leaves to the loaders (other types, a quoted quote, a comment, ": " inside a
# value, a list at its key's column, a two-line scalar, a duplicate option and
# a "tasks" key).
READER_EDGES = [
    "debug:\n  msg: on", "debug:\n  msg: ~", "debug:\n  msg: 0644", "debug:\n  msg: 1:20",
    "debug:\n  msg: 2024-01-01", "debug:\n  msg: 'it''s'", "debug:\n  msg: hi # c",
    "debug:\n  msg: a: b", "debug:\n  msg: [a,b]", "debug:\n  msg: x\nloop:\n- a\n- b",
    "debug:\n  msg: first\n    second", "debug:\n  msg: a\n  msg: b", "tasks: x",
]


def reader_edges_log() -> str:
    """Each edge body is shown as a suggestion, then saved in a play's task
    list next to a plain task shown just before the snapshot, so the snapshot
    is read even when the suggestion does not parse."""
    lines = [_event(0, "2023-05-31T08:00:00+00:00", "completion",
                    suggestion_id="warm", prompt="- name: warm", context="")]
    stamp = iter(f"2023-06-01T08:{i // 60:02d}:{i % 60:02d}+00:00" for i in range(1000))
    for i, body in enumerate(READER_EDGES):
        for sid, text in ((f"e{i}", body), (f"p{i}", f"debug:\n  msg: plain {i}")):
            lines += [
                _event(len(lines), next(stamp), "completion", suggestion_id=sid,
                       prompt=f"- name: {sid}", context=""),
                _event(len(lines) + 1, next(stamp), "suggestion", suggestion_id=sid, text=text,
                       lines=len(text.splitlines()), tokens=5),
                _event(len(lines) + 2, next(stamp), "action", suggestion_id=sid, action="accepted"),
            ]
        items = [f"- name: e{i}\n" + "".join(f"  {line}\n" for line in body.split("\n")),
                 f"- name: p{i}\n  debug:\n    msg: plain {i}\n"]
        play = "- hosts: all\n  tasks:\n" + "".join(
            "".join(f"    {line}\n" for line in item.splitlines()) for item in items)
        lines.append(_event(len(lines), next(stamp), "content", suggestion_id=f"p{i}",
                            document=play))
    return "\n".join(lines) + "\n"


# Prompts that quote the task's name, add a comment or hold ": " in it, each with
# its committed task's name line: the shown task takes the name that line gives.
NAMED_PROMPTS = [
    ('- name: "Install nginx"', "Install nginx"),
    ("- name: 'Install nginx'", "Install nginx"),
    ("- name: Install nginx  # pkg", "Install nginx"),
    ("- name: Step 1: install nginx", '"Step 1: install nginx"'),
]


def named_prompts_log() -> str:
    """An apt task accepted under each prompt; the snapshot after it keeps the
    task of that name with shell in place of apt, a major edit."""
    lines = [_event(0, "2023-05-31T08:00:00+00:00", "completion",
                    suggestion_id="warm", prompt="- name: warm", context="")]
    # A minute apart, so that no snapshot is a retry of the one before.
    stamp = iter(f"2023-06-01T08:{i:02d}:00+00:00" for i in range(60))
    text = "apt:\n  name: nginx\n"
    for i, (prompt, name) in enumerate(NAMED_PROMPTS):
        for kind, fields in (
            ("completion", {"prompt": prompt, "context": ""}),
            ("suggestion", {"text": text, "lines": 2, "tokens": 5}),
            ("action", {"action": "accepted"}),
        ):
            lines.append(_event(len(lines), next(stamp), kind, suggestion_id=f"s{i}", **fields))
        lines.append(_event(len(lines), next(stamp), "content",
                            document=f"- name: {name}\n  shell: apt-get install nginx\n"))
    return "\n".join(lines) + "\n"


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
    deep = nested(100)
    # Lines in the collectors' shape whose texts need JSON escapes ("é", '"',
    # a backslash, a tab), one with a 19-digit token count, more digits than
    # the pattern reads, and one with an escaped lone surrogate: malformed.
    escaped_task = "- name: a\n  debug:\n    msg: 'caf\u00e9 \"quoted\" back\\slash'\n"
    escaped_lines = _accepted(escaped_task, escaped_task) + "".join(
        line + "\n" for line in (
            _event(5, "2023-06-01T08:00:05+00:00", "completion", suggestion_id="s2",
                   prompt="- name: b", context='\t"tab" caf\u00e9\\'),
            _event(6, "2023-06-01T08:00:06+00:00", "suggestion", suggestion_id="s2",
                   text=escaped_task, lines=3, tokens=10**18),
            _event(7, "2023-06-01T08:00:07+00:00", "completion", suggestion_id="s3",
                   prompt="- name: \udc80", context=""),
        )
    )
    # An ignored field holding an integer longer than int() converts.
    huge_int = feedback(8, extra=0).replace('"extra": 0', '"extra": ' + "7" * 5_000)
    # JSON allows a raw "\r" between tokens; a line still ends at "\n" alone.
    raw_cr = _event(8, "2023-06-01T08:00:09+00:00", "completion", suggestion_id="s2",
                    prompt="- name: b", context="").replace(', "user_id"', ',\r"user_id"')
    # Lines the collectors' pattern refuses, so that only the JSON path reads
    # them: an accepted suggestion with "type" first, one line ended by CRLF
    # and one led by spaces, a feedback line, extra fields nesting the line 64
    # and 65 levels deep, one keyed by an escaped lone surrogate, and a BOM.
    reordered = [
        json.dumps({"type": json.loads(line)["type"], **json.loads(line)})
        for line in _accepted(task, task).splitlines()
    ]
    reordered[1] += "\r"
    reordered[2] = "  " + reordered[2]
    extra = partial(_event, 9, "2023-06-01T08:00:10+00:00", "completion",
                    suggestion_id="s2", prompt="- name: b", context="")
    json_path = "".join(line + "\n" for line in (
        *reordered, feedback(8), extra(extra=nested(63)), extra(extra=nested(64)),
        extra(extra={"\udc80": 1}), "\ufeff" + extra(),
    ))
    # An accepted and a rejected action that share user, ts and event id,
    # the rejected one first: ties are ordered by kind, then by content.
    accepted = _accepted(task, task).splitlines()
    tied = [*accepted[:3], accepted[3].replace('"accepted"', '"rejected"'), *accepted[3:]]
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
        "huge_int_line.jsonl": _accepted(task, task) + huge_int + "\n",
        "escaped_canonical_lines.jsonl": escaped_lines,
        "raw_cr_line.jsonl": _accepted(task, task) + raw_cr + "\n",
        "json_path_lines.jsonl": json_path,
        # A module key that ends in a line break is not a module key.
        "newline_module_key.jsonl": _accepted('- name: a\n  "copy\\n":\n    src: y\n', copy),
        "reader_edges.jsonl": reader_edges_log(),
        "named_prompts.jsonl": named_prompts_log(),
        "tied_actions.jsonl": "".join(line + "\n" for line in tied),
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
        "huge_int_line": Case(events("huge_int_line"), 0, {"malformed_lines": 1}),
        "escaped_canonical_lines": Case(
            events("escaped_canonical_lines"), 0,
            {"malformed_lines": 1, "unparseable_suggestions": 0, "unparseable_documents": 0,
             "unresolved_outcomes": 0},
        ),
        "raw_cr_line": Case(events("raw_cr_line"), 0, {"malformed_lines": 0}),
        "json_path_lines": Case(
            events("json_path_lines"), 0,
            {"malformed_lines": 3, "duplicates_removed": 0, "orphan_actions": 0,
             "unresolved_outcomes": 0, "unparseable_suggestions": 0, "unparseable_documents": 0},
        ),
        "newline_module_key": Case(events("newline_module_key"), 0, {"unparseable_suggestions": 1}),
        # The suggestions with ": " inside a value and with a "tasks" key do not
        # parse, nor does the snapshot with ": " inside a value.
        "reader_edges": Case(
            events("reader_edges"), 0,
            {"unparseable_suggestions": 2, "unparseable_documents": 1, "unresolved_outcomes": 1},
            acceptance={"total_suggestions": 24, "fully_accepted": 23, "minor_edits": 0,
                        "major_edits": 0, "unresolved": 1},
        ),
        "named_prompts": Case(
            events("named_prompts"), 0, {"unresolved_outcomes": 0},
            acceptance={"total_suggestions": 4, "major_edits": 4, "deleted_after_accept": 0},
        ),
        "tied_actions": Case(
            events("tied_actions"), 0, {"duplicates_removed": 0},
            acceptance={"total_suggestions": 1, "initially_accepted": 1, "fully_accepted": 1},
        ),
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
