"""The same bytes from every supported Python.

The hostile cases and the JSON render of the small synthetic log run under
every other CPython 3.10+ that ``pyenv`` installed, and their exit codes,
stdout and stderr must equal this interpreter's.  Each interpreter runs every
case in one process (``run_cases``), this one included.  PyYAML is installed
for this interpreter only, so the others get a copy of its pure-Python
package, which also puts them on the loader that does not use libyaml.
"""

import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from hostile.cases import NAMES, run_cases, run_report, write_cases
from small_log import small_log_lines
from tasklens.synth import write_log

GOLDEN_JSON = Path(__file__).resolve().parents[1] / "golden" / "report.json"


def other_interpreters() -> list[Path]:
    try:
        root = subprocess.run(
            ["pyenv", "root"], capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return []
    found = []
    for version in sorted(Path(root, "versions").glob("*")):
        try:
            number = tuple(int(part) for part in version.name.split("."))
        except ValueError:  # not a CPython release
            continue
        python = version / "bin" / "python"
        if number[:2] >= (3, 10) and version.name != platform.python_version() and python.exists():
            found.append(python)
    return found


PYTHONS = other_interpreters()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The files, the pure-Python PyYAML copy, and this interpreter's results."""
    tmp = tmp_path_factory.mktemp("interpreters")
    argv = {name: case.args for name, case in write_cases(tmp).items()}
    argv["golden"] = ("--events", str(write_log(tmp / "small.jsonl", small_log_lines())),
                      "--format", "json")
    pure = tmp / "pure"
    shutil.copytree(Path(yaml.__file__).parent, pure / "yaml",
                    ignore=shutil.ignore_patterns("_yaml*", "__pycache__"))
    expected = run_cases(sys.executable, argv)
    assert expected["golden"][1] == GOLDEN_JSON.read_bytes()
    return argv, pure, expected


def test_runner_gives_what_a_fresh_process_gives(runs):
    """A report, a usage error and a bad config: the same bytes either way."""
    argv, _, expected = runs
    for name in ("golden", "week_date_window", "nan_config"):
        done = run_report(sys.executable, argv[name])
        assert (done.returncode, done.stdout, done.stderr) == expected[name], name


def test_a_case_that_ends_the_runner_is_named(tmp_path):
    fake = tmp_path / "tasklens"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(
        "import os\n"
        "def main(argv):\n"
        "    if argv[-1] == 'die':\n"
        "        os._exit(3)\n"
        "    print('fine')\n"
        "    return 0\n"
    )
    argv = {"first": ("ok",), "second": ("die",), "third": ("ok",)}
    with pytest.raises(AssertionError, match=r"case 'second' ended the runner \(exit 3\)"):
        run_cases(sys.executable, argv, tmp_path)


@pytest.mark.parametrize(
    "python",
    PYTHONS or [pytest.param(None, marks=pytest.mark.skip(
        reason="no other CPython 3.10+ under `pyenv root`/versions"))],
    ids=lambda python: python.parent.parent.name if python else "none",
)
def test_every_interpreter_gives_the_same_bytes(runs, python):
    argv, pure, expected = runs
    results = run_cases(str(python), argv, pure)
    for name in (*NAMES, "golden"):
        assert results[name] == expected[name], name
