"""Hostile inputs (texts nested tens of thousands of levels deep, aliased,
badly tagged or encoded; config values out of range; dates in other ISO
forms): each one is unparseable text, counted in the report, a bad config or
a usage error, never a crash."""

import json
import sys
import time

import pytest

from hostile.cases import NAMES, run_report, write_cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return write_cases(tmp_path_factory.mktemp("hostile"))


@pytest.mark.parametrize("name", NAMES)
def test_report_survives(cases, name):
    case = cases[name]
    start = time.perf_counter()
    result = run_report(sys.executable, case.args)
    if case.seconds is not None:
        assert time.perf_counter() - start < case.seconds
    assert result.returncode == case.exit_code, result.stderr.decode(errors="replace")[-2000:]
    if case.exit_code == 0:
        report = json.loads(result.stdout)
        for section, counts in (("data_quality", case.data_quality), ("acceptance", case.acceptance)):
            assert {key: report[section][key] for key in counts} == counts
    else:
        assert case.error.encode() in result.stderr
