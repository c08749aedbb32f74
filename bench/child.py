"""One fresh-process measurement, started by run.py; prints one JSON line.

    python3 bench/child.py setup
    python3 bench/child.py run   LOG
    python3 bench/child.py trace LOG SPANS_OUT

``setup`` times the import of ``tasklens.cli`` plus ``load_config``: the work
before the first input byte is read.  ``run`` also times one call of
``tasklens.cli.main(["report", "--events", LOG, "--format", "json"])`` and
reads the process's peak RSS.  ``trace`` makes the same call with the
per-layer tracer installed and writes the spans to SPANS_OUT.

Only ``sys`` and ``time`` are imported before the set-up clock stops, so the
package pays for every module it needs.
"""

import sys
import time


def _setup() -> float:
    started = time.perf_counter()
    import tasklens.cli

    tasklens.cli.load_config(None)
    return time.perf_counter() - started


def _environment() -> dict:
    import importlib.util
    import os
    import platform

    import tasklens.taskparse
    import yaml

    loader = getattr(tasklens.taskparse, "_Loader", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "csafeloader": None if loader is None else loader.__name__ == "CSafeLoader",
        "orjson": importlib.util.find_spec("orjson") is not None,
    }


def _call_main(log: str) -> tuple[int, float, str]:
    """Exit code, seconds inside cli.main, and the report it printed."""
    import io

    import tasklens.cli

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    started = time.perf_counter()
    try:
        code = tasklens.cli.main(["report", "--events", log, "--format", "json"])
    except SystemExit as exc:
        code = exc.code
    finally:
        wall_s = time.perf_counter() - started
        sys.stdout = real_stdout
    return code if isinstance(code, int) else 1, wall_s, captured.getvalue()


def _trace(log: str, spans_out: str) -> dict:
    import tasklens.report
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code, wall_s, report = _call_main(log)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(wall_s)
    for fmt in ("csv", "table"):
        seconds = 0.0
        if tracer.report is not None:
            started = time.perf_counter()
            tasklens.report.render_report(tracer.report, fmt)
            seconds = time.perf_counter() - started
        layers[f"report.render_{fmt}_s"] = seconds
    tracer.dump(spans_out, {"log": log, "wall_s": wall_s})
    return {"code": code, "wall_s": wall_s, "report": report, "layers": layers,
            "absent": tracer.absent}


def main() -> None:
    setup_s = _setup()
    import json
    import resource

    mode, args = sys.argv[1], sys.argv[2:]
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["env"] = _environment()
    elif mode == "run":
        code, wall_s, report = _call_main(args[0])
        result.update(code=code, wall_s=wall_s, report=report)
    elif mode == "trace":
        result.update(_trace(args[0], args[1]))
    else:
        raise SystemExit(f"unknown mode: {mode!r}")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
