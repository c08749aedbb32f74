"""Layered end-to-end benchmark of ``tasklens report --format json``.

    python3 bench/run.py --workload table62k --seed 1 --seconds 40 --trace 0

Generates the workload's log from the seed (outside every timed interval),
then runs the real CLI on it in fresh processes, one after another: a closed
loop with one client.  Every report is compared byte for byte with the
workload's reference report and with the counts planted in the log.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8
SETUP_SAMPLES_PER_RUN = 1
MIN_RUNS = 3
PROBE_ROUNDS = 5
PROBED_CPUS = 8
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no program, no reference, a broken child."""


def _child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _probe_seconds() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - started


def quickest_cpu(cpus: set[int]) -> int:
    """The CPU on which a short loop runs fastest right now.

    On a shared host one vCPU can run half as fast as another for seconds to
    minutes; starting each child on the quicker one keeps that out of more runs.
    """
    timings = {}
    try:
        for cpu in sorted(cpus)[:PROBED_CPUS]:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = statistics.median(_probe_seconds() for _ in range(PROBE_ROUNDS))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(timings, key=timings.get)


def run_child(args: list[str], seed: int, timeout: float) -> dict:
    """Run bench/child.py in a fresh interpreter; its JSON line, or the failure.

    The child is pinned to the CPU that is quickest when it starts.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {quickest_cpu(cpus)})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=_child_env(seed), capture_output=True, text=True, timeout=timeout,
        )
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        return {"code": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"code": None, "error": f"no result line in {proc.stdout[-200:]!r}"}


def workload_log(workload: str, seed: int) -> tuple[Path, dict, int]:
    """The workload's log for this seed, generated once and kept for reruns.

    Returns the log path, the planted counts and the number of lines.
    """
    WORK.mkdir(exist_ok=True)
    log = WORK / f"{workload}-seed{seed}.jsonl"
    meta = log.with_suffix(".planted.json")
    if not (log.exists() and meta.exists()):
        for stale in WORK.glob(f"{workload}-seed*"):
            stale.unlink()
        lines, planted = workloads.generate(workload, seed)
        partial = log.with_suffix(".partial")
        partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta.write_text(json.dumps({"planted": planted, "lines": len(lines)}), encoding="utf-8")
        partial.replace(log)
    doc = json.loads(meta.read_text(encoding="utf-8"))
    return log, doc["planted"], doc["lines"]


def report_counts(report: dict) -> dict[str, int]:
    """The report's figures that a workload can plant."""
    acc = report["acceptance"]
    return {
        "total_suggestions": acc["total_suggestions"],
        "initially_accepted": acc["initially_accepted"],
        "fully_accepted": acc["fully_accepted"],
        "minor_edits": report["accepted_breakdown"]["minor_edits"]["count"],
        "major_edits": acc["major_edits"],
        "deleted_after_accept": acc["deleted_after_accept"],
        "module_changed_minor": acc["module_changed_minor"],
        "malformed_lines": report["data_quality"]["malformed_lines"],
        "duplicates_removed": report["data_quality"]["duplicates_removed"],
        "users": report["users"]["total"],
    }


def check_run(result: dict, reference: bytes, planted: dict) -> list[str]:
    """Why this run failed; empty when it exited 0 with the expected report."""
    if result.get("code") != 0:
        return [f"exit code {result.get('code')}: {result.get('error', '')}"]
    report = result["report"].encode("utf-8")
    problems = []
    if report != reference:
        problems.append("report differs from the reference report")
    try:
        counts = report_counts(json.loads(report))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"report unreadable: {exc!r}"]
    for key, want in planted.items():
        if key in counts and counts[key] != want:
            problems.append(f"{key} is {counts[key]}, planted {want}")
    if "layers" in result and "renamed" in planted:
        found = result["layers"]["edits.rename_fallbacks"]
        absent = result["absent"]
        if found != planted["renamed"] and "tasklens.edits.match_committed_task" not in absent:
            problems.append(f"rename fallbacks {found}, planted {planted['renamed']}")
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.4f}  q3 {q3:.4f}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    if not (SRC / "tasklens" / "cli.py").is_file():
        raise BenchError(f"no tasklens source under {SRC}")
    reference_path = REFERENCE / f"{workload}.json"
    if not reference_path.is_file():
        raise BenchError(f"no reference report {reference_path}")
    reference = reference_path.read_bytes()
    log, planted, n_lines = workload_log(workload, seed)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups: list[float] = []

    def sample_setup(count: int) -> dict:
        for _ in range(count):
            result = run_child(["setup"], seed, remaining())
            if "error" in result:
                raise BenchError(f"set-up failed: {result['error']}")
            setups.append(result["setup_s"])
        return result

    # The first child compiles the package's bytecode; it is not a sample.
    env = sample_setup(1)["env"]
    setups.clear()
    sample_setup(SETUP_SAMPLES)

    runs: list[dict] = []
    traces: list[dict] = []
    spans_out = WORK / f"spans-{workload}-seed{seed}.json"
    loop_started = time.monotonic()
    while True:
        runs.append(run_child(["run", str(log)], seed, remaining()))
        if trace:
            traces.append(run_child(["trace", str(log), str(spans_out)], seed, remaining()))
        # More set-up samples between runs, so that they span the whole loop.
        sample_setup(SETUP_SAMPLES_PER_RUN)
        elapsed = time.monotonic() - loop_started
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break

    checked = [
        (f"{kind} {i}", check_run(result, reference, planted))
        for kind, results in (("run", runs), ("trace", traces))
        for i, result in enumerate(results)
    ]
    failures = [f"{label}: {problem}" for label, problems in checked for problem in problems]

    walls = [r["wall_s"] for r in runs if "wall_s" in r]
    samples = {
        "wall_s": walls,
        "setup_s": setups + [r["setup_s"] for r in runs + traces if "setup_s" in r],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs if "peak_rss_mib" in r],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    if trace:
        # Per-layer figures all come from the traced run of median wall time,
        # so that its layer self times and remainder add up to its wall time.
        layer_runs = sorted((t["layers"] for t in traces if "layers" in t),
                            key=lambda layers: layers["trace.wall_s"])
        names = list(layer_runs[0]) if layer_runs else []
        samples.update({name: [layers[name] for layers in layer_runs] for name in names})
        metrics = dict(layer_runs[(len(layer_runs) - 1) // 2]) if layer_runs else {}
        if metrics:
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(walls)
            samples["trace.overhead_s"] = [metrics["trace.overhead_s"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": env,
        "log_lines": n_lines,
        "log_mib": log.stat().st_size / 2**20,
        "planted": planted,
        "attempted": len(checked),
        "failed": sum(1 for _, problems in checked if problems),
        "failures": failures,
        "absent": traces[0].get("absent", []) if traces else [],
        "samples": samples,
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_rate"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def print_summary(result: dict) -> None:
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['log_lines']} lines, {result['log_mib']:.1f} MiB; "
        f"{result['attempted']} fresh-process runs, closed loop, 1 client"
    )
    for name, value in result["metrics"].items():
        values = result["samples"].get(name, [])
        print(f"  {name:<24} {value:>14.6f} {_unit(name):<6} n={len(values)}{_quartiles(values)}")
    print(f"  failed_runs {result['failed']} of {result['attempted']}")
    for failure in result["failures"][:10]:
        print(f"    {failure}")
    for name in result["absent"]:
        print(f"  absent: {name} (layer figures read 0)")
    if result["trace"] and result["metrics"]:
        metrics = result["metrics"]
        by_layer: dict[str, float] = {}
        for name in tracer.SELF_TIMES:
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + metrics[name]
        by_layer["unattributed"] = metrics["trace.unattributed_s"]
        print("  self time by layer, traced run of median wall time:")
        for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1]):
            print(f"    {layer:<14} {seconds:>10.4f} s")
        print(f"    {'sum':<14} {sum(by_layer.values()):>10.4f} s = trace.wall_s "
              f"{metrics['trace.wall_s']:.4f} s")


def result_line(result: dict) -> str:
    metrics = {
        name: {"value": value, "unit": _unit(name)} for name, value in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def write_reference(workload: str, seed: int) -> Path:
    """Store the report the current program produces as the workload's reference."""
    log, _, _ = workload_log(workload, seed)
    result = run_child(["run", str(log)], seed, DEADLINE_S)
    if result.get("code") != 0:
        raise BenchError(f"run failed: {result.get('error')}")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    path.write_bytes(result["report"].encode("utf-8"))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the loop of fresh-process runs lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="also write every sample and the environment here")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this program's report as the workload's reference, then exit")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            print(f"wrote {write_reference(args.workload, args.seed)}")
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_summary(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
