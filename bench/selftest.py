"""Self-test of the benchmark: every workload at minimal size, untraced and traced.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every emitted metric name matches ``[A-Za-z0-9_.-]+``, that
every metric ``BENCHMARK.json`` lists is emitted with its unit, that every
per-layer metric has a recorded prediction (``workloads.PREDICTIONS``) with
a one-line reason, and that a directory holding only ``BENCHMARK.json`` and
the benchmark gives a non-zero exit and no result.  Exit status 1 lists the
problems found.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RECORD_KEYS = {"python", "cpu", "nproc", "git_commit", "seed", "metrics"}
RECORD_ONLY = {"cmd_p50_s", "verify_weights_per_s", "failed_frac"}
BENCH_DIR = Path(__file__).resolve().parent


def run_small(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0"]
    argv += ["--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_run(workload: str, trace: int, expected: dict) -> list:
    proc = run_small(workload, trace, run.ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["run_record"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    if not RECORD_KEYS <= set(record):
        problems.append(f"{where}: run record lacks {sorted(RECORD_KEYS - set(record))}")
    for name, metric in {**result["metrics"], **record["metrics"]}.items():
        if not NAME.fullmatch(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if not metric.get("unit"):
            problems.append(f"{where}: {name} has no unit")
    for name, unit in expected.items():
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} missing or not in {unit}: {got}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        problems.append(f"{where}: metrics not listed in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_predictions(bench: dict) -> list:
    end_to_end = {m["name"] for m in bench["end_to_end"]} | RECORD_ONLY
    per_layer = {m["name"] for m in bench["per_layer"]}
    problems, predicted = [], set()
    for layer_metrics, moves, workload, reason in workloads.PREDICTIONS:
        predicted.update(layer_metrics)
        if set(layer_metrics) - per_layer:
            problems.append(f"prediction names unknown per-layer metrics {sorted(set(layer_metrics) - per_layer)}")
        if set(moves) - end_to_end:
            problems.append(f"prediction names unknown end-to-end metrics {sorted(set(moves) - end_to_end)}")
        if workload != "all" and workload not in workloads.WORKLOADS:
            problems.append(f"prediction names unknown workload {workload!r}")
        if not reason or "\n" in reason or len(reason) > 200:
            problems.append(f"prediction reason is not one line: {reason!r}")
    if per_layer - predicted:
        problems.append(f"per-layer metrics without a prediction: {sorted(per_layer - predicted)}")
    listed = {w["name"]: w["why"] for w in bench["workloads"]}
    if listed != workloads.WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    return problems


def check_without_program(bench_json: Path) -> list:
    """A directory with only BENCHMARK.json and the benchmark must give no result."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_json, bare / bench_json.name)
    try:
        proc = run_small("interactive", 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without a program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench_json = run.ROOT / "BENCHMARK.json"
    bench = json.loads(bench_json.read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = check_predictions(bench) + check_without_program(bench_json)
    for workload in workloads.WORKLOADS:
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
    for problem in problems:
        print(problem)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
