"""Benchmark of the ``sl2hc`` command-line program.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle_grid --seed 0 --seconds 25 --trace 0

With ``--trace 0`` every command runs as its own ``python -m sl2hc``
subprocess (``src`` on ``PYTHONPATH``), serially: a closed loop with one
client.  The run repeats the workload's pass until ``--seconds`` would be
exceeded, and times a trivial command (``setup_s``) at points spread over it.
Every output is checked (``checks.py``), and on the default seed also
compared with the recorded digests (``golden.json``).

With ``--trace 1`` the pass runs once as subprocesses, for the checks and
the reference stdout, and then in process, alternating untraced and traced
passes (``spans.py``); the traced stdout must equal the subprocess stdout.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (Python,
CPU, nproc, commit, seed, sample counts and units).  ``known_defect``
commands are checked and reported in the run record, but a failure of one
is not counted in ``failed``.  Exit status 2 means no result: the checkout
holds no ``src/sl2hc``, or the arguments are bad.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15
SETUP_ARGV = ["-m", "sl2hc", "cg", "0", "0"]
TRACE_CHECK = workloads.Command(("<trace>",), "trace")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
RATIO_NAMES = {
    "linalg.root_multiplicity.hit_ratio": ("linalg.root_multiplicity.hits", "linalg.root_multiplicity.calls"),
    "lattice.set_yield": ("lattice.sets", "lattice.masks_tried"),
    "lattice.cover_yield": ("lattice.covers", "lattice.cover_pairs_scanned"),
}
COUNT_UNITS = {name: "bits" if name.endswith("bits_max") else "count" for name in spans.COUNT_NAMES}


def per_layer_units() -> dict:
    units = {}
    for layer, names in spans.TRACED.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_s"] = "s"
    units.update(COUNT_UNITS)
    units.update({name: "ratio" for name in RATIO_NAMES})
    units.update({"cli.interp_s": "s", "cli.import_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


PER_LAYER_UNITS = per_layer_units()


# --- running the program --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list, env: dict) -> tuple:
    """(exit code, stdout, stderr, seconds) of one interpreter run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def run_inprocess(cli, argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of ``sl2hc.cli.main`` with captured streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


# --- results ----------------------------------------------------------------------


class Tally:
    """Check outcomes of a run: attempts, failures and oracle throughput."""

    def __init__(self, workload: str, golden: bool) -> None:
        self.golden = checks.Golden(workload) if golden else None
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.weights = 0
        self.verify_seconds = 0.0
        self.verify_commands = 0
        self.reported: set = set()

    def add(self, cmd, rc: int, out: bytes, err: bytes, seconds: float) -> None:
        reason, weights = checks.check(cmd, rc, out, err)
        if self.golden is not None:
            reason = reason or self.golden.check(cmd, rc, out)
        if cmd.check in ("verify", "sweep"):
            self.weights += weights
            self.verify_seconds += seconds
            self.verify_commands += 1
        self.fail(cmd, reason)

    def fail(self, cmd, reason) -> None:
        self.attempted += 1
        if reason is None:
            return
        if cmd.known_defect:
            self.known_failed += 1
            reason = f"{reason} (known defect: {cmd.known_defect})"
        else:
            self.failed += 1
        key = " ".join(cmd.argv)
        if key not in self.reported:
            self.reported.add(key)
            print(f"check failed: sl2hc {key}: {reason}", file=sys.stderr)

    def record_metrics(self) -> dict:
        out = {
            "failed_frac": {
                "value": (self.failed + self.known_failed) / self.attempted,
                "unit": "ratio",
                "samples": self.attempted,
            }
        }
        if self.verify_commands:
            out["verify_weights_per_s"] = {
                "value": self.weights / self.verify_seconds,
                "unit": "1/s",
                "samples": self.verify_commands,
            }
        return out


def tail_percentile(values: list):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it, or None."""
    qs = [q for q in (75, 90, 95, 99) if len(values) * (100 - q) >= 1000]
    if not qs:
        return None
    return {"percentile": qs[-1], "value": statistics.quantiles(values, n=100)[qs[-1] - 1], "samples": len(values)}


# --- the untraced run -------------------------------------------------------------


def measure(cmds: list, seconds: float, env: dict, tally: Tally) -> tuple:
    """Metrics and sample counts of subprocess passes repeated for ``seconds``.

    The set-up probes (``cg 0 0``) are spread over the run at command
    boundaries, so that they meet the same machine conditions as the
    workload; a pass's wall time is the sum of its commands' latencies.
    """
    run_child(SETUP_ARGV, env)  # warm the bytecode and file caches
    setup, passes, latencies = [], [], []
    start = time.perf_counter()

    def probe_setup(due: int) -> None:
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(run_child(SETUP_ARGV, env)[3])

    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        pass_start, wall = time.perf_counter(), 0.0
        for cmd in cmds:
            probe_setup(1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / seconds))
            rc, out, err, elapsed = run_child(["-m", "sl2hc", *cmd.argv], env)
            wall += elapsed
            latencies.append(elapsed)
            tally.add(cmd, rc, out, err, elapsed)
        passes.append(wall)
        last = time.perf_counter() - pass_start
    probe_setup(SETUP_SAMPLES)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(passes), len(passes)),
        "peak_rss_mb": (peak_mb, tally.attempted + len(setup) + 1),
    }
    record = {name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n} for name, (v, n) in metrics.items()}
    # Reported but not gated: on oracle_ladder the median command is one verify
    # with a sample per pass, so its run-to-run spread is too wide for a bound.
    record["cmd_p50_s"] = {"value": statistics.median(latencies), "unit": "s", "samples": len(latencies)}
    tail = tail_percentile(latencies)
    if tail:
        record["cmd_tail_s"] = {**tail, "unit": "s"}
    return metrics, record, len(passes)


# --- the traced run ---------------------------------------------------------------


def traced(cmds: list, seconds: float, env: dict, tally: Tally, span_path: Path) -> tuple:
    """Per-layer metrics from alternating untraced and traced in-process passes."""
    start = time.perf_counter()
    interp, imports = [], []
    for _ in range(SETUP_SAMPLES + 1):
        interp.append(run_child(["-c", "pass"], env)[3])
        imports.append(run_child(["-c", "import sl2hc.cli"], env)[3])
    interp_s = statistics.median(interp[1:])
    import_s = statistics.median(imports[1:]) - interp_s

    reference = []
    for cmd in cmds:
        rc, out, err, elapsed = run_child(["-m", "sl2hc", *cmd.argv], env)
        tally.add(cmd, rc, out, err, elapsed)
        reference.append((rc, out))

    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer()
    cli = tracer.modules["cli"]
    plain, walls, coverage, self_times, totals = [], [], [], [], []

    def plain_pass() -> None:
        t0 = time.perf_counter()
        for cmd in cmds:
            run_inprocess(cli, cmd.argv)
        plain.append(time.perf_counter() - t0)

    def traced_pass() -> None:
        tracer.run_id = len(walls)
        tracer.counts = Counter()
        tracer.install()
        try:
            t0 = time.perf_counter()
            results = [run_inprocess(cli, cmd.argv) for cmd in cmds]
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        for cmd, (rc, out, _), ref in zip(cmds, results, reference):
            tally.fail(cmd, None if (rc, out) == ref else "traced exit code or stdout differs from the subprocess")
        pass_calls, pass_self, root_s = spans.summarize(tracer.spans, tracer.run_id)
        coverage.append(root_s / walls[-1])
        self_times.append(pass_self)
        totals.append((tracer.counts, pass_calls))

    while not walls or time.perf_counter() - start + plain[-1] + walls[-1] <= seconds:
        # alternate the order, so that a cold first pass biases neither side
        for step in (traced_pass, plain_pass) if len(walls) % 2 == 0 else (plain_pass, traced_pass):
            step()
    counts, calls = totals[0]
    if any(t != totals[0] for t in totals[1:]):
        tally.fail(TRACE_CHECK, "span or count totals did not repeat exactly")
    unrestored = tracer.unrestored()
    if unrestored:
        tally.fail(TRACE_CHECK, f"wrappers left installed: {unrestored}")

    values = {"cli.interp_s": interp_s, "cli.import_s": import_s}
    for layer, names in spans.TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = statistics.median(t.get(name, 0.0) for t in self_times)
    for name in spans.COUNT_NAMES:
        values[name] = counts[name]
    for name, (num, den) in RATIO_NAMES.items():
        values[name] = values[num] / values[den] if values[den] else 0.0
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    values["trace.coverage"] = statistics.median(coverage)

    OUT_DIR.mkdir(exist_ok=True)
    with span_path.open("w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")

    samples = {"cli.interp_s": len(interp) - 1, "cli.import_s": len(imports) - 1}
    record = {
        name: {"value": values[name], "unit": unit, "samples": samples.get(name, len(walls))}
        for name, unit in PER_LAYER_UNITS.items()
    }
    record["trace.spans"] = {"value": len(tracer.spans), "unit": "count", "samples": len(walls)}
    return values, record, len(walls)


# --- the run record ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the sl2hc command-line program.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full", help="small: self-test size")
    args = parser.parse_args(argv)

    if not (SRC / "sl2hc" / "cli.py").is_file():
        print(f"no sl2hc package under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2

    small = args.size == "small"
    cmds = workloads.commands(args.workload, args.seed, small)
    tally = Tally(args.workload, golden=args.seed == workloads.DEFAULT_SEED and not small)
    env = child_env()
    if args.trace:
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, record, passes = traced(cmds, args.seconds, env, tally, span_path)
        units = PER_LAYER_UNITS
    else:
        span_path = None
        measured, record, passes = measure(cmds, args.seconds, env, tally)
        values = {name: v for name, (v, _) in measured.items()}
        units = END_TO_END_UNITS
    record.update(tally.record_metrics())

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "commands_per_pass": len(cmds),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "known_defects_failed": tally.known_failed,
        "spans_file": str(span_path.relative_to(ROOT)) if span_path else None,
        "metrics": record,
    }
    print(json.dumps({"run_record": run_record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
