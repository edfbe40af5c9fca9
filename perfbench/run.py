"""The repository's benchmark: host time of the simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts three working processes one after another (``worker.py``),
never two at once.  Each sets the workload up, which run.py times from
process start to the worker's ready line, then measures passes for a
third of ``--seconds``.  Pooling passes over three processes keeps one
process's luck out of the medians, and the three set-ups give the median
``setup_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from
passes that alternate untraced and traced.  Lines before it are a
readable report, including the workload-specific figures (throughput,
daemon latency percentiles, failure fraction) and the run environment.
See README.md for the workloads, the metrics and what should move them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, merge_totals  # noqa: E402
from worker import PREFIX, REFERENCE_PROBE_S  # noqa: E402
from workloads import DAEMON_POLL_S, WORKLOADS  # noqa: E402

#: Working processes per run; each sets up once.
SETUPS = 3
#: A run must end within 180 s; workers still running after this are killed.
DEADLINE_S = 170.0
#: What must exist in the checkout for the benchmark to run.
REQUIRED_FILES = ("BENCHMARK.json", "src/repro/__init__.py", "docs/paper_results.md")


class RunError(RuntimeError):
    """The run could not produce a result (a worker failed or timed out)."""


def run_worker(args, index: int, root: Path, work: Path, env, deadline: float) -> Dict:
    """Start one working process; return its report, with its set-up seconds."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
        "--seconds", repr(args.seconds / SETUPS), "--trace", str(args.trace),
        "--work-dir", str(work / f"worker-{index}"),
    ]
    start = time.monotonic()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=root, env=env)
    watchdog = threading.Timer(max(1.0, deadline - start), process.kill)
    watchdog.start()
    ready = None
    report = None
    try:
        for line in process.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(PREFIX):])
            if message.get("ready"):
                ready = time.monotonic()
            else:
                report = message
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or ready is None or report is None:
        raise RunError(f"worker {index} of {args.workload} failed (exit code {code})")
    report["setup_raw_s"] = ready - start
    return report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def percentile(values: List[float], share: int) -> float:
    """The ``share``-th percentile (``statistics.quantiles``, n=100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[share - 1]


def summarize(reports: List[Dict]):
    """End-to-end figures, per-layer figures and the failure accounting."""
    passes = [p for report in reports for p in report["passes"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(min(len(p["failures"]), p["attempted"]) for p in passes)
    cycles = sorted({p["sim_cycles"] for p in passes if not p["failures"]})
    if len(cycles) > 1:
        failures.append(f"sim_cycles differs between passes: {cycles}")
    raw_pass_s = statistics.median(p["seconds"] for p in plain)
    raw_setup_s = statistics.median(r["setup_raw_s"] for r in reports)
    probe_s = statistics.median(p["probe"] for p in plain)
    figures = {
        # Set-ups are few and short, so they are scaled by the run's median
        # probe rather than each by one noisy probe of its own.
        "setup_s": raw_setup_s * REFERENCE_PROBE_S / probe_s,
        "pass_s": statistics.median(
            p["seconds"] * REFERENCE_PROBE_S / p["probe"] for p in plain
        ),
        "pass_raw_s": raw_pass_s,
        "setup_raw_s": raw_setup_s,
        "probe_s": probe_s,
        "peak_rss_mib": max(r["peak_rss_mib"] for r in reports),
        "sim_cycles": cycles[0] if cycles else 0.0,
        "fail_frac": failed / attempted,
        "passes_raw_s": [p["seconds"] for p in plain],
    }
    latencies = [s for p in plain for s in p["latencies"]]
    if len(latencies) > 1:
        figures["latency_p50_ms"] = statistics.median(latencies) * 1e3
        figures["latency_p90_ms"] = percentile(latencies, 90) * 1e3
    items = sum(p["items"] for p in plain)
    figures[f"{reports[0]['unit']}_per_s"] = items / sum(p["seconds"] for p in plain)

    layers = {}
    if traced:
        layers = layer_metrics(
            merge_totals(r["totals"] for r in reports),
            len(traced),
            sum(p["seconds"] for p in traced),
        )
        overheads = [ms for r in reports for ms in r["overheads_ms"]]
        layers["server.overhead_ms"] = statistics.median(overheads) if overheads else 0.0
        layers["trace_overhead_ratio"] = (
            statistics.median(p["seconds"] for p in traced) / raw_pass_s
        )
        figures["traced_mean_s"] = sum(p["seconds"] for p in traced) / len(traced)
    counts = {"plain": len(plain), "traced": len(traced), "attempted": attempted}
    return figures, layers, failures, failed, counts


def print_report(args, reports, figures, layers, failures, counts) -> None:
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": SETUPS,
        "untraced_passes": counts["plain"],
        "traced_passes": counts["traced"],
        "poll_s": DAEMON_POLL_S if args.workload == "daemon-seeds" else None,
    }
    print(f"perfbench {args.workload} (closed loop, one load-generating process at a time)")
    print("environment " + json.dumps(environment, sort_keys=True))
    setups_text = ", ".join(f"{r['setup_raw_s']:.3f}" for r in reports)
    print(f"  probe_s         {figures['probe_s']:.4f} s     (host-speed probe, median)")
    print(f"  setup_s         {figures['setup_s']:.4f} s     (scaled)")
    print(f"  setup_raw_s     {figures['setup_raw_s']:.4f} s     (as measured; median of {setups_text})")
    plain = counts["plain"]
    print(f"  pass_s          {figures['pass_s']:.4f} s     (scaled; median of {plain} passes)")
    print(f"  pass_raw_s      {figures['pass_raw_s']:.4f} s     (as measured)")
    print("  passes_raw_s    " + " ".join(f"{s:.4f}" for s in figures["passes_raw_s"]))
    for name in ("points_per_s", "tiles_per_s", "jobs_per_s"):
        if name in figures:
            print(f"  {name:15} {figures[name]:.2f} 1/s")
    for name in ("latency_p50_ms", "latency_p90_ms"):
        if name in figures:
            print(f"  {name:15} {figures[name]:.2f} ms    (poll {DAEMON_POLL_S} s)")
    print(f"  peak_rss_mib    {figures['peak_rss_mib']:.1f} MiB")
    print(f"  fail_frac       {figures['fail_frac']:.4f}    ({counts['attempted']} attempted)")
    print(f"  sim_cycles      {figures['sim_cycles']:.1f} cycles")
    for reason in failures:
        print(f"  FAILED: {reason}")
    if layers:
        print("per layer (self time per pass; share of the mean traced pass time):")
        for name, value in sorted(layers.items(), key=lambda item: -item[1]):
            share = f"  {value / figures['traced_mean_s']:6.1%}" if name.endswith("_s") else ""
            print(f"  {name:26} {value:12.5f}{share}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the simulator's host time.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.monotonic()
    root = Path.cwd()
    missing = [name for name in REQUIRED_FILES if not (root / name).is_file()]
    if missing:
        print(f"perfbench: not a checkout of this repository, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    env.pop("REPRO_CACHE_DIR", None)
    work = root / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        reports = [
            run_worker(args, index, root, work, env, started + DEADLINE_S)
            for index in range(SETUPS)
        ]
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures, layers, failures, failed, counts = summarize(reports)
    print_report(args, reports, figures, layers, failures, counts)
    measured = {**figures, **layers}
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": counts["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
