"""One working process of a benchmark run: set up, run passes, report.

Usage (started by run.py, with ``src`` on ``PYTHONPATH``)::

    python perfbench/worker.py --workload NAME --seed N --index K \\
        --seconds S --trace 0|1 --work-dir DIR

The worker prints ``perfbench-worker {"ready": true}`` once set-up is done
(run.py times set-up up to that line), measures passes for ``--seconds``,
and prints ``perfbench-worker {...}`` with its passes, peak RSS and, when
traced, the per-layer span totals.  With ``--trace 1`` passes alternate
untraced and traced, starting untraced, so the trace overhead is measured
within one process; the wrappers are off for every untraced pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from tracer import EntryPointError, totals_in_windows
from workloads import WORKLOADS, make_workload

PREFIX = "perfbench-worker "
#: What :func:`host_probe` takes on a host of reference speed.  Timings are
#: reported scaled by ``REFERENCE_PROBE_S / probe`` (see README.md).
REFERENCE_PROBE_S = 0.1


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and fresh-memory zeroing.

    The host's speed for this program drifts by tens of percent over
    minutes on a shared machine; the probe, run right before each timed
    interval, drifts with it, so a timing divided by it does not.  The mix
    follows the program's two main costs: Python bytecode, and zero-filling
    newly allocated memory (``Memory.__init__``).
    """
    start = time.monotonic()
    total = 0
    for value in range(500_000):
        total += value * value
    block = bytearray(64 << 20)
    del block
    return time.monotonic() - start


def emit(payload) -> None:
    print(PREFIX + json.dumps(payload), flush=True)


def measure(workload, seconds: float, trace: bool) -> list:
    """Run passes until ``seconds`` are spent (at least one of each kind)."""
    passes = []
    begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        probe = host_probe()
        if traced:
            workload.begin_trace()
        try:
            done = workload.run_pass()
        finally:
            if traced:
                workload.end_trace()
        done.probe = probe
        passes.append(done)
        workload.collect()
        elapsed = time.monotonic() - begin
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + typical / 2 >= seconds:
            return passes


def job_overheads_ms(spans, passes) -> list:
    """Daemon job latency minus the wrapped work started inside the job."""
    roots = [(start, end) for _, start, end, _, root, _ in spans if root]
    overheads = []
    for done in passes:
        if not done.traced:
            continue
        for submitted, finished in done.jobs:
            covered = sum(end - start for start, end in roots if submitted <= start <= finished)
            overheads.append((finished - submitted - covered) * 1e3)
    return overheads


def main() -> int:
    parser = argparse.ArgumentParser(description="one working process of perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    import numpy

    workload = make_workload(args.workload, Path.cwd(), args.work_dir, args.seed, args.index)
    try:
        workload.setup()
        emit({"ready": True})
        passes = measure(workload, args.seconds, bool(args.trace))
    finally:
        info = workload.close()
    spans = info.pop("spans")
    traced = [(p.start, p.end) for p in passes if p.traced]
    totals = totals_in_windows(spans, traced) if traced else {}
    missing = [key for key in workload.required if traced and key not in totals]
    if missing:
        raise EntryPointError(
            f"{args.workload}: wrapped entry points never called: {', '.join(missing)}"
        )
    emit(
        {
            "passes": [
                {
                    "seconds": p.seconds,
                    "probe": p.probe,
                    "traced": p.traced,
                    "items": p.items,
                    "attempted": p.attempted,
                    "failures": p.failures,
                    "sim_cycles": p.sim_cycles,
                    "latencies": [end - start for start, end in p.jobs],
                }
                for p in passes
            ],
            "unit": workload.unit,
            "peak_rss_mib": info["peak_rss_mib"],
            "totals": totals,
            "overheads_ms": job_overheads_ms(spans, passes),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
