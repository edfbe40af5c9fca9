"""The benchmark's workloads, each driven through public entry points.

A workload sets up once per working process, then runs timed *passes*
until the process's share of the measuring time is spent.  Every pass
checks its own outputs; a failed check marks the pass (or daemon job)
failed with a reason instead of aborting the run.  See README.md for why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import gc
import json
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import Tracer

__all__ = ["WORKLOADS", "Pass", "make_workload"]

#: Tile-count multiplier of the scale-out replay workload.
SCALEOUT_TILE_FACTOR = 32
#: Seconds between ``Client.wait`` polls; the default 0.2 s would quantize
#: daemon latency to the poll interval.
DAEMON_POLL_S = 0.005
#: Upper bound on one daemon job, so a stuck job fails instead of hanging.
DAEMON_JOB_TIMEOUT_S = 60.0


@dataclass
class Pass:
    """One timed pass (a daemon pass is one round over every scenario)."""

    start: float
    end: float
    traced: bool
    items: int = 0
    attempted: int = 1
    failures: List[str] = field(default_factory=list)
    sim_cycles: float = 0.0
    #: Daemon only: (submit, result) monotonic times per job.
    jobs: List[Tuple[float, float]] = field(default_factory=list)
    #: Seconds of the host-speed probe run right before this pass.
    probe: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Workload:
    """Set-up, passes and tracing control of one workload."""

    name = ""
    #: What ``items`` counts, for the ``<unit>_per_s`` throughput line.
    unit = ""
    #: Tracer keys that must be called on this workload, or the traced
    #: run fails: a renamed or bypassed entry point must not read as 0 s.
    required: Tuple[str, ...] = ()

    def __init__(self, root: Path, work: Path, seed: int, index: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        #: Which of the run's working processes this is.
        self.index = index
        self.tracer = Tracer()
        #: Whether the entry-point wrappers are on for the next pass.
        self.traced = False

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def begin_trace(self) -> None:
        self.tracer.install()
        self.traced = True

    def end_trace(self) -> None:
        self.tracer.uninstall()
        self.traced = False

    def collect(self) -> None:
        """Run the cyclic collector between passes, outside the timed region.

        Simulators are freed only by the cyclic collector; collecting after
        every pass makes each one start from the same heap.
        """
        gc.collect()

    def close(self) -> Dict[str, object]:
        """Stop what set-up started; returns the spans and peak RSS."""
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"spans": self.tracer.spans, "peak_rss_mib": peak_kib / 1024}


def _stored_points(store_dir: Path) -> Tuple[int, float]:
    """Record count and summed simulated makespan of a report's stores."""
    points = 0
    cycles = 0.0
    for path in sorted(store_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                points += 1
                cycles += json.loads(line)["metrics"]["makespan_cycles"]
    return points, cycles


class PaperWorkload(Workload):
    """Regenerate the quick paper-results document, as
    ``python -m repro.eval report --all --quick`` does, from an empty store
    and result cache, and byte-compare it with ``docs/paper_results.md``."""

    name = "paper-cold"
    unit = "points"
    required = (
        "mem.alloc", "system.setup", "system.schedule", "system.run", "system.replay",
        "cluster.cycle_sim", "cluster.data_plane", "core.fast_path", "core.functional",
        "scenarios.build", "scenarios.verify", "campaign.store_read",
        "campaign.store_append", "campaign.cache_get", "campaign.cache_put",
        "report.artifact", "report.render",
    )
    passes = 0

    def setup(self) -> None:
        import repro.report

        self.report = repro.report
        self.reference = (self.root / "docs" / "paper_results.md").read_bytes()

    def run_pass(self) -> Pass:
        self.passes += 1
        scratch = self.work / f"pass-{self.passes}"
        store = scratch / "store"
        start = time.monotonic()
        results = self.report.run_report(
            quick=True, store_dir=store, cache_dir=scratch / "cache"
        )
        document = self.report.render_document(results, quick=True)
        done = Pass(start, time.monotonic(), self.traced)
        if document.encode("utf-8") != self.reference:
            done.failures.append("rendered document differs from docs/paper_results.md")
        done.items, done.sim_cycles = _stored_points(store)
        shutil.rmtree(scratch, ignore_errors=True)
        return done


class ScaleoutWorkload(Workload):
    """Every registered scenario at 32x its tile count, golden-verified."""

    name = "scaleout-replay"
    unit = "tiles"
    required = (
        "mem.alloc", "system.setup", "system.schedule", "system.run", "system.replay",
        "cluster.cycle_sim", "core.fast_path", "scenarios.build", "scenarios.verify",
    )

    def setup(self) -> None:
        from repro.scenarios import iter_scenarios, run_scenario

        self.run_scenario = run_scenario
        self.specs = [
            spec.with_overrides(
                num_tiles=spec.num_tiles * SCALEOUT_TILE_FACTOR,
                seed=spec.seed + self.seed,
            )
            for spec in iter_scenarios()
        ]

    def run_pass(self) -> Pass:
        done = Pass(time.monotonic(), 0.0, self.traced)
        for spec in self.specs:
            try:
                outcome = self.run_scenario(spec)
            except AssertionError as error:
                done.failures.append(f"{spec.name}: golden verify failed: {error}")
                continue
            if not outcome.verified:
                done.failures.append(f"{spec.name}: result not golden-verified")
            done.items += outcome.result.num_tiles
            done.sim_cycles += outcome.result.makespan_cycles
            del outcome
        done.end = time.monotonic()
        return done


class DaemonWorkload(Workload):
    """One client, closed loop, against ``repro.server`` with 2 workers."""

    name = "daemon-seeds"
    unit = "jobs"
    required = (
        "mem.alloc", "system.setup", "system.schedule", "system.run", "system.replay",
        "scenarios.build", "scenarios.verify", "campaign.store_read",
        "campaign.store_append", "campaign.cache_get", "campaign.cache_put",
    )
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.client import Client
        from repro.scenarios import iter_scenarios

        self.specs = iter_scenarios()
        # Fresh seeds per job: distinct content hashes, so nothing dedups.
        self._next_seed = random.Random(f"{self.seed}/{self.index}").randrange(10**6, 10**9)
        self.report_path = self.work / "server-report.json"
        self.server = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("serve.py")),
                "--report", str(self.report_path),
                "--port", "0", "--store-dir", str(self.work / "server"), "-q",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        if match is None:
            raise RuntimeError(f"the daemon did not start: {banner!r}")
        self.client = Client(match.group(1), timeout=DAEMON_JOB_TIMEOUT_S)
        # Warm the daemon's tile-timing cache with one untimed round.
        warm = self.run_pass()
        if warm.failures:
            raise RuntimeError(f"warm-up round failed: {warm.failures}")
        self.collect()

    def run_pass(self) -> Pass:
        done = Pass(time.monotonic(), 0.0, self.traced, attempted=0)
        for spec in self.specs:
            self._next_seed += 1
            done.attempted += 1
            submitted = time.monotonic()
            try:
                job = self.client.submit_scenario(spec, seed=self._next_seed)
                result = self.client.wait(
                    job["id"], timeout=DAEMON_JOB_TIMEOUT_S, poll=DAEMON_POLL_S
                )
            except (RuntimeError, TimeoutError, OSError) as error:
                done.failures.append(f"{spec.name}: {type(error).__name__}: {error}")
                continue
            finished = time.monotonic()
            record = result["record"]
            if job["deduplicated"] or result["from_store"]:
                done.failures.append(f"{spec.name}: served without simulating")
            elif record.get("verified") is not True:
                done.failures.append(f"{spec.name}: result not golden-verified")
            else:
                done.items += 1
                done.jobs.append((submitted, finished))
                done.sim_cycles += record["metrics"]["makespan_cycles"]
        done.end = time.monotonic()
        return done

    def _server_peak_mib(self) -> float:
        with open(f"/proc/{self.server.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("the daemon's peak RSS (VmHWM) is not readable")

    def _command(self, command: str) -> None:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        expected = f"perfbench: {command}"
        for line in self.server.stdout:
            if line.strip() == expected:
                return
        raise RuntimeError(f"the daemon exited before acknowledging {command!r}")

    # The wrappers live in the daemon process; its report carries the spans.
    def begin_trace(self) -> None:
        self._command("trace on")
        self.traced = True

    def end_trace(self) -> None:
        self._command("trace off")
        self.traced = False

    def collect(self) -> None:
        self._command("gc")

    def close(self) -> Dict[str, object]:
        if self.server is None:
            return {"spans": [], "peak_rss_mib": 0.0}
        peak_rss_mib = self._server_peak_mib()
        self.server.stdin.close()
        self.server.stdout.read()
        if self.server.wait(timeout=60) != 0:
            raise RuntimeError(f"the daemon exited with code {self.server.returncode}")
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return {"spans": report["spans"], "peak_rss_mib": peak_rss_mib}


def make_workload(name: str, root: Path, work: Path, seed: int, index: int) -> Workload:
    if name == "paper-cold":
        return PaperWorkload(root, work, seed, index)
    if name == "scaleout-replay":
        return ScaleoutWorkload(root, work, seed, index)
    if name == "daemon-seeds":
        return DaemonWorkload(root, work, seed, index)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-cold", "scaleout-replay", "daemon-seeds")
