"""Multi-cluster HMC scale-out (§V of the paper, Table II's scaling axis).

* :mod:`repro.system.config` — :class:`SystemConfig`: vaults x clusters
  per vault, the shared per-cluster configuration, and the system-level
  compute/bandwidth ceilings.
* :mod:`repro.system.scheduler` — the work-queue tile scheduler (and a
  static round-robin shard for comparison).
* :mod:`repro.system.simulator` — :class:`SystemSimulator`: runs a tiled
  workload end to end across all clusters on one shared HMC, with
  double-buffered DMA/compute overlap per cluster and a vault-bandwidth
  contention model across clusters.
* :mod:`repro.system.memo` — :class:`TileTimingCache`: tile-timing
  memoization so identical tiles pay for cycle simulation once (the data
  plane always re-executes — bit-exactness is never traded for speed).
* :mod:`repro.system.batch` — cross-tile batched replay: cache-hit tiles
  sharing one timing signature execute their data planes as a single
  stacked NumPy dispatch, guarded by a per-group self-containment gate.

Workloads come from :func:`repro.scenarios.build_workload` (tiles staged in
the HMC, verified against NumPy references after the run).
"""

from repro.system.batch import ClusterAssignment, run_cluster_groups_batched
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache
from repro.system.scheduler import ShardPlan, WorkQueueScheduler, shard_round_robin
from repro.system.simulator import ClusterReport, SystemResult, SystemSimulator

__all__ = [
    "ClusterAssignment",
    "run_cluster_groups_batched",
    "SystemConfig",
    "CachedTiming",
    "TileTimingCache",
    "ShardPlan",
    "WorkQueueScheduler",
    "shard_round_robin",
    "ClusterReport",
    "SystemResult",
    "SystemSimulator",
]
