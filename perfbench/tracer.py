"""Per-layer host-time accounting by wrapping the program's entry points.

The traced run installs a :class:`Tracer`, which replaces every entry point
in :data:`ENTRY_POINTS` at its binding site with a wrapper that records one
span per call: which entry point, start and end on the monotonic clock, the
time covered by wrapped calls made inside it, whether it was a root (no
wrapped caller) and a few counters read off its arguments or result.

Self time is a span's duration minus the time of its wrapped children, so
the self times of all spans add up to the time of the root spans, and a
pass's time splits exactly into the layers plus an unattributed remainder.

Nothing in the program is edited: the wrappers live here, are installed
only around traced passes and are removed (and checked removed) before any
untraced pass runs.  An entry point that no longer exists under its
recorded name is an error, never a silent 0 s.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ENTRY_POINTS",
    "EntryPointError",
    "Tracer",
    "layer_metrics",
    "merge_totals",
    "totals_in_windows",
]


class EntryPointError(RuntimeError):
    """A wrapped entry point is missing, or was never called when it must be."""


def _alloc_bytes(args, kwargs, result) -> Dict[str, float]:
    # Memory.__init__(self, size, base=0, name="mem")
    size = args[1] if len(args) > 1 else kwargs.get("size", 0)
    return {"bytes": float(size)}


def _refused_if_false(args, kwargs, result) -> Dict[str, float]:
    return {"refused": 0.0 if result else 1.0}


def _refused_if_none(args, kwargs, result) -> Dict[str, float]:
    return {"refused": 1.0 if result is None else 0.0}


def _tile_cache(args, kwargs, result) -> Dict[str, float]:
    return {"hits": float(result.cache_hits), "misses": float(result.cache_misses)}


def _miss_if_none(args, kwargs, result) -> Dict[str, float]:
    return {"misses": 1.0 if result is None else 0.0}


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method, wrapped where its callers look it up."""

    #: Layer-qualified key; per-layer metric names derive from it.
    key: str
    #: Module whose namespace holds the binding the program calls through.
    module: str
    #: ``function`` or ``Class.method`` inside ``module``.
    name: str
    #: Counters read off one call's ``(args, kwargs, result)``.
    note: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("mem.alloc", "repro.mem.memory", "Memory.__init__", _alloc_bytes),
    EntryPoint("system.setup", "repro.system.simulator", "SystemSimulator.__init__"),
    EntryPoint("system.schedule", "repro.system.simulator", "SystemSimulator.shard"),
    EntryPoint("system.run", "repro.system.simulator", "SystemSimulator.run", _tile_cache),
    EntryPoint(
        "system.replay", "repro.system.batch", "run_cluster_groups_batched",
        _refused_if_none,
    ),
    EntryPoint("cluster.cycle_sim", "repro.cluster.sim", "ClusterSimulator.run"),
    EntryPoint("cluster.data_plane", "repro.cluster.sim", "ClusterSimulator.run_data_plane"),
    EntryPoint("core.fast_path", "repro.cluster.vecsim", "execute_streams", _refused_if_false),
    EntryPoint("core.functional", "repro.cluster.vecsim", "execute_functional"),
    EntryPoint("scenarios.build", "repro.scenarios.runner", "build_workload"),
    EntryPoint("scenarios.verify", "repro.scenarios.workloads", "ScenarioWorkload.verify"),
    EntryPoint("campaign.store_read", "repro.campaign.store", "ResultStore.records"),
    EntryPoint("campaign.store_append", "repro.campaign.store", "ResultStore.append"),
    EntryPoint(
        "campaign.cache_get", "repro.campaign.cache", "GlobalResultCache.get", _miss_if_none
    ),
    EntryPoint("campaign.cache_put", "repro.campaign.cache", "GlobalResultCache.put"),
    EntryPoint("report.artifact", "repro.report.runner", "run_artifact"),
    EntryPoint("report.render", "repro.report", "render_document"),
)

#: One recorded call: (key, start, end, child seconds, root?, counters).
Span = Tuple[str, float, float, float, bool, Optional[Dict[str, float]]]


def _binding(entry: EntryPoint) -> Tuple[Any, str]:
    """The object holding ``entry``'s binding and the attribute name."""
    try:
        owner: Any = importlib.import_module(entry.module)
    except ImportError as error:
        raise EntryPointError(f"{entry.module}.{entry.name}: {error}") from error
    *path, attr = entry.name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    held = vars(owner) if owner is not None else {}
    if attr not in held or not callable(held[attr]):
        raise EntryPointError(
            f"entry point {entry.module}.{entry.name} ({entry.key}) no longer "
            "exists; update perfbench/tracer.py ENTRY_POINTS"
        )
    return owner, attr


class Tracer:
    """Installs the span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        """Wrap every entry point; raises :class:`EntryPointError` if one is gone."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        bindings = [(entry, *_binding(entry)) for entry in ENTRY_POINTS]
        for entry, owner, attr in bindings:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(entry, original))

    def uninstall(self) -> None:
        """Restore every original binding and check that it is back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def _wrap(self, entry: EntryPoint, original: Callable) -> Callable:
        spans = self.spans
        local = self._local
        key = entry.key
        note = entry.note
        clock = time.monotonic

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            root = not stack
            stack.append(0.0)
            start = clock()
            result = None
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                counters = None if raised or note is None else note(args, kwargs, result)
                spans.append((key, start, end, child, root, counters))

        return wrapper


def totals_in_windows(
    spans: Iterable[Sequence], windows: Sequence[Tuple[float, float]]
) -> Dict[str, Dict[str, float]]:
    """Sum the spans that start inside any of ``windows``, per key.

    Each key maps to ``calls``, ``incl_s``, ``self_s`` and its summed
    counters; the pseudo-key ``"_roots"`` holds the root spans' time.
    """
    totals: Dict[str, Dict[str, float]] = {"_roots": {"incl_s": 0.0}}
    for key, start, end, child, root, counters in spans:
        if not any(lo <= start <= hi for lo, hi in windows):
            continue
        entry = totals.setdefault(key, {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += end - start - child
        for name, value in (counters or {}).items():
            entry[name] = entry.get(name, 0.0) + value
        if root:
            totals["_roots"]["incl_s"] += end - start
    return totals


def merge_totals(parts: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Add several :func:`totals_in_windows` results together."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for key, values in part.items():
            target = merged.setdefault(key, {})
            for name, value in values.items():
                target[name] = target.get(name, 0.0) + value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    passes: int,
    traced_seconds: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, normalized per pass.

    Every ``*_s`` value is a self time per pass; ``unattributed_frac`` is
    the share of traced pass time that no wrapped span covers.
    """

    def get(key: str, name: str) -> float:
        return totals.get(key, {}).get(name, 0.0)

    def per_pass(key: str, name: str) -> float:
        return get(key, name) / passes

    hits = get("system.run", "hits")
    misses = get("system.run", "misses")
    gets = get("campaign.cache_get", "calls")
    return {
        "mem.alloc_s": per_pass("mem.alloc", "self_s"),
        "mem.alloc_calls": per_pass("mem.alloc", "calls"),
        "mem.alloc_mib": per_pass("mem.alloc", "bytes") / 2**20,
        "system.setup_s": per_pass("system.setup", "self_s"),
        "system.schedule_s": per_pass("system.schedule", "self_s"),
        "system.run_s": per_pass("system.run", "self_s"),
        "system.replay_s": per_pass("system.replay", "self_s"),
        "system.batch_refusals": per_pass("system.replay", "refused"),
        "system.tile_hit_ratio": _ratio(hits, hits + misses),
        "cluster.cycle_sim_s": per_pass("cluster.cycle_sim", "self_s"),
        "cluster.cycle_sim_calls": per_pass("cluster.cycle_sim", "calls"),
        "cluster.data_plane_s": per_pass("cluster.data_plane", "self_s"),
        "cluster.data_plane_calls": per_pass("cluster.data_plane", "calls"),
        "core.fast_path_s": per_pass("core.fast_path", "self_s"),
        "core.fast_path_calls": per_pass("core.fast_path", "calls"),
        "core.fast_path_refusals": per_pass("core.fast_path", "refused"),
        "core.functional_s": per_pass("core.functional", "self_s"),
        "core.functional_calls": per_pass("core.functional", "calls"),
        "scenarios.build_s": per_pass("scenarios.build", "self_s"),
        "scenarios.verify_s": per_pass("scenarios.verify", "self_s"),
        "campaign.store_read_s": per_pass("campaign.store_read", "self_s"),
        "campaign.store_append_s": per_pass("campaign.store_append", "self_s"),
        "campaign.cache_get_s": per_pass("campaign.cache_get", "self_s"),
        "campaign.cache_put_s": per_pass("campaign.cache_put", "self_s"),
        "campaign.cache_hit_ratio": _ratio(gets - get("campaign.cache_get", "misses"), gets),
        "report.artifact_s": per_pass("report.artifact", "self_s"),
        "report.render_s": per_pass("report.render", "self_s"),
        "unattributed_frac": max(
            0.0, 1.0 - _ratio(get("_roots", "incl_s"), traced_seconds)
        ),
    }
