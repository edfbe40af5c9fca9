"""The unified execution-options API shared by every entry point.

Every execution knob — cycle engine, tile-timing memoization, batched
cache-hit replay, campaign worker pools, quick mode — lives in one
frozen, JSON-round-trippable :class:`ExecutionOptions`, which is what makes a *serializable* job
submission possible: the :mod:`repro.server` payload embeds it verbatim,
``python -m repro.eval`` derives its ``--engine/--no-memoize/--no-batch/
--workers/--quick`` flags from its fields, and
:class:`~repro.system.simulator.SystemSimulator`,
:func:`~repro.scenarios.runner.run_scenario` and
:func:`~repro.campaign.runner.run_campaign` accept it as ``options=``.

Every option is *exact*: engine choice, memoization, batching and
campaign worker pools never change simulated cycle counts or HMC contents,
only wall time — which is why two submissions differing only in these
knobs may legitimately share one server-side result.  Only ``engine`` is
also a spec field (campaigns sweep it); :meth:`ExecutionOptions.resolve`
writes it in.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

if TYPE_CHECKING:  # importing repro.scenarios at runtime would be circular
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["ExecutionOptions", "parse_shard"]


def parse_shard(shard: str) -> "tuple[int, int]":
    """Parse an ``i/N`` shard selector into ``(index, count)``.

    ``i`` is 0-based and must satisfy ``0 <= i < N`` with ``N >= 1``;
    anything else (including non-numeric text) raises ``ValueError`` with
    the expected shape, so a CLI typo fails before any simulation starts.
    """
    match = re.fullmatch(r"(\d+)/(\d+)", shard.strip())
    if not match:
        raise ValueError(
            f"shard must look like 'i/N' (e.g. 0/4), got {shard!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard!r}")
    if index >= count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {shard!r}"
        )
    return index, count


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* a simulation executes, as one value.

    All fields are execution-path choices, not workload definitions: any
    combination produces bit-identical simulated cycles and HMC contents,
    so none of them enters campaign point identity — except ``engine``,
    which :meth:`resolve` writes into the spec because campaigns may
    sweep it.  The ``metadata["cli"]`` of each field is the help text of
    the derived command-line flag
    (:func:`repro.eval.__main__.add_execution_flags`).
    """

    #: Override the cycle engine (``None`` keeps the spec/config engine).
    engine: Optional[str] = field(
        default=None,
        metadata={"cli": "override the cycle engine (default: the spec's own)"},
    )
    #: Tile-timing memoization (exact; see :mod:`repro.system.memo`).
    memoize: bool = field(
        default=True,
        metadata={"cli": "disable the tile-timing cache"},
    )
    #: Batched cache-hit replay (exact; see :mod:`repro.system.batch`).
    batch: bool = field(
        default=True,
        metadata={"cli": "disable batched cache-hit replay (per-tile path)"},
    )
    #: Worker processes for campaign points (0 = in-process, shared cache).
    workers: int = field(
        default=0,
        metadata={"cli": "dispatch campaign points onto N worker processes"},
    )
    #: CI-sized workloads (campaigns apply quick_overrides; axes never shrink).
    quick: bool = field(
        default=False,
        metadata={"cli": "CI-sized workloads (campaign quick_overrides)"},
    )
    #: Global result-cache directory (None = $REPRO_CACHE_DIR or disabled).
    cache_dir: Optional[str] = field(
        default=None,
        metadata={
            "cli": "global result-cache directory (default: $REPRO_CACHE_DIR)",
            "metavar": "DIR",
        },
    )
    #: Deterministic point shard ``i/N`` (None = run every point).
    shard: Optional[str] = field(
        default=None,
        metadata={
            "cli": "run only shard i of N (deterministic point split)",
            "metavar": "I/N",
        },
    )
    #: Span tracing via :mod:`repro.obs` (exact; results never change).
    trace: bool = field(
        default=False,
        metadata={"cli": "capture repro.obs spans for this run"},
    )
    #: Trace output path (implies ``trace``); ``.jsonl`` writes raw
    #: spans, anything else a Chrome/Perfetto trace JSON.
    trace_out: Optional[str] = field(
        default=None,
        metadata={
            "cli": "write the captured trace to FILE "
            "(.jsonl = raw spans, else Chrome trace; implies --trace)",
            "metavar": "FILE",
        },
    )

    def __post_init__(self) -> None:
        if self.engine is not None:
            from repro.cluster.engine import get_engine  # avoid import cycle

            get_engine(self.engine)  # unknown names raise listing the choices
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ValueError("worker count must be an integer")
        if self.workers < 0:
            raise ValueError("worker count must be non-negative")
        for name in ("memoize", "batch", "quick", "trace"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean")
        if self.trace_out is not None:
            if not isinstance(self.trace_out, (str, os.PathLike)):
                raise ValueError("trace_out must be a path or None")
            object.__setattr__(self, "trace_out", os.fspath(self.trace_out))
            object.__setattr__(self, "trace", True)
        if self.cache_dir is not None:
            if not isinstance(self.cache_dir, (str, os.PathLike)):
                raise ValueError("cache_dir must be a path or None")
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
        if self.shard is not None:
            if not isinstance(self.shard, str):
                raise ValueError("shard must be an 'i/N' string or None")
            index, count = parse_shard(self.shard)  # ill-formed selectors raise
            object.__setattr__(self, "shard", f"{index}/{count}")

    # -- consumers -----------------------------------------------------------

    def resolve(self, spec: "ScenarioSpec") -> "ScenarioSpec":
        """``spec`` with this block's ``engine`` (if any) written into it.

        ``engine-shootout`` sweeps the engine as an axis, so it stays
        point identity; no other option ever touches a spec.
        """
        if self.engine is None or self.engine == spec.engine:
            return spec
        return spec.with_overrides(engine=self.engine)

    def with_overrides(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields replaced (validated like new)."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-compatible)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionOptions":
        """Inverse of :meth:`to_dict`; missing fields default, unknown raise."""
        if not isinstance(data, Mapping):
            raise ValueError("execution options must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown execution option(s) {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionOptions":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
