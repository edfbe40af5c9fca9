"""Declarative description of one runnable scenario.

A :class:`ScenarioSpec` pins everything a run measures — the workload
family and its shape parameters, the system geometry (vaults x clusters
per vault) and the cycle engine — as plain data with a dict/JSON round
trip.  How a run executes lives only in
:class:`~repro.options.ExecutionOptions`, never in a spec.  Specs are
what the named-scenario registry stores, what ``python -m repro.eval
scenario run`` resolves, and what the benchmark harness iterates; the
same spec therefore *is* the reproduction recipe for a measurement.

Validation happens at construction: unknown workload families and engine
names raise ``ValueError`` listing the valid choices, and the family's
builder runs once per shape, so a typo or a shape it rejects fails before
any simulation starts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping

from repro.cluster.engine import DEFAULT_ENGINE, get_engine
from repro.system.config import SystemConfig

__all__ = ["ScenarioSpec"]

#: ``(family, repr(merged params), cluster config)`` of every shape whose
#: builder already accepted it.  Specs that differ only in seed, name or
#: geometry (every daemon job, every campaign point of one shape) then
#: validate once per process instead of once per construction.
_BUILT_SHAPES: set = set()


def _normalize(value):
    """Canonicalize sequence-valued parameters to tuples.

    JSON has no tuple type, so shape parameters like ``image_shape``
    deserialize as lists; normalizing both directions keeps
    ``from_json(to_json(spec)) == spec`` an identity.  Mappings (e.g. the
    stage dicts of the ``pipeline`` family) normalize recursively so a
    shape nested inside a stage round-trips the same way.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if isinstance(value, Mapping):
        return {key: _normalize(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: workload family + shape + system geometry + engine."""

    #: Registry name of the scenario (``conv-tiled``, ``dnn-training-step``, ...).
    name: str
    #: Workload family key (see :data:`repro.scenarios.workloads.FAMILIES`).
    family: str
    #: One-line description shown by ``scenario list`` and the CLI epilog.
    description: str = ""
    #: Family-specific shape parameters (merged over the family defaults).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Number of independent tiles staged in the HMC.
    num_tiles: int = 4
    #: Seed of the deterministic data generator.
    seed: int = 2019
    #: System geometry (the :class:`~repro.system.config.SystemConfig` knobs).
    num_vaults: int = 2
    clusters_per_vault: int = 4
    #: Cycle engine (resolved through :mod:`repro.cluster.engine`).
    engine: str = DEFAULT_ENGINE
    #: Per-cluster NTX start stagger.
    stagger_cycles: int = 7

    def __post_init__(self) -> None:
        from repro.scenarios.workloads import FAMILIES  # avoid import cycle

        object.__setattr__(
            self,
            "params",
            {key: _normalize(value) for key, value in self.params.items()},
        )
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown workload family {self.family!r}; "
                f"available families: {tuple(FAMILIES)}"
            )
        get_engine(self.engine)
        if self.num_tiles < 0:
            raise ValueError("tile count must be non-negative")
        merged = self.merged_params()  # unknown shape parameters fail here too
        cluster = self.system_config().cluster
        shape = (self.family, repr(merged), cluster)
        if shape not in _BUILT_SHAPES:
            # Building the family's template (and discarding it) rejects a
            # bad shape here, before any simulation or server job starts.
            FAMILIES[self.family].builder(merged, cluster)
            _BUILT_SHAPES.add(shape)

    # -- derived objects -----------------------------------------------------

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` this scenario runs on."""
        return SystemConfig(
            num_vaults=self.num_vaults,
            clusters_per_vault=self.clusters_per_vault,
            engine=self.engine,
            stagger_cycles=self.stagger_cycles,
        )

    def merged_params(self) -> Dict[str, Any]:
        """Family defaults overlaid with this spec's ``params``."""
        from repro.scenarios.workloads import FAMILIES

        family = FAMILIES[self.family]
        unknown = set(self.params) - set(family.default_params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for family "
                f"{self.family!r}; accepted: {sorted(family.default_params)}"
            )
        merged = dict(family.default_params)
        merged.update(self.params)
        return merged

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (validated like new)."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-compatible)."""
        data = asdict(self)
        data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        if not isinstance(data, Mapping):
            raise ValueError("a scenario spec must be a mapping")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"accepted: {sorted(fields)}"
            )
        missing = {"name", "family"} - set(data)
        if missing:
            raise ValueError(f"scenario spec is missing {sorted(missing)}")
        payload = dict(data)
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("params must be a mapping")
        payload["params"] = dict(params)
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
