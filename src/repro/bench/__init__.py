"""Machine-readable performance benchmarks and regression gates.

``python -m repro.bench`` executes the benchmark suites — the single-cluster
cycle engine, the ``repro.system`` scale-out path in its sequential,
memoized and batched variants, every registered workload scenario and
every registered design-space campaign — and writes one schema-valid
``BENCH_<suite>.json`` per suite (wall time, simulated cycles, cycles per
second, timing-cache hit rate, same-host speedups).  ``python -m repro.bench
compare`` gates those documents against the committed
``benchmarks/baseline.json`` with a tolerance threshold; the CI bench job
fails on regression.

* :mod:`repro.bench.runner` — the scenarios and the suite runner.
* :mod:`repro.bench.schema` — the document format and its validator.
* :mod:`repro.bench.compare` — direction-aware baseline gating.
"""

from repro.bench.compare import MetricCheck, compare_documents, format_report
from repro.bench.runner import (
    GATE_PREFIXES,
    SUITES,
    derive_baseline,
    format_document,
    run_suite,
    run_suites,
    write_document,
)
from repro.bench.schema import SCHEMA_VERSION, validate_document

__all__ = [
    "GATE_PREFIXES",
    "SCHEMA_VERSION",
    "SUITES",
    "MetricCheck",
    "compare_documents",
    "derive_baseline",
    "format_document",
    "format_report",
    "run_suite",
    "run_suites",
    "validate_document",
    "write_document",
]
