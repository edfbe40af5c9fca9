"""Analytic experiment harnesses — one module per analytic table/figure.

Every harness exposes a ``run()`` function returning a structured result
(dictionaries / dataclasses with both the paper's reported value and the
model's value where applicable).  The harnesses are the computation
behind the analytic artifacts of :mod:`repro.report`, which is the only
description of the paper's artefacts: ``python -m repro.eval <name>``
prints one of them and ``python -m repro.eval report --all --quick``
assembles them all into ``docs/paper_results.md``.
"""

from repro.eval import table1, table2, fig5, fig6, fig7, precision, greenwave

__all__ = [
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "precision",
    "greenwave",
]
