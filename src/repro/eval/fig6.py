"""Figure 6 — training energy efficiency of NTX vs GPUs and NeuroStream.

The bar chart compares the geometric-mean training efficiency of the GPUs,
NS (NeuroStream) and the largest NTX configurations that require no extra
LiM dies: NTX 32x in 22 nm and NTX 64x in 14 nm.  The paper's headline is a
2.5x advantage over 28 nm-class GPUs for the 22 nm configuration and a 3x
advantage over 16 nm GPUs for the 14 nm configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.eval.table2 import PAPER_NTX_ROWS, build_workloads
from repro.perf.baselines import GPU_BASELINES, ACCELERATOR_BASELINES, best_gpu_geomean
from repro.perf.energy import EnergyModel
from repro.perf.scaling import largest_configuration_without_lim
from repro.perf.technology import TECH_14NM, TECH_22FDX

__all__ = ["Fig6Result", "run", "PAPER_RATIOS"]

#: The headline ratios quoted in the paper's Figure 6 caption.
PAPER_RATIOS = {"22nm_vs_gpu": 2.5, "14nm_vs_gpu": 3.0}


@dataclass
class Fig6Result:
    """Bars of Figure 6 plus the two headline ratios."""

    bars: Dict[str, float]
    ratio_22nm_vs_gpu: float
    ratio_14nm_vs_gpu: float
    paper_bars: Dict[str, float]


def run(batch: int = 64, energy_model: Optional[EnergyModel] = None) -> Fig6Result:
    """Model every bar of Figure 6 and the two headline GPU ratios.

    The NTX bars are the geometric-mean training efficiency over the six
    Table-II networks of the largest configurations needing no extra LiM
    dies; GPU and NeuroStream bars are the published baseline values.
    """
    energy = energy_model or EnergyModel()
    workloads = build_workloads(batch)

    def geomean_for(config) -> float:
        values = [
            energy.training_efficiency(config, w.operational_intensity, w.utilization())
            for w in workloads.values()
        ]
        return math.exp(sum(math.log(v) for v in values) / len(values))

    ntx32_22 = largest_configuration_without_lim(TECH_22FDX)
    ntx64_14 = largest_configuration_without_lim(TECH_14NM)

    bars: Dict[str, float] = {}
    paper_bars: Dict[str, float] = {}
    for gpu in GPU_BASELINES:
        bars[gpu.name] = gpu.geomean_efficiency
        paper_bars[gpu.name] = gpu.geomean_efficiency
    ns = next(b for b in ACCELERATOR_BASELINES if b.name.startswith("NS"))
    bars[ns.name] = ns.geomean_efficiency
    paper_bars[ns.name] = ns.geomean_efficiency
    bars[ntx32_22.name] = geomean_for(ntx32_22)
    bars[ntx64_14.name] = geomean_for(ntx64_14)
    paper_bars[ntx32_22.name] = PAPER_NTX_ROWS[ntx32_22.name]["geomean"]
    paper_bars[ntx64_14.name] = PAPER_NTX_ROWS[ntx64_14.name]["geomean"]

    gpu_28nm = best_gpu_geomean((28, 28)).geomean_efficiency
    gpu_16nm = best_gpu_geomean((14, 16)).geomean_efficiency
    return Fig6Result(
        bars=bars,
        ratio_22nm_vs_gpu=bars[ntx32_22.name] / gpu_28nm,
        ratio_14nm_vs_gpu=bars[ntx64_14.name] / gpu_16nm,
        paper_bars=paper_bars,
    )
