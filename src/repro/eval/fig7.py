"""Figure 7 — compute density (Gop/s per mm^2) of NTX vs GPUs and DaDianNao.

Same platforms as Figure 6 plus DaDianNao; the metric is peak throughput per
deployed silicon area.  The paper's headline: NTX 32x in 22 nm offers 6.5x
and NTX 64x in 14 nm 10.4x the area efficiency of GPUs in comparable nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.perf.baselines import (
    ACCELERATOR_BASELINES,
    GPU_BASELINES,
    best_gpu_area_efficiency,
)
from repro.perf.scaling import largest_configuration_without_lim
from repro.perf.technology import TECH_14NM, TECH_22FDX

__all__ = ["Fig7Result", "run", "PAPER_RATIOS"]

#: The headline ratios quoted in the paper's Figure 7 caption.
PAPER_RATIOS = {"22nm_vs_gpu": 6.5, "14nm_vs_gpu": 10.4}


@dataclass
class Fig7Result:
    bars: Dict[str, float]
    ratio_22nm_vs_gpu: float
    ratio_14nm_vs_gpu: float


def run() -> Fig7Result:
    """Model every bar of Figure 7 and the two headline area-density ratios."""
    ntx32_22 = largest_configuration_without_lim(TECH_22FDX)
    ntx64_14 = largest_configuration_without_lim(TECH_14NM)

    bars: Dict[str, float] = {}
    for gpu in GPU_BASELINES:
        bars[gpu.name] = gpu.area_efficiency_gops_per_mm2
    for accelerator in ACCELERATOR_BASELINES:
        if accelerator.area_efficiency_gops_per_mm2:
            bars[accelerator.name] = accelerator.area_efficiency_gops_per_mm2
    bars[ntx32_22.name] = ntx32_22.area_efficiency_gops_per_mm2
    bars[ntx64_14.name] = ntx64_14.area_efficiency_gops_per_mm2

    gpu_28nm = best_gpu_area_efficiency((28, 28)).area_efficiency_gops_per_mm2
    gpu_16nm = best_gpu_area_efficiency((14, 16)).area_efficiency_gops_per_mm2
    return Fig7Result(
        bars=bars,
        ratio_22nm_vs_gpu=bars[ntx32_22.name] / gpu_28nm,
        ratio_14nm_vs_gpu=bars[ntx64_14.name] / gpu_16nm,
    )
