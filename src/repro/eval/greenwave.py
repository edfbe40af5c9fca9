"""§IV HPC comparison — the Green Wave seismic-modelling stencil.

The related-work section estimates that an NTX 16x system reaches about
130 Gflop/s at 11 Gflop/s W on the 8th-order Laplacian stencil used by the
Green Wave seismic accelerator, versus Green Wave's 82.5 Gflop/s at
1.25 Gflop/s W and a contemporary GPU's 145 Gflop/s at 0.33 Gflop/s W.  The
harness evaluates the same stencil (an 8th-order, 25-point star in 3D) with
the kernel execution-time model scaled to 16 clusters and the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.kernels.specs import KernelSpec
from repro.perf.energy import EnergyModel
from repro.perf.kernel_model import KernelExecutionModel
from repro.perf.scaling import NtxSystemConfig
from repro.perf.technology import TECH_22FDX

__all__ = ["GreenWaveResult", "run", "PAPER_VALUES"]

_WORD = 4

#: Published comparison points (from the paper's §IV).
PAPER_VALUES = {
    "Green Wave": {"gflops": 82.5, "gflops_w": 1.25},
    "GPU": {"gflops": 145.0, "gflops_w": 0.33},
    "NTX 16x (paper estimate)": {"gflops": 130.0, "gflops_w": 11.0},
}


def eighth_order_stencil_spec(points: int = 1 << 22) -> KernelSpec:
    """An 8th-order (radius-4) star stencil in 3D: 25 coefficients per point.

    Decomposed into three 9-tap separable passes on NTX.  An 8th-order star
    has a radius of four grid points, so the pencils of the y/z passes do
    not fit the TCDM together with their halos and every pass streams the
    field from DRAM again: per grid point, each of the three passes reads
    its input once and reads+writes the accumulating output (nine words of
    traffic per point in total).
    """
    coefficients = 25
    flops = 2 * coefficients * points
    dram_bytes = _WORD * points * 3 * (1 + 2)
    return KernelSpec(
        name="LAP3D order-8",
        flops=flops,
        dram_bytes=dram_bytes,
        num_commands=max(1, 3 * points // 4096),
        iterations=coefficients * points,
        params={"points": points, "order": 8},
    )


@dataclass(frozen=True)
class GreenWaveResult:
    ntx16_gflops: float
    ntx16_gflops_w: float
    paper: Dict[str, Dict[str, float]]


def run(points: int = 1 << 22) -> GreenWaveResult:
    """Estimate NTX 16x performance and efficiency on the seismic stencil."""
    spec = eighth_order_stencil_spec(points)
    system = NtxSystemConfig(technology=TECH_22FDX, num_clusters=16)
    per_cluster_model = KernelExecutionModel()
    per_cluster = per_cluster_model.evaluate(spec)
    # 16 clusters work on independent subdomains of the volume.
    total_gflops = per_cluster.achieved_gflops * system.num_clusters
    energy = EnergyModel()
    breakdown = energy.training_breakdown(
        system,
        operational_intensity=spec.operational_intensity,
        utilization=min(1.0, per_cluster.achieved_flops / (16 * 2 * per_cluster.frequency_hz)),
        name="NTX 16x seismic stencil",
    )
    return GreenWaveResult(
        ntx16_gflops=total_gflops,
        ntx16_gflops_w=breakdown.efficiency_gops_w,
        paper=PAPER_VALUES,
    )
