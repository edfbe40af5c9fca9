"""§II-C precision claim — the PCS accumulator vs a conventional FP32 FPU.

The paper states that thanks to the wide partial-carry-save accumulator and
deferred rounding, NTX achieves a root-mean-squared error 1.7x lower than a
conventional 32 bit FPU on a DNN convolution layer.  The harness reproduces
the experiment: a convolution layer's output pixels are each a long FMAC
reduction; every output is computed (a) exactly, (b) with per-step binary32
rounding, and (c) with the PCS accumulator, and the two RMSEs are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.softfloat import (
    fmac_chain_float32,
    fmac_chain_pcs,
    rmse,
)

__all__ = ["PrecisionResult", "run", "PAPER_IMPROVEMENT"]

#: The paper's reported RMSE advantage of the PCS accumulator.
PAPER_IMPROVEMENT = 1.7


@dataclass(frozen=True)
class PrecisionResult:
    rmse_float32: float
    rmse_pcs: float

    @property
    def improvement(self) -> float:
        """How much lower the PCS accumulator's RMSE is (paper: 1.7x)."""
        if self.rmse_pcs == 0:
            return float("inf")
        return self.rmse_float32 / self.rmse_pcs


def run(
    outputs: int = 256,
    reduction_length: int = 9,
    seed: int = 2019,
    scale_spread: float = 1.0,
) -> PrecisionResult:
    """Compute the RMSE of both accumulation schemes on a conv-layer reduction.

    ``reduction_length`` defaults to the nine MACs of a 3x3 convolution
    window — the reduction one NTX command accumulates per output pixel
    before its (single) write-back rounding, which is the granularity at
    which the paper's conv-layer analysis compares the two FPUs.  Longer
    reductions (accumulating over input channels as well) increase the PCS
    advantage further.  The reference for each output is computed
    at full precision from the *original* (binary64) activations and
    weights, as the paper does: both accumulation schemes operate on the
    binary32-quantised operands, so they share the input-quantisation error
    floor and differ only in the error added by per-step rounding — which is
    why the reported advantage is a factor rather than orders of magnitude.
    """
    from fractions import Fraction

    rng = np.random.default_rng(seed)
    errors_f32 = []
    errors_pcs = []
    exact_values = []
    for _ in range(outputs):
        magnitudes_a = 10.0 ** rng.uniform(-scale_spread / 2, scale_spread / 2, reduction_length)
        magnitudes_b = 10.0 ** rng.uniform(-scale_spread / 2, scale_spread / 2, reduction_length)
        a64 = rng.choice([-1.0, 1.0], reduction_length) * magnitudes_a
        b64 = rng.choice([-1.0, 1.0], reduction_length) * magnitudes_b
        exact = float(
            sum(Fraction(float(x)) * Fraction(float(y)) for x, y in zip(a64, b64))
        )
        a = a64.astype(np.float32)
        b = b64.astype(np.float32)
        errors_f32.append(fmac_chain_float32(a, b))
        errors_pcs.append(fmac_chain_pcs(a, b))
        exact_values.append(exact)
    return PrecisionResult(
        rmse_float32=rmse(errors_f32, exact_values),
        rmse_pcs=rmse(errors_pcs, exact_values),
    )
