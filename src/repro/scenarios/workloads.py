"""Workload families of the scenario subsystem.

Every family turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
list of :class:`~repro.cluster.tiling.TileSchedule` objects staged in the
shared HMC — the same schedule format the system simulator executes — plus
the NumPy golden reference of every output region, so a run can always be
verified end to end (:meth:`ScenarioWorkload.verify`).

A family states its tile once: a :class:`_Template` (the TCDM layout, the
command stream and its placements, the constants staged once in the HMC)
plus a ``draw(rng) -> (inputs, goldens)`` closure producing one tile's
data.  :func:`build_workload` stages every tile against that template, so
all tiles of a build share the template's (frozen) command objects and
differ only in their HMC addresses and data — the configure-once command
stream of §II-E with double-buffered DMA streaming each tile through the
TCDM.

Five hand-written families ship, all built on the existing kernel library:

* ``conv`` — independent 2D-convolution tiles, output rows banded across
  the co-processors.
* ``matmul`` — tiled GEMM (:mod:`repro.kernels.blas`), output rows split
  across the co-processors.
* ``stencil`` — the 2D discrete Laplace operator
  (:mod:`repro.kernels.stencil`): a horizontal init pass and a vertical
  accumulate pass, pinned to one NTX per tile because the passes are
  dependent.
* ``dnn`` — one training micro-step of a small convolution layer
  (forward, loss gradient, weight gradient, SGD update), one dependent
  command chain per output channel, chains spread across the
  co-processors.
* ``opstream`` — one streaming command of a single NTX opcode on one
  co-processor (no bank conflicts possible), the campaign-stack port of
  the Figure 3(b) throughput harness: every opcode's cycles/element is
  measured from a golden-verified scenario run instead of a bespoke
  simulator loop.

Two further families are *compiled* rather than hand-written — their
``params`` are declarative specs that :mod:`repro.scenarios.compiler`
turns into command streams plus auto-derived goldens:

* ``cstencil`` — one :class:`~repro.scenarios.compiler.StencilSpec`
  (neighborhood/radius/per-distance coefficients/2D-3D grid/boundary)
  per scenario; 2D tiles compile to a single convolution command, 3D
  tiles to per-plane accumulate chains spread across the co-processors.
* ``pipeline`` — a :class:`~repro.scenarios.compiler.PipelineSpec` stage
  chain (stencils, optionally ending in a streaming reduction) whose
  intermediate buffers stay resident in the TCDM; the whole chain is one
  dependent command stream pinned to one NTX per tile.

**Data discipline.**  All generators draw operands from a power-of-two
lattice (multiples of 1/16 in [-2, 2)).  Every intermediate of every
family then stays exactly representable in float64, so the scalar
engine's partial-carry-save accumulator, the vectorized engine's float64
data plane and the NumPy golden model all round the *same exact value* to
binary32 — making scalar-vs-vectorized HMC contents bit-identical, not
merely close, which is why :meth:`ScenarioWorkload.verify` compares bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterConfig
from repro.cluster.tiling import TileSchedule
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.kernels.blas import axpy_commands, gemm_commands
from repro.kernels.conv import (
    conv2d_commands,
    conv2d_f64,
    conv2d_multichannel_commands,
    conv2d_reference,
)
from repro.kernels.stencil import LAPLACE_TAPS, laplace_2d_reference, laplace_commands
from repro.scenarios.compiler import PipelineSpec, StencilSpec
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import Hmc
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "FAMILIES",
    "ScenarioWorkload",
    "WorkloadFamily",
    "build_workload",
]

_WORD = 4


@dataclass
class ScenarioWorkload:
    """Tiles plus everything needed to verify the run end to end."""

    family: str
    tiles: List[TileSchedule]
    #: ``(hmc_addr, expected float32 array)`` per verified output region.
    references: List[Tuple[int, np.ndarray]] = field(default_factory=list)

    def verify(self, hmc: Hmc) -> None:
        """Assert every output region in the HMC equals its golden model
        bit for bit (raises ``AssertionError`` on the first mismatch)."""
        for address, expected in self.references:
            produced = hmc.memory.load_array(address, expected.shape)
            np.testing.assert_array_equal(produced, expected)


@dataclass(frozen=True)
class _Template:
    """What every tile of one build shares.

    Per-tile data comes from the family's ``draw`` closure; its inputs are
    staged in the HMC in draw order and its goldens size the outputs.
    """

    commands: List[NtxCommand]
    #: TCDM address each drawn input is transferred to, in draw order;
    #: ``None`` stages the input in the HMC without transferring it.
    inputs: Sequence[Optional[int]]
    #: ``(TCDM address, input index)`` per golden: the output returns over
    #: that input's HMC region, or (``None``) to a freshly allocated one.
    outputs: Sequence[Tuple[int, Optional[int]]]
    #: ``(TCDM address, value)`` staged once ahead of every tile and
    #: transferred after each tile's inputs.
    constants: Sequence[Tuple[int, np.ndarray]] = ()
    #: NTX id per command (``None``: round-robin, see :class:`TileSchedule`).
    placements: Optional[List[int]] = None


#: ``draw(rng) -> (inputs, goldens)``: one tile's staged float32 inputs and
#: the expected float32 contents of its output regions.
_Draw = Callable[[np.random.Generator], Tuple[List[np.ndarray], List[np.ndarray]]]


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered workload family: defaults plus the tile builder."""

    name: str
    description: str
    default_params: Dict[str, Any]
    #: ``builder(merged params, cluster) -> (template, draw)``; pure, so
    #: ``ScenarioSpec`` also calls it at construction to validate a shape.
    builder: Callable[[Dict[str, Any], ClusterConfig], Tuple[_Template, _Draw]]


# --------------------------------------------------------------------------- #
# Shared plumbing                                                              #
# --------------------------------------------------------------------------- #


def _lattice(rng: np.random.Generator, shape) -> np.ndarray:
    """Float32 operands on the 1/16 lattice in [-2, 2).

    Products and partial sums of lattice values stay exact in float64 (and
    in the PCS accumulator), which is what pins the two cycle engines and
    the golden model to identical binary32 results.
    """
    return (rng.integers(-32, 32, size=shape) / 16.0).astype(np.float32)


class _Cursor:
    """Bump allocator over a fixed address window (TCDM or HMC)."""

    def __init__(self, base: int, size: int, what: str) -> None:
        self.base = base
        self.limit = base + size
        self.position = base
        self.what = what

    def alloc(self, nbytes: int) -> int:
        address = self.position
        self.position += nbytes
        if self.position > self.limit:
            raise MemoryError(
                f"workload exceeds the {self.what} "
                f"({self.position - self.base} > {self.limit - self.base} bytes)"
            )
        return address


def _tcdm_layout(cluster: ClusterConfig) -> _Cursor:
    return _Cursor(cluster.tcdm.base_address, cluster.tcdm.size_bytes, "TCDM")


def _stage(hmc: Hmc, cursor: _Cursor, array: np.ndarray) -> int:
    """Allocate HMC space for ``array``, store it, return the address."""
    address = cursor.alloc(array.nbytes)
    hmc.memory.store_array(address, array)
    return address


def _transfer(src: int, dst: int, nbytes: int) -> DmaTransfer:
    return DmaTransfer(src=src, dst=dst, row_bytes=nbytes)


def _stream(address: int, stride: int = _WORD) -> AguConfig:
    """A unit-stride (or stationary, ``stride=0``) single-loop stream."""
    return AguConfig(base=address, strides=(stride, 0, 0, 0, 0))


# --------------------------------------------------------------------------- #
# conv — independent banded convolution tiles                                  #
# --------------------------------------------------------------------------- #


def _conv(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """Independent 2D convolutions, one tile each, output rows banded.

    Every tile stages one image and one kernel into the TCDM and splits the
    output rows into up to ``num_ntx`` bands (one NTX command each, with the
    ``kernel - 1`` halo rows re-read from the shared input).
    """
    height, width = params["image_shape"]
    kernel = params["kernel"]
    out_h, out_w = height - kernel + 1, width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than image")

    layout = _tcdm_layout(cluster)
    tcdm_image = layout.alloc(height * width * _WORD)
    tcdm_weights = layout.alloc(kernel * kernel * _WORD)
    tcdm_out = layout.alloc(out_h * out_w * _WORD)
    rows_per_band = -(-out_h // min(cluster.num_ntx, out_h))
    commands = [
        conv2d_commands(
            min(rows_per_band, out_h - row_start) + kernel - 1,
            width,
            kernel,
            tcdm_image + row_start * width * _WORD,
            tcdm_weights,
            tcdm_out + row_start * out_w * _WORD,
        )[0]
        for row_start in range(0, out_h, rows_per_band)
    ]

    def draw(rng):
        image = _lattice(rng, (height, width))
        weights = _lattice(rng, (kernel, kernel))
        return [image, weights], [conv2d_reference(image, weights)]

    template = _Template(
        commands, inputs=(tcdm_image, tcdm_weights), outputs=((tcdm_out, None),)
    )
    return template, draw


# --------------------------------------------------------------------------- #
# matmul — tiled GEMM                                                          #
# --------------------------------------------------------------------------- #


def _matmul(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """Independent ``m x k @ k x n`` tiles, output rows split across NTX."""
    m, k, n = params["m"], params["k"], params["n"]
    if min(m, k, n) <= 0:
        raise ValueError("matrix dimensions must be positive")

    layout = _tcdm_layout(cluster)
    tcdm_a = layout.alloc(m * k * _WORD)
    tcdm_b = layout.alloc(k * n * _WORD)
    tcdm_c = layout.alloc(m * n * _WORD)
    commands = gemm_commands(m, k, n, tcdm_a, tcdm_b, tcdm_c, split_rows=cluster.num_ntx)

    def draw(rng):
        a = _lattice(rng, (m, k))
        b = _lattice(rng, (k, n))
        c = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        return [a, b], [c]

    return _Template(commands, inputs=(tcdm_a, tcdm_b), outputs=((tcdm_c, None),)), draw


# --------------------------------------------------------------------------- #
# stencil — the 2D discrete Laplace operator                                   #
# --------------------------------------------------------------------------- #


def _stencil(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """Independent Laplace tiles; each tile's two passes run on one NTX.

    The horizontal pass initialises the output, the vertical pass
    accumulates into it (``init_source=AGU2``), so the command stream of a
    tile is order-dependent — pinning it to one co-processor makes both
    cycle engines execute it in program order.  Parallelism comes from
    scheduling many tiles across clusters.
    """
    height, width = params["field_shape"]
    out_h, out_w = height - 2, width - 2
    if out_h <= 0 or out_w <= 0:
        raise ValueError("field too small for the 3-point stencil")

    layout = _tcdm_layout(cluster)
    tcdm_field = layout.alloc(height * width * _WORD)
    tcdm_taps = layout.alloc(LAPLACE_TAPS.nbytes)
    tcdm_out = layout.alloc(out_h * out_w * _WORD)
    commands = laplace_commands(2, (height, width), tcdm_field, tcdm_taps, tcdm_out)

    def draw(rng):
        field_data = _lattice(rng, (height, width))
        return [field_data], [laplace_2d_reference(field_data)]

    template = _Template(
        commands,
        inputs=(tcdm_field,),
        outputs=((tcdm_out, None),),
        constants=((tcdm_taps, LAPLACE_TAPS),),
        placements=[0] * len(commands),
    )
    return template, draw


# --------------------------------------------------------------------------- #
# dnn — one training micro-step of a convolution layer                         #
# --------------------------------------------------------------------------- #


def _dnn_step(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """One SGD step of a small conv layer, per-output-channel chains.

    Per tile (one sample) and output channel ``co`` the chain is:

    1. forward — ``out[co] = sum_ci conv2d(image[ci], w[co, ci])``
       (accumulate-in-place, one command per input channel);
    2. loss gradient — ``grad[co] = out[co] - target[co]`` (one SUB);
    3. weight gradient — ``dW[co, ci] = conv2d(image[ci], grad[co])``
       (the correlation of the input with the output gradient, one
       command per input channel); and
    4. update — ``w[co, :] -= lr * dW[co, :]`` (one in-place AXPY).

    Chains for different output channels are independent, so chain ``co``
    is placed on co-processor ``co % num_ntx``; within a chain the
    commands are dependent and execute in order on their NTX.  Verified
    outputs are the updated weights (written back over the staged
    weights) and the loss gradients.
    """
    in_channels = params["in_channels"]
    out_channels = params["out_channels"]
    size = params["image_size"]
    kernel = params["kernel"]
    lr = params["learning_rate"]
    out_size = size - kernel + 1
    if out_size <= 0:
        raise ValueError("kernel larger than image")

    plane = size * size * _WORD
    filt = kernel * kernel * _WORD
    grad_plane = out_size * out_size * _WORD
    weights_bytes = out_channels * in_channels * filt
    target_bytes = out_channels * grad_plane

    layout = _tcdm_layout(cluster)
    tcdm_image = layout.alloc(in_channels * plane)
    tcdm_weights = layout.alloc(weights_bytes)
    tcdm_target = layout.alloc(target_bytes)
    tcdm_neg_lr = layout.alloc(_WORD)
    tcdm_out = layout.alloc(target_bytes)
    tcdm_grad = layout.alloc(target_bytes)
    tcdm_dw = layout.alloc(weights_bytes)

    commands: List[NtxCommand] = []
    placements: List[int] = []
    for co in range(out_channels):
        chain: List[NtxCommand] = []
        out_co = tcdm_out + co * grad_plane
        grad_co = tcdm_grad + co * grad_plane
        weights_co = tcdm_weights + co * in_channels * filt
        dw_co = tcdm_dw + co * in_channels * filt
        # 1) forward: accumulate the input channels into out[co].
        chain.extend(
            conv2d_multichannel_commands(
                in_channels, size, size, kernel, tcdm_image, weights_co, out_co
            )
        )
        # 2) loss gradient: grad[co] = out[co] - target[co].
        chain.append(
            NtxCommand(
                opcode=NtxOpcode.SUB,
                loops=LoopConfig.nest(out_size * out_size),
                agu0=_stream(out_co),
                agu1=_stream(tcdm_target + co * grad_plane),
                agu2=_stream(grad_co),
                init_level=0,
                store_level=0,
            )
        )
        # 3) weight gradient: correlate each input channel with grad[co]
        # (a conv2d whose "kernel" is the out_size x out_size gradient).
        for ci in range(in_channels):
            chain.append(
                conv2d_commands(
                    size, size, out_size, tcdm_image + ci * plane, grad_co, dw_co + ci * filt
                )[0]
            )
        # 4) SGD update over the channel's whole weight block.
        chain.append(
            axpy_commands(in_channels * kernel * kernel, tcdm_neg_lr, dw_co, weights_co)[0]
        )
        commands.extend(chain)
        placements.extend([co % cluster.num_ntx] * len(chain))

    def draw(rng):
        image = _lattice(rng, (in_channels, size, size))
        weights = _lattice(rng, (out_channels, in_channels, kernel, kernel))
        target = _lattice(rng, (out_channels, out_size, out_size))
        # Golden model, rounding to binary32 exactly where the engines do.
        grad_ref = np.empty((out_channels, out_size, out_size), dtype=np.float32)
        w_new = np.empty_like(weights)
        for co in range(out_channels):
            out_co = conv2d_reference(image[0], weights[co, 0])
            for ci in range(1, in_channels):
                out_co = (
                    out_co.astype(np.float64) + conv2d_f64(image[ci], weights[co, ci])
                ).astype(np.float32)
            grad_ref[co] = (
                out_co.astype(np.float64) - target[co].astype(np.float64)
            ).astype(np.float32)
            for ci in range(in_channels):
                dw = conv2d_reference(image[ci], grad_ref[co])
                w_new[co, ci] = (
                    weights[co, ci].astype(np.float64) - np.float64(lr) * dw.astype(np.float64)
                ).astype(np.float32)
        return [image, weights, target], [w_new, grad_ref]

    template = _Template(
        commands,
        inputs=(tcdm_image, tcdm_weights, tcdm_target),
        outputs=((tcdm_weights, 1), (tcdm_grad, None)),
        constants=((tcdm_neg_lr, np.array([-lr], dtype=np.float32)),),
        placements=placements,
    )
    return template, draw


# --------------------------------------------------------------------------- #
# opstream — one streaming command of a single opcode (Figure 3b)              #
# --------------------------------------------------------------------------- #


def _opstream_reference(
    opcode: NtxOpcode, a: np.ndarray, b: np.ndarray, scalar: float
) -> np.ndarray:
    """Golden output of one ``n``-element streaming command of ``opcode``.

    Mirrors the reference semantics of :func:`repro.core.golden.golden_execute`
    for a zero-initialised single-loop stream: reductions produce one word,
    element-wise opcodes produce ``n`` words.  Operands come from the
    power-of-two lattice, so float64 accumulation rounds to the same
    binary32 values as both cycle engines.
    """
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    if opcode is NtxOpcode.MAC:
        return np.array([np.sum(a64 * b64)], dtype=np.float32)
    if opcode is NtxOpcode.MUL:
        return (a64 * b64).astype(np.float32)
    if opcode is NtxOpcode.ADD:
        return (a64 + b64).astype(np.float32)
    if opcode is NtxOpcode.SUB:
        return (a64 - b64).astype(np.float32)
    if opcode is NtxOpcode.MAX:
        return np.array([np.max(a)], dtype=np.float32)
    if opcode is NtxOpcode.MIN:
        return np.array([np.min(a)], dtype=np.float32)
    if opcode is NtxOpcode.ARGMAX:
        return np.array([np.argmax(a)], dtype=np.float32)
    if opcode is NtxOpcode.ARGMIN:
        return np.array([np.argmin(a)], dtype=np.float32)
    if opcode is NtxOpcode.RELU:
        return np.maximum(a, np.float32(0.0))
    if opcode is NtxOpcode.THRESHOLD:
        return (a > np.float32(scalar)).astype(np.float32)
    if opcode is NtxOpcode.MASK:
        return np.where(b != 0.0, a, np.float32(0.0))
    if opcode is NtxOpcode.COPY:
        return a.copy()
    if opcode is NtxOpcode.FILL:
        return np.full(a.shape, np.float32(scalar), dtype=np.float32)
    raise ValueError(f"unsupported opcode {opcode}")  # pragma: no cover


def _opstream(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """One streaming command per tile, pinned to co-processor 0.

    The single-co-processor placement reproduces the conflict-free
    conditions of the paper's Figure 3(b) throughput table: with one NTX
    streaming, no TCDM banking conflicts are possible and every opcode
    sustains one element per cycle.  Reductions write one word, element-wise
    opcodes write the full output stream; both are verified against
    :func:`_opstream_reference`.  Both operands are staged in the HMC, but
    only the ones the opcode reads are transferred.
    """
    try:
        opcode = NtxOpcode(params["opcode"])
    except ValueError:
        raise ValueError(
            f"unknown opcode {params['opcode']!r}; accepted: "
            f"{sorted(op.value for op in NtxOpcode)}"
        ) from None
    n = params["n"]
    if n <= 0:
        raise ValueError("stream length must be positive")
    scalar = 0.5  # on the lattice, so THRESHOLD comparisons stay exact
    elementwise = not opcode.is_reduction
    out_words = n if elementwise else 1

    layout = _tcdm_layout(cluster)
    tcdm_a = layout.alloc(n * _WORD)
    tcdm_b = layout.alloc(n * _WORD)
    tcdm_out = layout.alloc(out_words * _WORD)
    command = NtxCommand(
        opcode=opcode,
        loops=LoopConfig.nest(n),
        agu0=_stream(tcdm_a),
        agu1=_stream(tcdm_b),
        agu2=_stream(tcdm_out, _WORD if elementwise else 0),
        init_level=0 if elementwise else 1,
        store_level=0 if elementwise else 1,
        init_source=InitSource.ZERO,
        scalar=scalar,
    )

    def draw(rng):
        a = _lattice(rng, n)
        b = _lattice(rng, n)
        return [a, b], [_opstream_reference(opcode, a, b, scalar)]

    template = _Template(
        [command],
        inputs=(
            tcdm_a if opcode.reads_operand0 else None,
            tcdm_b if opcode.reads_operand1 else None,
        ),
        outputs=((tcdm_out, None),),
        placements=[0],
    )
    return template, draw


# --------------------------------------------------------------------------- #
# cstencil — compiled declarative stencils                                     #
# --------------------------------------------------------------------------- #


def _compiled_stencil(
    params: Dict[str, Any], cluster: ClusterConfig
) -> Tuple[_Template, _Draw]:
    """Independent compiled-stencil tiles from a :class:`StencilSpec`.

    The spec's ``params`` *are* the declarative stencil; compilation
    expands the neighborhood into a dense kernel and emits the command
    stream plus chain ids (see :meth:`StencilSpec.commands`).  2D tiles
    are a single command; 3D tiles place each output plane's dependent
    accumulate chain on co-processor ``plane % num_ntx``.  Boundary
    padding happens here, host-side, when the field is staged.
    """
    stencil = StencilSpec.from_params(params)
    kernel = stencil.dense_kernel()

    layout = _tcdm_layout(cluster)
    tcdm_field = layout.alloc(int(np.prod(stencil.padded_shape)) * _WORD)
    tcdm_kernel = layout.alloc(kernel.nbytes)
    tcdm_out = layout.alloc(int(np.prod(stencil.output_shape)) * _WORD)
    commands, chains = stencil.commands(tcdm_field, tcdm_kernel, tcdm_out)

    def draw(rng):
        grid = _lattice(rng, stencil.grid_shape)
        return [stencil.pad(grid)], [stencil.reference(grid)]

    template = _Template(
        commands,
        inputs=(tcdm_field,),
        outputs=((tcdm_out, None),),
        constants=((tcdm_kernel, kernel),),
        placements=[chain % cluster.num_ntx for chain in chains],
    )
    return template, draw


# --------------------------------------------------------------------------- #
# pipeline — compiled stage chains                                             #
# --------------------------------------------------------------------------- #


def _pipeline(params: Dict[str, Any], cluster: ClusterConfig) -> Tuple[_Template, _Draw]:
    """Compiled stage chains from a :class:`PipelineSpec`.

    Stage outputs stay resident in the TCDM and feed the next stage, so
    each tile's whole chain is dependent and pinned to co-processor 0
    (parallelism comes from scheduling many tiles across clusters).  Only
    the staged input leaves and the final output returns via DMA — the
    intermediates never touch the HMC.
    """
    pipe = PipelineSpec.from_params(params)
    first = pipe.stages[0]
    pad = first.pad if isinstance(first, StencilSpec) else None
    staged_shape = first.padded_shape if pad else pipe.grid_shape

    layout = _tcdm_layout(cluster)
    tcdm_input = layout.alloc(int(np.prod(staged_shape)) * _WORD)
    constants: List[Tuple[int, np.ndarray]] = []  # (tcdm_addr, value)
    constant_addrs: Dict[int, int] = {}
    for index, stage in enumerate(pipe.stages):
        if isinstance(stage, StencilSpec):
            value: np.ndarray = stage.dense_kernel()
        elif stage.op == "sum":
            value = np.ones(1, dtype=np.float32)  # MAC against stationary 1.0
        else:
            continue  # max/min reductions need no constant
        constant_addrs[index] = layout.alloc(value.nbytes)
        constants.append((constant_addrs[index], value))
    commands, tcdm_out = pipe.compile(layout.alloc, tcdm_input, constant_addrs)

    def draw(rng):
        grid = _lattice(rng, pipe.grid_shape)
        return [pad(grid) if pad else grid], [pipe.reference(grid)]

    template = _Template(
        commands,
        inputs=(tcdm_input,),
        outputs=((tcdm_out, None),),
        constants=constants,
        placements=[0] * len(commands),
    )
    return template, draw


# --------------------------------------------------------------------------- #
# Family registry                                                              #
# --------------------------------------------------------------------------- #

FAMILIES: Dict[str, WorkloadFamily] = {
    family.name: family
    for family in (
        WorkloadFamily(
            name="conv",
            description="independent 2D-convolution tiles, rows banded across NTX",
            default_params={"image_shape": (12, 14), "kernel": 3},
            builder=_conv,
        ),
        WorkloadFamily(
            name="matmul",
            description="tiled GEMM, output rows split across NTX",
            default_params={"m": 8, "k": 12, "n": 10},
            builder=_matmul,
        ),
        WorkloadFamily(
            name="stencil",
            description="2D discrete Laplace operator, two dependent passes",
            default_params={"field_shape": (10, 12)},
            builder=_stencil,
        ),
        WorkloadFamily(
            name="dnn",
            description="one SGD step of a conv layer (fwd, grads, update)",
            default_params={
                "in_channels": 2,
                "out_channels": 4,
                "image_size": 8,
                "kernel": 3,
                "learning_rate": 0.125,
            },
            builder=_dnn_step,
        ),
        WorkloadFamily(
            name="opstream",
            description="one streaming command of a single opcode (Fig. 3b)",
            default_params={"opcode": "mac", "n": 512},
            builder=_opstream,
        ),
        WorkloadFamily(
            name="cstencil",
            description="compiled declarative stencil (neighborhood/radius/rings)",
            default_params={
                "neighborhood": "moore",
                "radius": 1,
                "coefficients": "auto",
                "grid_shape": (12, 14),
                "boundary": "valid",
            },
            builder=_compiled_stencil,
        ),
        WorkloadFamily(
            name="pipeline",
            description="compiled stencil stage chain with optional reduction",
            default_params={
                "grid_shape": (12, 12),
                "stages": (
                    {
                        "kind": "stencil",
                        "neighborhood": "von_neumann",
                        "radius": 1,
                        "coefficients": "auto",
                        "boundary": "valid",
                    },
                    {"kind": "reduce", "op": "sum"},
                ),
            },
            builder=_pipeline,
        ),
    )
}


def build_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: Optional[ClusterConfig] = None
) -> ScenarioWorkload:
    """Build ``spec``'s workload staged in ``hmc`` for ``cluster``'s TCDM.

    The family's template is built once; the HMC then holds its constants
    first and, per tile, the drawn inputs in draw order followed by the
    freshly allocated output regions.  Every tile shares the template's
    command objects.
    """
    family = FAMILIES[spec.family]  # spec validated the name at construction
    template, draw = family.builder(spec.merged_params(), cluster or ClusterConfig())
    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    constants = [
        _transfer(_stage(hmc, cursor, value), address, value.nbytes)
        for address, value in template.constants
    ]
    workload = ScenarioWorkload(family=spec.family, tiles=[])
    for _ in range(spec.num_tiles):
        inputs, goldens = draw(rng)
        staged = [_stage(hmc, cursor, array) for array in inputs]
        transfers_in = [
            _transfer(src, dst, array.nbytes)
            for src, dst, array in zip(staged, template.inputs, inputs, strict=True)
            if dst is not None
        ]
        transfers_out = []
        for (tcdm_addr, over), golden in zip(template.outputs, goldens, strict=True):
            hmc_addr = cursor.alloc(golden.nbytes) if over is None else staged[over]
            transfers_out.append(_transfer(tcdm_addr, hmc_addr, golden.nbytes))
            workload.references.append((hmc_addr, golden))
        workload.tiles.append(
            TileSchedule(
                transfers_in=transfers_in + constants,
                commands=list(template.commands),
                transfers_out=transfers_out,
                placements=(
                    None if template.placements is None else list(template.placements)
                ),
            )
        )
    return workload
