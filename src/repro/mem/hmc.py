"""Hybrid Memory Cube (HMC) substrate.

The paper's system-level evaluation places the processing clusters on the
logic base (LoB) of an HMC 2.0 device: 1 GB of DRAM organised in 32 vaults
of 4 stacked DRAM dies, each vault served by its own vault controller, a
main LoB interconnect (256 bit at 1 GHz) and four off-cube serial links.
The clusters attach to the main interconnect and therefore see the full
aggregate vault bandwidth minus what the serial links consume.

We model the HMC at the level the paper's evaluation needs it:

* a backing :class:`~repro.mem.memory.Memory` holding the full cube capacity
  (sized down by default so tests stay light — the capacity is a parameter);
* per-vault bandwidth/latency bookkeeping so multi-cluster sweeps can check
  that the clusters' aggregate AXI traffic stays below the cube's internal
  bandwidth;
* serial-link bandwidth for traffic leaving the cube (used by the
  multi-cube scaling discussion of the TC paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.mem.memory import Memory

__all__ = ["HmcConfig", "Vault", "Hmc"]


@dataclass(frozen=True)
class HmcConfig:
    """Architectural parameters of the modelled HMC 2.0 device."""

    #: Number of vaults (vertical slices) in the cube.
    num_vaults: int = 32
    #: DRAM banks per vault (4 dies x 4 banks in HMC 2.0 lingo, simplified).
    banks_per_vault: int = 4
    #: Total cube capacity in bytes.  The real device holds 1 GB; the model
    #: defaults to 64 MB.  The backing :class:`~repro.mem.memory.Memory` is
    #: lazily zeroed, so capacity costs time and resident memory only for
    #: the pages a workload touches; the performance model only uses the
    #: bandwidth/latency figures anyway.
    capacity_bytes: int = 64 * 1024 * 1024
    #: Peak bandwidth of one vault controller in bytes/s (10 GB/s per vault
    #: gives the 320 GB/s aggregate commonly quoted for HMC 2.0).
    vault_bandwidth_bytes_per_s: float = 10e9
    #: Closed-page access latency of a vault in nanoseconds.
    vault_latency_ns: float = 45.0
    #: Number of off-cube serial links and their per-link bandwidth.
    num_serial_links: int = 4
    serial_link_bandwidth_bytes_per_s: float = 15e9
    #: Width and clock of the main LoB interconnect.
    lob_width_bits: int = 256
    lob_frequency_hz: float = 1e9
    #: Base address of the cube in the global address map.
    base_address: int = 0x8000_0000

    @property
    def aggregate_vault_bandwidth(self) -> float:
        return self.num_vaults * self.vault_bandwidth_bytes_per_s

    @property
    def lob_bandwidth_bytes_per_s(self) -> float:
        return (self.lob_width_bits // 8) * self.lob_frequency_hz

    @property
    def aggregate_serial_bandwidth(self) -> float:
        return self.num_serial_links * self.serial_link_bandwidth_bytes_per_s


@dataclass
class Vault:
    """Bandwidth/latency bookkeeping of one vault controller."""

    index: int
    bandwidth_bytes_per_s: float
    latency_ns: float
    bytes_served: int = 0
    requests: int = 0

    def record(self, num_bytes: int) -> None:
        self.bytes_served += num_bytes
        self.requests += 1

    def service_time_s(self, num_bytes: int) -> float:
        """Latency plus serialisation delay for a request of ``num_bytes``."""
        return self.latency_ns * 1e-9 + num_bytes / self.bandwidth_bytes_per_s


class Hmc:
    """The Hybrid Memory Cube seen by the processing clusters."""

    def __init__(self, config: HmcConfig | None = None) -> None:
        self.config = config or HmcConfig()
        self.memory = Memory(
            self.config.capacity_bytes, base=self.config.base_address, name="hmc"
        )
        self.vaults: List[Vault] = [
            Vault(
                index=i,
                bandwidth_bytes_per_s=self.config.vault_bandwidth_bytes_per_s,
                latency_ns=self.config.vault_latency_ns,
            )
            for i in range(self.config.num_vaults)
        ]
        self.serial_link_bytes = 0

    # -- address mapping ------------------------------------------------------

    @property
    def base(self) -> int:
        return self.config.base_address

    def vault_of(self, address: int) -> Vault:
        """Vaults interleave at 256 B granularity (HMC "block" size)."""
        offset = address - self.config.base_address
        index = (offset // 256) % self.config.num_vaults
        return self.vaults[index]

    # -- data access ------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self.vault_of(address).record(length)
        return self.memory.read_bytes(address, length)

    def write_bytes(self, address: int, payload: bytes) -> None:
        self.vault_of(address).record(len(payload))
        self.memory.write_bytes(address, payload)

    def read_f32(self, address: int) -> float:
        self.vault_of(address).record(4)
        return self.memory.read_f32(address)

    def write_f32(self, address: int, value: float) -> None:
        self.vault_of(address).record(4)
        self.memory.write_f32(address, value)

    def store_array(self, address: int, array) -> None:
        self.vault_of(address).record(array.nbytes)
        self.memory.store_array(address, array)

    def load_array(self, address: int, shape, dtype=None):
        import numpy as np

        dtype = dtype or np.float32
        count = int(np.prod(shape)) * np.dtype(dtype).itemsize
        self.vault_of(address).record(count)
        return self.memory.load_array(address, shape, dtype)

    # -- capacity / bandwidth checks ---------------------------------------------

    def supports_cluster_count(self, num_clusters: int, per_cluster_gbs: float) -> bool:
        """Whether the cube's internal bandwidth can feed ``num_clusters``.

        Used by the multi-cluster scaling model: the aggregate AXI traffic of
        all clusters must stay below the aggregate vault bandwidth.  (The
        main LoB interconnect is a distributed crossbar between vaults and
        clusters, so the single-link 256 bit figure is not the aggregate
        limit.)
        """
        demand = num_clusters * per_cluster_gbs * 1e9
        return demand <= self.config.aggregate_vault_bandwidth

    @property
    def stats(self) -> dict:
        return {
            "vault_bytes": [v.bytes_served for v in self.vaults],
            "total_bytes": sum(v.bytes_served for v in self.vaults),
            "serial_link_bytes": self.serial_link_bytes,
        }
