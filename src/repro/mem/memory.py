"""Flat byte-addressable memory.

All storage in the model (TCDM data array, the 1.25 MB L2, DRAM vaults) is
backed by this class: a zero-initialised NumPy ``uint8`` array with
little-endian scalar accessors, a writable float32 :meth:`Memory.words`
view for the array data plane, and bulk load/store helpers used by the
kernel library and the DMA engine.

``np.zeros`` allocates through ``calloc``, so a large memory is lazily
zeroed: the OS maps a page in on its first touch, and an HMC whose
workload touches a few MiB of its 64 MiB costs only those pages in time
and resident memory.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["Memory"]


class Memory:
    """A little-endian byte-addressable memory of fixed size."""

    def __init__(self, size: int, base: int = 0, name: str = "mem") -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.base = base
        self.name = name
        self.data = np.zeros(size, dtype=np.uint8)
        self.reads = 0
        self.writes = 0

    # -- address checking ----------------------------------------------------

    def _offset(self, address: int, length: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + length > self.size:
            raise IndexError(
                f"{self.name}: access of {length} bytes at {address:#010x} outside "
                f"[{self.base:#010x}, {self.base + self.size:#010x})"
            )
        return offset

    def contains(self, address: int, length: int = 1) -> bool:
        offset = address - self.base
        return 0 <= offset and offset + length <= self.size

    # -- scalar accessors ------------------------------------------------------

    def read_u8(self, address: int) -> int:
        self.reads += 1
        return int(self.data[self._offset(address, 1)])

    def write_u8(self, address: int, value: int) -> None:
        self.writes += 1
        self.data[self._offset(address, 1)] = value & 0xFF

    def read_u32(self, address: int) -> int:
        self.reads += 1
        offset = self._offset(address, 4)
        return struct.unpack_from("<I", self.data, offset)[0]

    def write_u32(self, address: int, value: int) -> None:
        self.writes += 1
        offset = self._offset(address, 4)
        struct.pack_into("<I", self.data, offset, value & 0xFFFFFFFF)

    def read_u16(self, address: int) -> int:
        self.reads += 1
        offset = self._offset(address, 2)
        return struct.unpack_from("<H", self.data, offset)[0]

    def write_u16(self, address: int, value: int) -> None:
        self.writes += 1
        offset = self._offset(address, 2)
        struct.pack_into("<H", self.data, offset, value & 0xFFFF)

    def read_f32(self, address: int) -> float:
        self.reads += 1
        offset = self._offset(address, 4)
        return struct.unpack_from("<f", self.data, offset)[0]

    def write_f32(self, address: int, value: float) -> None:
        self.writes += 1
        offset = self._offset(address, 4)
        struct.pack_into("<f", self.data, offset, float(np.float32(value)))

    # -- bulk accessors ----------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self.reads += 1
        offset = self._offset(address, length)
        return self.data[offset : offset + length].tobytes()

    def write_bytes(self, address: int, payload) -> None:
        """Store any bytes-like ``payload`` (``bytes``, ``bytearray``, ...)."""
        self.writes += 1
        raw = np.frombuffer(payload, dtype=np.uint8)
        offset = self._offset(address, raw.size)
        self.data[offset : offset + raw.size] = raw

    def words(self) -> np.ndarray:
        """A writable little-endian float32 view of the whole memory."""
        return self.data.view("<f4")

    def store_array(self, address: int, array: np.ndarray) -> None:
        """Store a NumPy array as float32 (row-major) starting at ``address``."""
        payload = np.ascontiguousarray(array, dtype=np.float32).tobytes()
        self.write_bytes(address, payload)

    def load_array(self, address: int, shape: tuple, dtype=np.float32) -> np.ndarray:
        """Load a row-major float32 array of ``shape`` starting at ``address``."""
        count = int(np.prod(shape))
        raw = self.read_bytes(address, count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def store_words(self, address: int, words: list[int]) -> None:
        for i, word in enumerate(words):
            self.write_u32(address + 4 * i, word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Memory({self.name}, {self.size} B @ {self.base:#010x})"
