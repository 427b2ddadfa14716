"""Off-chip DRAM model for the FPGA card.

The KCU1500 carries 16 GB of DDR4.  What matters for the engine's timing
(paper §V-B1) is that a DRAM read costs 7-8 cycles of request latency
versus 1 cycle for on-chip memory, so the design issues *few large* reads
(whole data blocks) streamed at the AXI width rather than many small ones.
This model provides a flat byte-addressable space with read/write request
accounting; the pipeline simulator turns the counters into cycles.

A DMA is modeled by reference: the sparse memory keeps each written
image as an immutable ``bytes`` object (a host table image is kept as
it is, any other buffer is frozen once), so its host cost is the data,
not copies of it.  The accounting charges every byte all the same.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.errors import FpgaProtocolError


@dataclass
class DramStats:
    """Traffic counters."""

    read_requests: int = 0
    read_bytes: int = 0
    write_requests: int = 0
    write_bytes: int = 0


class Dram:
    """Byte-addressable device memory with bounds checking."""

    def __init__(self, size: int = 16 * 1024 * 1024 * 1024):
        self.size = size
        self.stats = DramStats()
        # A sparse region map avoids allocating 16 GB: disjoint regions
        # sorted by start, as two aligned lists so a read finds its
        # region with one bisect.
        self._starts: list[int] = []
        self._images: list[bytes] = []

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise FpgaProtocolError(
                f"DRAM access [{offset}, {offset + length}) outside "
                f"device memory of {self.size} bytes")

    def write(self, offset: int, data: bytes) -> None:
        """DMA or engine write of ``data`` at ``offset``."""
        self._check(offset, len(data))
        self.stats.write_requests += 1
        self.stats.write_bytes += len(data)
        if data:
            self._place(offset, data if isinstance(data, bytes)
                        else bytes(data))

    def _place(self, offset: int, image: bytes) -> None:
        """Make ``image`` the region at ``offset``: regions it overlaps
        are cut back to the parts it leaves uncovered (last writer wins)."""
        starts, images = self._starts, self._images
        end = offset + len(image)
        first = bisect_right(starts, offset) - 1
        if first < 0 or starts[first] + len(images[first]) <= offset:
            first += 1
        last = bisect_left(starts, end)
        new_starts, new_images = [offset], [image]
        if first < last and starts[first] < offset:
            new_starts.insert(0, starts[first])
            new_images.insert(0, images[first][:offset - starts[first]])
        if first < last and starts[last - 1] + len(images[last - 1]) > end:
            new_starts.append(end)
            new_images.append(images[last - 1][end - starts[last - 1]:])
        starts[first:last] = new_starts
        images[first:last] = new_images

    def read(self, offset: int, length: int) -> bytes:
        """Engine or DMA read; returns exactly ``length`` bytes."""
        self._check(offset, length)
        self.stats.read_requests += 1
        self.stats.read_bytes += length
        index = bisect_right(self._starts, offset) - 1
        if index >= 0:
            start = self._starts[index]
            image = self._images[index]
            if offset + length <= start + len(image):
                return image[offset - start:offset - start + length]
        return self._assemble(offset, length, max(index, 0))

    def _assemble(self, offset: int, length: int, index: int) -> bytes:
        """A read across several regions or a gap; gaps read as zeros."""
        out = bytearray(length)
        end = offset + length
        for start, image in zip(self._starts[index:], self._images[index:]):
            if start >= end:
                break
            lo = max(offset, start)
            hi = min(end, start + len(image))
            if lo < hi:
                out[lo - offset:hi - offset] = image[lo - start:hi - start]
        return bytes(out)

    def reset_stats(self) -> None:
        self.stats = DramStats()
