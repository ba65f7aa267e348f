"""Cost model — the paper's measured request-processing constants.

Section 3.1: *"The costs for the basic request processing steps used in
our simulations were derived by performing measurements on a 300 MHz
Pentium II machine running FreeBSD 2.2.5 and an aggressive experimental
web server:*

* connection establishment and teardown: **145 µs CPU each**;
* transmit processing: **40 µs per 512 bytes** (an 8 KB cached document
  is served at ≈ 1075 requests/sec: 2·145 µs + 16·40 µs = 930 µs);
* reading a file from disk: **28 ms initial latency** (2 seeks +
  rotational latency) plus **410 µs per 4 KB** transferred (≈ 10 MB/s
  peak);
* files beyond **44 KB** pay an extra **14 ms** seek + rotational latency
  for every additional 44 KB (44 KB was the measured average disk transfer
  size between seeks)."

Figures 11–12 scale CPU speed 1–4× (with memory scaled 1–3×) while disk
speed stays fixed; ``cpu_speed`` implements exactly that by dividing every
CPU cost.  ``disk_speed`` is provided for symmetry/ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

__all__ = ["CostModel", "PAPER_NODE_CACHE_BYTES"]

#: Section 3.2: "we chose to set the default node cache size in our
#: simulations to 32 MB".
PAPER_NODE_CACHE_BYTES = 32 * 2**20

#: The :class:`CostModel` fields that are service times in seconds.
_SERVICE_CONSTANTS = (
    "connection_setup_s",
    "connection_teardown_s",
    "transmit_s_per_512b",
    "disk_initial_latency_s",
    "disk_transfer_s_per_4kb",
    "disk_extra_seek_s",
    "gms_fetch_s_per_512b",
)


@dataclass(frozen=True)
class CostModel:
    """Per-step CPU/disk costs, in seconds, with speed multipliers."""

    connection_setup_s: float = 145e-6
    connection_teardown_s: float = 145e-6
    transmit_s_per_512b: float = 40e-6
    disk_initial_latency_s: float = 28e-3
    disk_transfer_s_per_4kb: float = 410e-6
    disk_extra_seek_s: float = 14e-3
    disk_chunk_bytes: int = 44 * 1024
    #: CPU cost, charged at *both* peer nodes, of shipping one 512 B unit
    #: across the cluster network for a GMS remote fetch.  The paper grants
    #: GMS free directory/replacement; only the data movement is charged,
    #: at the same per-byte CPU cost as client transmit processing.
    gms_fetch_s_per_512b: float = 40e-6
    cpu_speed: float = 1.0
    disk_speed: float = 1.0

    def __post_init__(self) -> None:
        # ``0 < x < inf`` and ``0 <= x < inf`` are false for NaN, which a
        # bare ``<= 0`` test lets through (and an infinite speed is a
        # zero-time server, an infinite cost a run that never ends).
        for name in ("cpu_speed", "disk_speed"):
            speed = getattr(self, name)
            if not 0.0 < speed < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {speed!r}")
        for name in _SERVICE_CONSTANTS:
            seconds = getattr(self, name)
            if not 0.0 <= seconds < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {seconds!r}"
                )
        if self.disk_chunk_bytes <= 0:
            raise ValueError("disk_chunk_bytes must be positive")

    # -- CPU costs -------------------------------------------------------------

    def connection_time(self) -> float:
        """CPU time for connection establishment (same cost as teardown)."""
        return self.connection_setup_s / self.cpu_speed

    def teardown_time(self) -> float:
        """CPU time for connection teardown (145 us at 1x speed)."""
        return self.connection_teardown_s / self.cpu_speed

    def transmit_time(self, size_bytes: int) -> float:
        """CPU time to push ``size_bytes`` to the client (40 µs / 512 B)."""
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        units = (size_bytes + 511) // 512
        return units * self.transmit_s_per_512b / self.cpu_speed

    def gms_fetch_time(self, size_bytes: int) -> float:
        """CPU time charged at each peer for a GMS remote-memory fetch."""
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        units = (size_bytes + 511) // 512
        return units * self.gms_fetch_s_per_512b / self.cpu_speed

    def cached_request_time(self, size_bytes: int) -> float:
        """Total CPU time to serve a fully cached request (sanity metric)."""
        return self.connection_time() + self.transmit_time(size_bytes) + self.teardown_time()

    def dynamic_service_time(self, cost_s: float) -> float:
        """CPU time to compute a dynamic (CGI) response.

        Section 2 of the paper: requests for dynamic content are CPU-bound
        with a service cost independent of the response size; ``cost_s``
        is that per-target cost at 1x CPU speed.  Transmit processing for
        the generated bytes is charged separately at the usual per-512 B
        rate.
        """
        if cost_s < 0:
            raise ValueError(f"negative dynamic cost: {cost_s}")
        return cost_s / self.cpu_speed

    # -- disk costs ---------------------------------------------------------------

    def disk_transfer_time(self, size_bytes: int) -> float:
        """Media transfer time alone (410 µs per 4 KB)."""
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        units = (size_bytes + 4095) // 4096
        return units * self.disk_transfer_s_per_4kb / self.disk_speed

    def disk_chunks(self, size_bytes: int) -> List[Tuple[int, float]]:
        """Chunked read plan for a file: ``[(chunk_bytes, disk_time), ...]``.

        The first chunk pays the 28 ms initial latency; each subsequent
        44 KB chunk pays the 14 ms seek.  Section 3.1: "large file reads
        are blocked such that the data transmission immediately follows
        the disk read for each block", so the node model interleaves these
        chunks with CPU transmit time.
        """
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        chunks: List[Tuple[int, float]] = []
        remaining = size_bytes
        first = True
        while first or remaining > 0:
            chunk = min(remaining, self.disk_chunk_bytes)
            latency = self.disk_initial_latency_s if first else self.disk_extra_seek_s
            time = latency / self.disk_speed + self.disk_transfer_time(chunk)
            chunks.append((chunk, time))
            remaining -= chunk
            first = False
        return chunks

    def disk_read_time(self, size_bytes: int) -> float:
        """Total disk service time for a whole file."""
        return sum(t for _, t in self.disk_chunks(size_bytes))

    # -- derived configurations -----------------------------------------------------

    def with_cpu_speed(self, multiplier: float) -> "CostModel":
        """The Figure 11/12 CPU scaling (disk unchanged)."""
        return replace(self, cpu_speed=multiplier)
