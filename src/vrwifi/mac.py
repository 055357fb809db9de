"""Per-station CSMA/CA MAC state: transmit buffer, contention window,
A-MPDU assembly and the selective-retransmission bookkeeping driven by
block acknowledgments.

A packet is an integer id into the run's Packets columns; buffers and
A-MPDUs hold ids. The DES engine owns all timing; this module only
mutates station state and those columns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from vrwifi.config import MacConfig

AP = "ap"
CLIENT = "client"


@dataclass(eq=False)
class Packets:
    """Per-packet columns of one run, indexed by packet id: size, the
    time it entered a buffer and the time it was delivered (us, None
    until then), and its retry count. Lists, not arrays: the event loop
    reads and writes one entry at a time."""

    size_bytes: list
    enqueue_us: list
    delivery_us: list
    retx_count: list

    @classmethod
    def of_sizes(cls, size_bytes: list) -> Packets:
        """Fresh columns for packets of these sizes."""
        n = len(size_bytes)
        return cls(size_bytes, [None] * n, [None] * n, [0] * n)


@dataclass
class Ampdu:
    mpdus: list[int]
    total_bytes: int

    def __len__(self) -> int:
        return len(self.mpdus)


@dataclass
class MacStation:
    role: str
    capacity: int
    cw_min: int
    cw_max: int
    packets: Packets
    rts_cts: bool = True
    buffer: deque = field(default_factory=deque)
    cw: int = 0
    drops_buffer: int = 0
    drops_retx: int = 0
    # contention bookkeeping written by the engine
    aifs_end_us: float | None = None
    slots_left: int | None = None
    snapshot_len: int = 0

    def __post_init__(self):
        self.cw = self.cw_min

    def backlogged(self) -> bool:
        return len(self.buffer) > 0


def make_station(role: str, mac: MacConfig, packets: Packets) -> MacStation:
    """A station whose buffer holds ids into `packets`."""
    capacity = mac.ap_buffer if role == AP else mac.client_buffer
    rts = mac.rts_cts_enabled if role == AP else mac.ul_rts_cts_enabled
    return MacStation(role=role, capacity=capacity, cw_min=mac.cw_min,
                      cw_max=mac.cw_max, packets=packets, rts_cts=rts)


def enqueue(station: MacStation, pid: int, now_us: float) -> str:
    """Tail-drop FIFO admission of packet `pid`, stamping its enqueue
    time; returns "accepted" or "dropped"."""
    if len(station.buffer) >= station.capacity:
        station.drops_buffer += 1
        return "dropped"
    station.packets.enqueue_us[pid] = now_us
    station.buffer.append(pid)
    return "accepted"


def draw_backoff(station: MacStation, rng: np.random.Generator) -> int:
    """Uniform backoff in [0, cw] slots at the current window."""
    return int(rng.integers(0, station.cw + 1))


def note_exchange_failure(station: MacStation) -> None:
    """Double the contention window (binary exponential, capped)."""
    station.cw = min(2 * (station.cw + 1) - 1, station.cw_max)


def note_exchange_success(station: MacStation) -> None:
    station.cw = station.cw_min


def cw_for_retry(station: MacStation, retry_count: int) -> int:
    """Contention window scaled by a frame's retry count (DCF per-frame
    semantics): cw_min for a fresh frame, doubled per retry, capped."""
    return min((station.cw_min + 1) * 2 ** retry_count - 1, station.cw_max)


def assemble_ampdu(station: MacStation, max_ampdu: int,
                   limit: int | None = None,
                   max_bytes: int | None = None) -> Ampdu | None:
    """Take up to max_ampdu head-of-line packets out of the buffer.

    FIFO order is preserved; pending retransmissions were re-queued at
    the head by handle_back, so they lead the aggregate. A `limit` caps
    the take further (the buffer-snapshot policy) and `max_bytes` bounds
    the aggregate size in bytes; at least one packet always goes out.
    Returns None on an empty buffer (no transmission attempt).
    """
    buffer = station.buffer
    if not buffer:
        return None
    n = min(len(buffer), max_ampdu)
    if limit is not None:
        n = max(1, min(n, limit))
    size = station.packets.size_bytes
    mpdus, total = [], 0
    while buffer and len(mpdus) < n:
        nxt = size[buffer[0]]
        if max_bytes is not None and mpdus and total + nxt > max_bytes:
            break
        mpdus.append(buffer.popleft())
        total += nxt
    return Ampdu(mpdus, total)


def apply_per(ampdu: Ampdu, per: float, rng: np.random.Generator) -> np.ndarray:
    """Per-MPDU success flags; each MPDU fails independently with
    probability `per`. Control frames are never subject to errors."""
    return rng.random(len(ampdu.mpdus)) >= per


def handle_back(station: MacStation, ampdu: Ampdu, flags: np.ndarray,
                max_retx: int) -> tuple[list[int], list[int], list[int]]:
    """Split the acknowledged A-MPDU into (delivered, requeued, dropped).

    Failed MPDUs that still have retries left go back to the head of the
    buffer, keeping their relative order, so they precede new packets in
    the next aggregate. A packet that fails with retx_count == max_retx
    is dropped and counted.
    """
    retx = station.packets.retx_count
    delivered, requeue, dropped = [], [], []
    for pid, ok in zip(ampdu.mpdus, flags.tolist()):
        if ok:
            delivered.append(pid)
        elif retx[pid] >= max_retx:
            dropped.append(pid)
        else:
            retx[pid] += 1
            requeue.append(pid)
    station.buffer.extendleft(reversed(requeue))
    station.drops_retx += len(dropped)
    return delivered, requeue, dropped
