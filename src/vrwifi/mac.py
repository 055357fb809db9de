"""Per-station CSMA/CA MAC state: transmit buffer, contention window,
A-MPDU assembly and the selective-retransmission bookkeeping driven by
block acknowledgments.

The DES engine owns all timing; this module only mutates station state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from vrwifi.config import MacConfig
from vrwifi.traffic import Packet

AP = "ap"
CLIENT = "client"


@dataclass
class Ampdu:
    mpdus: list[Packet]
    total_bytes: int

    def __len__(self) -> int:
        return len(self.mpdus)


@dataclass
class MacStation:
    role: str
    capacity: int
    cw_min: int
    cw_max: int
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


def make_station(role: str, mac: MacConfig) -> MacStation:
    capacity = mac.ap_buffer if role == AP else mac.client_buffer
    rts = mac.rts_cts_enabled if role == AP else mac.ul_rts_cts_enabled
    return MacStation(role=role, capacity=capacity, cw_min=mac.cw_min,
                      cw_max=mac.cw_max, rts_cts=rts)


def enqueue(station: MacStation, pkt: Packet, now_us: float) -> str:
    """Tail-drop FIFO admission; returns "accepted" or "dropped"."""
    if len(station.buffer) >= station.capacity:
        station.drops_buffer += 1
        return "dropped"
    pkt.enqueue_time_us = now_us
    station.buffer.append(pkt)
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
    if not station.buffer:
        return None
    n = min(len(station.buffer), max_ampdu)
    if limit is not None:
        n = max(1, min(n, limit))
    mpdus, total = [], 0
    while station.buffer and len(mpdus) < n:
        nxt = station.buffer[0]
        if (max_bytes is not None and mpdus
                and total + nxt.size_bytes > max_bytes):
            break
        mpdus.append(station.buffer.popleft())
        total += nxt.size_bytes
    return Ampdu(mpdus=mpdus, total_bytes=total)


def apply_per(ampdu: Ampdu, per: float, rng: np.random.Generator) -> np.ndarray:
    """Per-MPDU success flags; each MPDU fails independently with
    probability `per`. Control frames are never subject to errors."""
    return rng.random(len(ampdu.mpdus)) >= per


def handle_back(station: MacStation, ampdu: Ampdu, flags: np.ndarray,
                max_retx: int) -> tuple[list[Packet], list[Packet], list[Packet]]:
    """Split the acknowledged A-MPDU into (delivered, requeued, dropped).

    Failed MPDUs that still have retries left go back to the head of the
    buffer, keeping their relative order, so they precede new packets in
    the next aggregate. A packet that fails with retx_count == max_retx
    is dropped and counted.
    """
    delivered, requeue, dropped = [], [], []
    for pkt, ok in zip(ampdu.mpdus, flags):
        if ok:
            delivered.append(pkt)
        elif pkt.retx_count >= max_retx:
            dropped.append(pkt)
        else:
            pkt.retx_count += 1
            requeue.append(pkt)
    station.buffer.extendleft(reversed(requeue))
    station.drops_retx += len(dropped)
    return delivered, requeue, dropped
