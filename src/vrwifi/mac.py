"""Per-station CSMA/CA MAC state: transmit buffer, contention window,
A-MPDU assembly and the selective-retransmission bookkeeping driven by
block acknowledgments.

A packet is an integer id into its station's Packets columns; buffers and
A-MPDUs hold ids. The DES engine owns all timing; this module only
mutates station state and the retry column. Every call handles a slice
of ids, so its Python work is per call, not per packet; only a failed
MPDU's retry bookkeeping is per packet. Backoffs and PER uniforms come
from a Draws source, which reads the run's PCG64 stream ahead in blocks.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice
from operator import not_

import numpy as np

from vrwifi.config import MacConfig

AP = "ap"
CLIENT = "client"
RAW_BLOCK = 1024   # raw PCG64 outputs a Draws source reads at a time


@dataclass(eq=False)
class Packets:
    """Per-packet columns of one station's packets that the MAC reads or
    writes, indexed by packet id: size and retry count, 8 bytes a packet
    each. An A-MPDU gathers its sizes with one map over its ids, so the size
    column is a list whose largest size is one shared int (every full-size
    packet's), and a read allocates nothing; one from an array("q") or numpy
    column allocates an int, 110 against 48 ns (2-vCPU VM), or 3.7 ms a 10 s
    run of 58,690 MPDUs. Only failed MPDUs touch the retry column, an array
    of 64-bit ints ("q"). A packet's enqueue time is its arrival time, and
    delivery times are kept by exchange, so the engine builds both
    per-packet columns after the run."""

    size_bytes: list
    retx_count: array

    @classmethod
    def of_sizes(cls, size_bytes) -> Packets:
        """Fresh columns for packets of these sizes (ints)."""
        packets = cls([], array("q"))
        packets.extend(size_bytes)
        return packets

    def extend(self, size_bytes) -> None:
        """Add packets of these sizes (ints), with no retries yet, under
        the next ids."""
        sizes = np.asarray(size_bytes, dtype=np.int64)
        if len(sizes):
            largest = int(sizes.max())
            column = [largest] * len(sizes)
            other = np.flatnonzero(sizes != largest)
            for i, size in zip(other.tolist(), sizes[other].tolist()):
                column[i] = size
            self.size_bytes += column
        self.retx_count.frombytes(bytes(8 * len(sizes)))


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
    buffer: list = field(default_factory=list)
    cw: int = 0
    drops_buffer: int = 0
    drops_retx: int = 0
    # contention state written by the engine: AIFS end and slots left
    # (None when due to restart or redraw), the last draw and the buffer
    # length at it, and the backoff expiry (inf when empty)
    aifs_end_us: float | None = None
    slots_left: int | None = None
    drawn_slots: int = -1
    snapshot_len: int = 0
    expiry_us: float = math.inf

    def __post_init__(self):
        self.cw = self.cw_min


def make_station(role: str, mac: MacConfig, packets: Packets) -> MacStation:
    """A station whose buffer holds ids into `packets`."""
    capacity = mac.ap_buffer if role == AP else mac.client_buffer
    rts = mac.rts_cts_enabled if role == AP else mac.ul_rts_cts_enabled
    return MacStation(role=role, capacity=capacity, cw_min=mac.cw_min,
                      cw_max=mac.cw_max, packets=packets, rts_cts=rts)


def enqueue(station: MacStation, ids: Sequence[int]) -> int:
    """Tail-drop FIFO admission of the packets `ids` (a list or a
    range), in order: as many as the buffer has room for enter it and
    the rest are dropped and counted. Returns how many entered."""
    # a requeue can leave the buffer above capacity: then nothing enters
    room = max(0, station.capacity - len(station.buffer))
    if room < len(ids):
        station.drops_buffer += len(ids) - room
        ids = ids[:room]
    station.buffer += ids
    return len(ids)


class Draws:
    """The draws numpy's Generator makes on a PCG64 stream, value for value
    in any interleaving, from raw outputs read RAW_BLOCK at a time: next64
    is next_uint64, next32 next_uint32 (half an output, the other half
    buffered for the next call) and each uniform of flags() next_double."""

    def __init__(self, rng: np.random.Generator):
        self.bits = rng.bit_generator
        state = self.bits.state   # a buffered half-word is drawn first
        self.has32, self.half = state["has_uint32"], state["uinteger"]
        self._read()

    def _read(self) -> None:
        self.raw, self.pos, self.per = self.bits.random_raw(RAW_BLOCK), 0, None

    def next64(self) -> int:
        if self.pos == len(self.raw):
            self._read()
        self.pos += 1
        return self.raw.item(self.pos - 1)

    def next32(self) -> int:
        if self.has32:
            self.has32 = 0
            return self.half
        value = self.next64()
        self.has32, self.half = 1, value >> 32
        return value & 0xFFFFFFFF

    def flags(self, n: int, per: float) -> list[bool]:
        """Whether each of the next n uniforms is at least `per`."""
        ok = []
        while len(ok) < n:
            if self.pos == len(self.raw):
                self._read()
            if per != self.per:   # the block's flags, made once per value
                self.per = per
                self.ok = ((self.raw >> np.uint64(11)) * 2.0**-53
                           >= per).tolist()
            take = self.ok[self.pos:self.pos + n - len(ok)]
            self.pos += len(take)
            ok += take
        return ok

    def give_back(self) -> None:
        """Leave the generator where per-call draws would have left it."""
        self.bits.advance(2**128 - (len(self.raw) - self.pos))
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = self.has32, self.half
        self.bits.state = state


def draw_backoff(station: MacStation, rng: Draws) -> int:
    """Uniform backoff in [0, cw] slots at the current window: numpy's
    Generator.integers(0, cw + 1), by Lemire's multiply-and-reject rule
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    2019) on a 32-bit draw, or on a 64-bit one when cw + 1 > 2**32.
    """
    cw = station.cw
    if cw == 0:
        return 0
    span = cw + 1
    width, draw = (32, rng.next32) if span <= 1 << 32 else (64, rng.next64)
    mask = (1 << width) - 1
    m = draw() * span
    if m & mask < span:
        threshold = (mask + 1) % span   # 2**width - span, mod span
        while m & mask < threshold:
            m = draw() * span
    return m >> width


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
                   max_bytes: int | None = None) -> Ampdu:
    """Take up to max_ampdu head-of-line packets out of the buffer, which
    is not empty: the engine only calls this for a due station, whose
    buffer can only grow between its arming and its access.

    FIFO order is preserved; pending retransmissions were re-queued at
    the head by handle_back, so they lead the aggregate. A `limit` caps
    the take further (the buffer-snapshot policy) and `max_bytes` bounds
    the aggregate size in bytes; at least one packet always goes out.
    """
    buffer = station.buffer
    n = min(len(buffer), max_ampdu)
    if limit is not None:
        n = max(1, min(n, limit))
    size = station.packets.size_bytes
    if n == 1:
        # the most common take: one packet goes out, whatever its size
        total = size[buffer[0]]
    elif max_bytes is None:
        total = sum(map(size.__getitem__, islice(buffer, n)))
    else:
        n, total = _within_bytes(buffer, size, n, max_bytes)
    mpdus = buffer[:n]
    del buffer[:n]
    return Ampdu(mpdus, total)


def _within_bytes(buffer: list, size: list, n: int,
                  max_bytes: int) -> tuple[int, int]:
    """The longest head of at most n packets of `buffer` within max_bytes,
    at least one packet, as (packets, bytes).

    `look` packets of the head packet's size overrun the bound, so a take
    shorter than that usually fits whole and a longer one is usually cut
    within its first `look`: the running totals rarely cover more.
    """
    look = max_bytes // size[buffer[0]] + 1
    if n < look:
        total = sum(map(size.__getitem__, islice(buffer, n)))
        if total <= max_bytes:
            return n, total
    upto = list(accumulate(map(size.__getitem__,
                               islice(buffer, min(n, look)))))
    fit = bisect_right(upto, max_bytes)
    if fit == len(upto) < n:
        upto = list(accumulate(map(size.__getitem__, islice(buffer, n))))
        fit = bisect_right(upto, max_bytes)
    n = max(1, fit)
    return n, upto[n - 1]


def apply_per(ampdu: Ampdu, per: float, rng: Draws) -> list[bool]:
    """Per-MPDU success flags; each MPDU fails independently with
    probability `per`. Control frames are never subject to errors."""
    return rng.flags(len(ampdu.mpdus), per)


def handle_back(station: MacStation, ampdu: Ampdu, flags: list[bool],
                max_retx: int) -> tuple[list[int], list[int], list[int]]:
    """Split the acknowledged A-MPDU into (delivered, requeued, dropped).

    Failed MPDUs that still have retries left go back to the head of the
    buffer, keeping their relative order, so they precede new packets in
    the next aggregate. A packet that fails with retx_count == max_retx
    is dropped and counted.
    """
    if all(flags):
        return ampdu.mpdus, [], []
    retx = station.packets.retx_count
    requeue, dropped = [], []
    for pid in compress(ampdu.mpdus, map(not_, flags)):
        if retx[pid] >= max_retx:
            dropped.append(pid)
        else:
            retx[pid] += 1
            requeue.append(pid)
    station.buffer[:0] = requeue
    station.drops_retx += len(dropped)
    return list(compress(ampdu.mpdus, flags)), requeue, dropped
