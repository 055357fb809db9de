"""VR traffic generation: video frames packetized into paced batches on
the downlink, periodic controller messages on the uplink.

Frame sizes are constant (bitrate/fps); each frame is split into a
uniformly random number of equal-size batches released one inter-batch
interval apart. Packets within a batch are full-size except the last,
truncated so every frame's bytes sum exactly to bitrate/fps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from vrwifi.config import TrafficConfig

VIDEO_STREAM = "video"
UL_STREAM = "ul-control"


@dataclass(slots=True)
class Packet:
    packet_id: int
    stream: str
    size_bytes: int
    gen_time_us: float
    frame_id: int = -1
    batch_index: int = -1
    enqueue_time_us: float | None = None
    delivery_time_us: float | None = None
    retx_count: int = 0


@dataclass
class Batch:
    batch_index: int
    size_bytes: int
    release_time_us: float
    packets: list[Packet] = field(default_factory=list)

    @property
    def n_packets(self) -> int:
        return len(self.packets)


@dataclass
class VideoFrame:
    frame_id: int
    gen_time_us: float
    size_bytes: int
    n_batches: int
    period_us: float
    batches: list[Batch] = field(default_factory=list)


def max_batches(cfg: TrafficConfig) -> int:
    """Largest batch count for one frame: ceil(T / batch interval).

    The bound uses the structural burst interval (5.56 ms by default),
    not the release spacing, so sweeping the release spacing changes how
    far batches spread without changing how many there are.
    """
    period_us = 1e6 / cfg.fps
    return math.ceil(period_us / (cfg.batch_count_interval_ms * 1e3))


def frame_size_bytes(cfg: TrafficConfig) -> int:
    return math.ceil(cfg.bitrate_bps / cfg.fps / 8.0)


def next_video_frame(cfg: TrafficConfig, rng: np.random.Generator,
                     frame_id: int) -> VideoFrame:
    """Create frame `frame_id` with its batch count drawn uniformly from
    {1, ..., ceil(T/tau)}. Consumes exactly one draw from rng."""
    if cfg.fps <= 0:
        raise ValueError("fps must be positive")
    period_us = 1e6 / cfg.fps
    n_batches = int(rng.integers(1, max_batches(cfg) + 1))
    return VideoFrame(
        frame_id=frame_id,
        gen_time_us=frame_id * period_us,
        size_bytes=frame_size_bytes(cfg),
        n_batches=n_batches,
        period_us=period_us,
    )


def packetize_frame(frame: VideoFrame, cfg: TrafficConfig,
                    first_packet_id: int = 0) -> list[Batch]:
    """Split one frame into its batches and packets (see _packetize)."""
    _packetize([frame], cfg, first_packet_id)
    return frame.batches


def _runs(values, counts):
    """Each of `values` repeated its count of times, lazily."""
    return chain.from_iterable(map(repeat, values, counts))


def _packetize(frames: list[VideoFrame], cfg: TrafficConfig,
               first_packet_id: int) -> None:
    """Set every frame's batches and packets, packet ids sequential from
    first_packet_id.

    Batch sizes are the equal split of the frame size (remainder bytes go
    one apiece to the trailing batches). Every packet is full-size except
    the last of each batch, truncated so the batch sums exactly. Batch k
    is released at gen + k*tau; packets within a batch are spaced by the
    intra-batch generation gap.
    """
    tau_us = cfg.inter_batch_time_ms * 1e3
    l_p = cfg.packet_size_bytes
    n_b = np.array([f.n_batches for f in frames], dtype=np.int64)
    # per batch: its frame, its index k in the frame, bytes and release
    fb = np.repeat(np.arange(len(frames)), n_b)
    k = np.arange(len(fb)) - np.repeat(np.cumsum(n_b) - n_b, n_b)
    base, rem = np.divmod(np.array([f.size_bytes for f in frames],
                                   dtype=np.int64), n_b)
    b_bytes = base[fb] + (k >= (n_b - rem)[fb])
    release = (np.array([f.gen_time_us for f in frames], dtype=float)[fb]
               + k * tau_us)
    n_pk = -(-b_bytes // l_p)
    pk_end = np.cumsum(n_pk)
    pk_start = pk_end - n_pk
    # per packet: its index j in the batch and generation time
    j = np.arange(int(n_pk.sum())) - np.repeat(pk_start, n_pk)
    gen_us = np.repeat(release, n_pk) + j * cfg.intra_batch_gap_us

    n_pk_l, k_l = n_pk.tolist(), k.tolist()
    sizes = chain.from_iterable(
        chain(repeat(l_p, n - 1), (n_bytes - (n - 1) * l_p,))
        for n, n_bytes in zip(n_pk_l, b_bytes.tolist()) if n)
    frame_ids = _runs(_runs([f.frame_id for f in frames], n_b.tolist()),
                      n_pk_l)
    packets = list(map(
        Packet, range(first_packet_id, first_packet_id + len(gen_us)),
        repeat(VIDEO_STREAM), sizes, gen_us.tolist(), frame_ids,
        _runs(k_l, n_pk_l)))
    batches = list(map(
        Batch, k_l, b_bytes.tolist(), release.tolist(),
        map(packets.__getitem__,
            map(slice, pk_start.tolist(), pk_end.tolist()))))
    b_end = np.cumsum(n_b).tolist()
    for frame, a, b in zip(frames, [0, *b_end], b_end):
        frame.batches = batches[a:b]


def generate_video_frames(cfg: TrafficConfig, rng: np.random.Generator,
                          duration_s: float) -> list[VideoFrame]:
    """All frames generated in [0, duration), packetized, ids sequential.

    Draws one batch count per frame period of the run, in one call: the
    last draw may be for a frame at the end, which is then dropped.
    """
    period_us = 1e6 / cfg.fps
    n_frames = max(0, math.ceil(duration_s * 1e6 / period_us))
    n_batches = rng.integers(1, max_batches(cfg) + 1, size=n_frames)
    gen_us = np.arange(n_frames) * period_us
    n_kept = int(np.count_nonzero(gen_us < duration_s * 1e6))
    frames = list(map(VideoFrame, range(n_kept), gen_us[:n_kept].tolist(),
                      repeat(frame_size_bytes(cfg)),
                      n_batches[:n_kept].tolist(), repeat(period_us)))
    _packetize(frames, cfg, 0)
    return frames


@dataclass(frozen=True, eq=False)
class Emissions:
    """Video packet emissions in time order, ties in packet_id order:
    parallel arrays of emission times (us) and Packets. Iterating gives
    (time, packet) pairs."""

    times_us: np.ndarray
    packets: np.ndarray

    def __len__(self) -> int:
        return len(self.times_us)

    def __iter__(self):
        return zip(self.times_us.tolist(), self.packets.tolist())


def video_packet_emissions(frames: list[VideoFrame],
                           cfg: TrafficConfig) -> Emissions:
    """The emission time of every video packet, time-ordered.

    With the default frame-anchored pacer the emission instant is the
    packet's generation time. With the global-grid pacer each batch waits
    for the next multiple of tau at or after its release time.
    """
    tau_us = cfg.inter_batch_time_ms * 1e3
    batches = [b for f in frames for b in f.batches]
    packets = [p for b in batches for p in b.packets]
    n_pk = np.array([len(b.packets) for b in batches], dtype=np.int64)
    start = np.array([b.release_time_us for b in batches], dtype=float)
    if cfg.pacer_anchor == "global":
        start = np.ceil(start / tau_us - 1e-9) * tau_us
    j = np.arange(len(packets)) - np.repeat(np.cumsum(n_pk) - n_pk, n_pk)
    times = np.repeat(start, n_pk) + j * cfg.intra_batch_gap_us
    # packets are listed in packet_id order, so a stable sort on time
    # alone gives (time, packet_id) order
    order = np.argsort(times, kind="stable")
    return Emissions(times[order],
                     np.fromiter(packets, dtype=object,
                                 count=len(packets))[order])


def ul_controller_stream(cfg: TrafficConfig, duration_s: float) -> list[Packet]:
    """Fixed-size uplink controller packets, one per refresh period.

    Packet k is generated at k * ul_period, k >= 1, so a run of length D
    carries floor(D / ul_period) packets.
    """
    if cfg.ul_period_ms <= 0:
        raise ValueError("ul_period_ms must be positive")
    period_us = cfg.ul_period_ms * 1e3
    count = math.floor(duration_s * 1e6 / period_us + 1e-9)
    return [
        Packet(packet_id=k, stream=UL_STREAM,
               size_bytes=cfg.ul_packet_size_bytes,
               gen_time_us=k * period_us)
        for k in range(1, count + 1)
    ]
