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
from operator import itemgetter

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
    """Split a frame into its batches and packets.

    Batch sizes are the equal split of the frame size (remainder bytes go
    one apiece to the trailing batches). Every packet is full-size except
    the last of each batch, truncated so the batch sums exactly. Batch k
    is released at gen + k*tau; packets within a batch are spaced by the
    intra-batch generation gap.
    """
    tau_us = cfg.inter_batch_time_ms * 1e3
    l_p = cfg.packet_size_bytes
    base, rem = divmod(frame.size_bytes, frame.n_batches)
    pid = first_packet_id
    batches = []
    for k in range(frame.n_batches):
        batch_bytes = base + (1 if k >= frame.n_batches - rem else 0)
        release = frame.gen_time_us + k * tau_us
        batch = Batch(batch_index=k, size_bytes=batch_bytes,
                      release_time_us=release)
        n_pk = math.ceil(batch_bytes / l_p)
        for j in range(n_pk):
            size = l_p if j < n_pk - 1 else batch_bytes - (n_pk - 1) * l_p
            batch.packets.append(Packet(
                packet_id=pid,
                stream=VIDEO_STREAM,
                size_bytes=size,
                gen_time_us=release + j * cfg.intra_batch_gap_us,
                frame_id=frame.frame_id,
                batch_index=k,
            ))
            pid += 1
        batches.append(batch)
    frame.batches = batches
    return batches


def generate_video_frames(cfg: TrafficConfig, rng: np.random.Generator,
                          duration_s: float) -> list[VideoFrame]:
    """All frames generated in [0, duration), packetized, ids sequential."""
    period_us = 1e6 / cfg.fps
    n_frames = math.ceil(duration_s * 1e6 / period_us)
    frames = []
    pid = 0
    for fid in range(n_frames):
        frame = next_video_frame(cfg, rng, fid)
        if frame.gen_time_us >= duration_s * 1e6:
            break
        packetize_frame(frame, cfg, first_packet_id=pid)
        pid += sum(b.n_packets for b in frame.batches)
        frames.append(frame)
    return frames


def video_packet_emissions(frames: list[VideoFrame],
                           cfg: TrafficConfig) -> list[tuple[float, Packet]]:
    """(emission time, packet) for every video packet, time-ordered.

    With the default frame-anchored pacer the emission instant is the
    packet's generation time. With the global-grid pacer each batch waits
    for the next multiple of tau at or after its release time.
    """
    tau_us = cfg.inter_batch_time_ms * 1e3
    out = []
    for frame in frames:
        for batch in frame.batches:
            if cfg.pacer_anchor == "global":
                start = math.ceil(batch.release_time_us / tau_us - 1e-9) * tau_us
            else:
                start = batch.release_time_us
            for j, pkt in enumerate(batch.packets):
                out.append((start + j * cfg.intra_batch_gap_us, pkt))
    # appended in packet_id order, so a stable sort on time alone gives
    # (time, packet_id) order
    out.sort(key=itemgetter(0))
    return out


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
