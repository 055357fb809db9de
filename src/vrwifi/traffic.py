"""VR traffic generation: video frames packetized into paced batches on
the downlink, periodic controller messages on the uplink.

Frame sizes are constant (bitrate/fps); each frame is split into a
uniformly random number of equal-size batches released one inter-batch
interval apart. Packets within a batch are full-size except the last,
truncated so every frame's bytes sum exactly to bitrate/fps.

Traffic is held by column: a VideoTraffic has one array per frame,
batch and packet field, and a packet is its index in them. The
VideoFrame, Batch and Packet objects are read-only views, built when a
VideoTraffic is iterated. A run's frames can also be packetized a window
of frames at a time (VideoWindows), so that only the window the run has
reached is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from vrwifi.config import TrafficConfig

VIDEO_STREAM = "video"


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


@dataclass
class VideoFrame:
    frame_id: int
    gen_time_us: float
    size_bytes: int
    n_batches: int
    period_us: float
    batches: list[Batch] = field(default_factory=list)


@dataclass(eq=False)
class VideoTraffic:
    """Video frames, their batches and their packets, by column, in frame
    order. Packet ids run from first_packet_id in (frame, batch, packet)
    order, so a packet's row is its id less first_packet_id.

    A run that keeps its packets fills the per-packet enqueue and
    delivery times (NaN where a packet has none; its Packet view reads
    None) and retry counts (int64). Every column is a numpy array.
    len() counts the frames; iterating gives VideoFrame views, with
    their Batch and Packet views, built when read.
    """

    period_us: float
    frame_bytes: int
    first_packet_id: int
    # per frame
    frame_id: np.ndarray
    frame_gen_us: np.ndarray
    n_batches: np.ndarray
    frame_packets: np.ndarray
    # per batch: its index in the frame, bytes, release time, packets
    batch_index: np.ndarray
    batch_bytes: np.ndarray
    batch_release_us: np.ndarray
    batch_packets: np.ndarray
    # per packet: bytes (int64) and generation time
    packet_bytes: np.ndarray
    packet_gen_us: np.ndarray
    # per packet, set by a run
    enqueue_us: np.ndarray | None = None
    delivery_us: np.ndarray | None = None
    retx_count: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.frame_id)

    def __iter__(self):
        n = len(self.packet_bytes)
        frame_of = np.repeat(self.frame_id, self.frame_packets).tolist()
        packets = list(map(
            Packet, range(self.first_packet_id, self.first_packet_id + n),
            repeat(VIDEO_STREAM), self.packet_bytes.tolist(),
            self.packet_gen_us.tolist(), frame_of,
            np.repeat(self.batch_index, self.batch_packets).tolist(),
            _times(self.enqueue_us), _times(self.delivery_us),
            repeat(0) if self.retx_count is None
            else self.retx_count.tolist()))
        pk_end = np.cumsum(self.batch_packets).tolist()
        batches = list(map(
            Batch, self.batch_index.tolist(), self.batch_bytes.tolist(),
            self.batch_release_us.tolist(),
            map(packets.__getitem__, map(slice, [0, *pk_end], pk_end))))
        b_end = np.cumsum(self.n_batches).tolist()
        return map(VideoFrame, self.frame_id.tolist(),
                   self.frame_gen_us.tolist(), repeat(self.frame_bytes),
                   self.n_batches.tolist(), repeat(self.period_us),
                   map(batches.__getitem__, map(slice, [0, *b_end], b_end)))


def _times(column):
    """A per-packet time column as Python floats, None for NaN; all None
    when there is no column."""
    if column is None:
        return repeat(None)
    return [None if math.isnan(t) else t
            for t in np.asarray(column, dtype=float).tolist()]


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


def _draw_frames(cfg: TrafficConfig, rng: np.random.Generator,
                 first_id: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The generation times (us) and batch counts of frames first_id, ...,
    first_id + count - 1: each batch count uniform in {1, ..., ceil(T/tau)},
    drawn together in one call."""
    if cfg.fps <= 0:
        raise ValueError("fps must be positive")
    n_batches = rng.integers(1, max_batches(cfg) + 1, size=count)
    return (first_id + np.arange(count)) * (1e6 / cfg.fps), n_batches


def next_video_frame(cfg: TrafficConfig, rng: np.random.Generator,
                     frame_id: int) -> VideoFrame:
    """Create frame `frame_id` by generate_video_frames' frame rule, with
    its batch count drawn uniformly from {1, ..., ceil(T/tau)}; not yet
    packetized. Consumes exactly one draw from rng."""
    gen_us, n_batches = _draw_frames(cfg, rng, frame_id, 1)
    return VideoFrame(frame_id, gen_us.item(), frame_size_bytes(cfg),
                      n_batches.item(), 1e6 / cfg.fps)


def packetize_frame(frame: VideoFrame, cfg: TrafficConfig) -> list[Batch]:
    """Split one frame into its batches and packets (see _packetize),
    set them as the frame's batches and return them."""
    (view,) = _packetize(cfg, np.array([frame.frame_id]),
                         np.array([frame.gen_time_us], dtype=float),
                         np.array([frame.n_batches]), frame.size_bytes,
                         frame.period_us, 0)
    frame.batches = view.batches
    return frame.batches


def _packetize(cfg: TrafficConfig, frame_id: np.ndarray, gen_us: np.ndarray,
               n_b: np.ndarray, frame_bytes: int, period_us: float,
               first_packet_id: int) -> VideoTraffic:
    """The batches and packets of the given frames, as columns.

    Batch sizes are the equal split of the frame size (remainder bytes go
    one apiece to the trailing batches). Every packet is full-size except
    the last of each batch, truncated so the batch sums exactly. Batch k
    is released at gen + k*tau; packets within a batch are spaced by the
    intra-batch generation gap.
    """
    tau_us = cfg.inter_batch_time_ms * 1e3
    l_p = cfg.packet_size_bytes
    b_start = np.cumsum(n_b) - n_b
    # per batch: its frame, its index k in the frame, bytes and release
    fb = np.repeat(np.arange(len(n_b)), n_b)
    k = np.arange(len(fb)) - np.repeat(b_start, n_b)
    base, rem = np.divmod(np.int64(frame_bytes), n_b)
    b_bytes = base[fb] + (k >= (n_b - rem)[fb])
    release = gen_us[fb] + k * tau_us
    n_pk = -(-b_bytes // l_p)
    pk_end = np.cumsum(n_pk)
    # per packet: its generation time (release + index in batch * gap),
    # built in place before the size column to keep the peak low, and size
    n = int(pk_end[-1]) if len(pk_end) else 0
    gen = np.arange(n, dtype=float)
    gen -= np.repeat(pk_end - n_pk, n_pk)
    gen *= cfg.intra_batch_gap_us
    gen += np.repeat(release, n_pk)
    size = np.full(n, l_p, dtype=np.int64)
    full = n_pk > 0
    size[pk_end[full] - 1] = (b_bytes - (n_pk - 1) * l_p)[full]
    return VideoTraffic(
        period_us=period_us, frame_bytes=frame_bytes,
        first_packet_id=first_packet_id, frame_id=frame_id,
        frame_gen_us=gen_us, n_batches=n_b,
        frame_packets=(np.add.reduceat(n_pk, b_start) if len(n_b)
                       else np.zeros(0, dtype=np.int64)),
        batch_index=k, batch_bytes=b_bytes, batch_release_us=release,
        batch_packets=n_pk, packet_bytes=size, packet_gen_us=gen)


def generate_video_frames(cfg: TrafficConfig, rng: np.random.Generator,
                          duration_s: float) -> VideoTraffic:
    """All frames generated in [0, duration), packetized, ids sequential:
    the one window of video_windows(..., None)."""
    ((frames, _),) = video_windows(cfg, rng, duration_s, None)
    return frames


@dataclass(frozen=True, eq=False)
class VideoWindows:
    """A run's video frames, drawn but not packetized.

    Iterating packetizes them window_frames at a time (all at once if
    None), packet ids running on from one window to the next, and gives
    each window's VideoTraffic with the time before which no packet of a
    later window is emitted (inf after the last window). There is always
    at least one window, and every iteration gives the same windows.
    """

    cfg: TrafficConfig
    gen_us: np.ndarray
    n_batches: np.ndarray
    window_frames: int | None

    def __iter__(self):
        cfg, n = self.cfg, len(self.gen_us)
        frame_bytes, period_us = frame_size_bytes(cfg), 1e6 / cfg.fps
        # a packet is emitted at or after its frame's generation under
        # the frame pacer, and less than one batch interval before it
        # under the global one
        early_us = (cfg.inter_batch_time_ms * 1e3
                    if cfg.pacer_anchor == "global" else 0.0)
        first_packet_id = 0
        step = self.window_frames or max(n, 1)
        for lo in range(0, max(n, 1), step):
            hi = min(lo + step, n)
            frames = _packetize(cfg, np.arange(lo, hi), self.gen_us[lo:hi],
                                self.n_batches[lo:hi], frame_bytes,
                                period_us, first_packet_id)
            first_packet_id += len(frames.packet_bytes)
            yield frames, (self.gen_us[hi] - early_us if hi < n else math.inf)


def video_windows(cfg: TrafficConfig, rng: np.random.Generator,
                  duration_s: float,
                  window_frames: int | None) -> VideoWindows:
    """The frames generated in [0, duration), to be packetized
    window_frames at a time (all at once if None).

    Draws one batch count per frame period of the run, in one call: the
    last draw may be for a frame at the end, which is then dropped.
    """
    period_us = 1e6 / cfg.fps
    n_frames = max(0, math.ceil(duration_s * 1e6 / period_us))
    gen_us, n_batches = _draw_frames(cfg, rng, 0, n_frames)
    n_kept = int(np.count_nonzero(gen_us < duration_s * 1e6))
    return VideoWindows(cfg, gen_us[:n_kept], n_batches[:n_kept],
                        window_frames)


@dataclass(frozen=True, eq=False)
class Emissions:
    """Video packet emissions in time order, ties in packet_id order:
    parallel arrays of emission times (us) and packet ids. Iterating
    gives (time, packet_id) pairs of Python numbers."""

    times_us: np.ndarray
    packet_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.times_us)

    def __iter__(self):
        return zip(self.times_us.tolist(), self.packet_ids.tolist())


def video_packet_emissions(frames: VideoTraffic,
                           cfg: TrafficConfig) -> Emissions:
    """The emission time of every video packet, time-ordered.

    With the default frame-anchored pacer the emission instant is the
    packet's generation time. With the global-grid pacer each batch waits
    for the next multiple of tau at or after its release time.
    """
    times = frames.packet_gen_us
    if cfg.pacer_anchor == "global":
        tau_us = cfg.inter_batch_time_ms * 1e3
        n_pk = frames.batch_packets
        start = np.ceil(frames.batch_release_us / tau_us - 1e-9) * tau_us
        j = np.arange(len(times)) - np.repeat(np.cumsum(n_pk) - n_pk, n_pk)
        times = np.repeat(start, n_pk) + j * cfg.intra_batch_gap_us
    # packets are in packet_id order, so a stable sort on time alone
    # gives (time, packet_id) order, in a copy of the times
    order = np.argsort(times, kind="stable")
    return Emissions(times[order], order + frames.first_packet_id)


def ul_controller_stream(cfg: TrafficConfig,
                         duration_s: float) -> np.ndarray:
    """The generation times (us, float64) of the uplink controller
    packets, one per refresh period, each ul_packet_size_bytes long.

    Packet k is generated at k * ul_period, k >= 1, so a run of length D
    carries floor(D / ul_period) packets.
    """
    if cfg.ul_period_ms <= 0:
        raise ValueError("ul_period_ms must be positive")
    period_us = cfg.ul_period_ms * 1e3
    count = math.floor(duration_s * 1e6 / period_us + 1e-9)
    return np.arange(1, count + 1) * period_us
