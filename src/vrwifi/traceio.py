"""Capture-trace ingestion and analysis.

Reads the canonical CSV schema (one row per UDP packet, header below),
classifies rows into the WebRTC streams, and reconstructs the video
stream's batch and frame structure. A documented adapter maps common
tshark field names onto the canonical header.

Canonical columns (optional ones may be empty):
    timestamp,length,src_port,dst_port,direction,
    rtp_payload_type,rtp_ssrc,rtp_timestamp,rtp_marker,protocol
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from vrwifi.traffic import VideoFrame

CANONICAL_COLUMNS = [
    "timestamp", "length", "src_port", "dst_port", "direction",
    "rtp_payload_type", "rtp_ssrc", "rtp_timestamp", "rtp_marker",
    "protocol",
]

MANDATORY_COLUMNS = ("timestamp", "length")

# tshark -T fields names -> canonical names
TSHARK_FIELD_MAP = {
    "frame.time_epoch": "timestamp",
    "frame.len": "length",
    "udp.length": "length",
    "udp.srcport": "src_port",
    "udp.dstport": "dst_port",
    "rtp.p_type": "rtp_payload_type",
    "rtp.ssrc": "rtp_ssrc",
    "rtp.timestamp": "rtp_timestamp",
    "rtp.marker": "rtp_marker",
    "_ws.col.protocol": "protocol",
}

STUN, SRTP_AUDIO, SRTP_VIDEO = "STUN", "SRTP-audio", "SRTP-video"
SRTCP, DTLS, GENERIC = "SRTCP", "DTLS", "generic-UDP"

RTP_CLOCK_HZ = 90_000


class TraceError(ValueError):
    pass


@dataclass
class TraceRecord:
    timestamp_s: float
    length: int
    src_port: int = 0
    dst_port: int = 0
    direction: str = "DL"
    rtp_payload_type: int | None = None
    rtp_ssrc: int | None = None
    rtp_timestamp: int | None = None
    rtp_marker: bool | None = None
    protocol: str | None = None


@dataclass
class ParseResult:
    records: list
    skipped: list  # (line number, reason)


@dataclass
class StreamSummary:
    label: str
    packet_count: int
    mean_packet_size: float
    mean_inter_packet_ms: float
    load_mbps: float


@dataclass
class FrameStats:
    rtp_timestamp: int
    first_s: float
    last_s: float
    size_bytes: int
    n_packets: int
    n_batches: int = 1


def _to_int(value: str):
    return int(float(value)) if value not in ("", None) else None


def _to_bool(value: str):
    if value in ("", None):
        return None
    return value.strip().lower() in ("1", "true", "t", "yes")


def parse_trace(path: str) -> ParseResult:
    """Parse a canonical or tshark-named CSV into sorted TraceRecords.

    Missing mandatory columns, and two header columns that give the same
    field (`frame.len` and `udp.length`, say), raise TraceError.
    Unparseable rows, rows with a non-finite timestamp or length, and
    rows with a non-positive length are skipped and reported with their
    line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TraceError(f"{path}: empty file, no header row")
        columns = {}   # canonical name -> header column
        for name in reader.fieldnames:
            canonical = TSHARK_FIELD_MAP.get(name, name)
            if canonical not in CANONICAL_COLUMNS:
                continue
            if canonical in columns:
                raise TraceError(
                    f"{path}: columns '{columns[canonical]}' and '{name}' "
                    f"both give {canonical}")
            columns[canonical] = name
        missing = [c for c in MANDATORY_COLUMNS if c not in columns]
        if missing:
            raise TraceError(
                f"{path}: missing mandatory column(s): {', '.join(missing)}")

        records, skipped = [], []
        for lineno, row in enumerate(reader, start=2):
            values = {canon: row.get(raw) for canon, raw in columns.items()}
            try:
                timestamp = float(values["timestamp"])
                length = float(values["length"])
                if not (math.isfinite(timestamp) and math.isfinite(length)):
                    raise ValueError(
                        f"non-finite timestamp {timestamp} or length {length}")
                length = int(length)
                if length <= 0:
                    raise ValueError(f"non-positive length {length}")
                records.append(TraceRecord(
                    timestamp_s=timestamp,
                    length=length,
                    src_port=_to_int(values.get("src_port")) or 0,
                    dst_port=_to_int(values.get("dst_port")) or 0,
                    direction=(values.get("direction") or "DL").upper(),
                    rtp_payload_type=_to_int(values.get("rtp_payload_type")),
                    rtp_ssrc=_to_int(values.get("rtp_ssrc")),
                    rtp_timestamp=_to_int(values.get("rtp_timestamp")),
                    rtp_marker=_to_bool(values.get("rtp_marker")),
                    protocol=values.get("protocol") or None,
                ))
            except (TypeError, ValueError, OverflowError) as exc:
                # OverflowError: an infinite value in an integer column
                skipped.append((lineno, str(exc)))
    records.sort(key=lambda r: r.timestamp_s)
    return ParseResult(records=records, skipped=skipped)


def write_trace(records: list, path: str) -> None:
    """Write records using the canonical header; None fields stay empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for r in records:
            marker = "" if r.rtp_marker is None else str(r.rtp_marker).lower()
            writer.writerow([
                f"{r.timestamp_s:.6f}", r.length, r.src_port, r.dst_port,
                r.direction,
                "" if r.rtp_payload_type is None else r.rtp_payload_type,
                "" if r.rtp_ssrc is None else r.rtp_ssrc,
                "" if r.rtp_timestamp is None else r.rtp_timestamp,
                marker,
                r.protocol or "",
            ])


# -- classification ------------------------------------------------------

_PROTOCOL_LABELS = {
    "stun": STUN, "dtls": DTLS, "srtcp": SRTCP, "rtcp": SRTCP,
    "srtp": SRTP_VIDEO, "rtp": SRTP_VIDEO, "udp": GENERIC,
}

# SSRC-level split used when RTP columns are present
RTP_VIDEO_MIN_BYTES = 400

# Size/periodicity fallbacks used when no protocol or RTP columns are
# available; values follow the observed per-stream statistics. A flow
# takes the first label whose closed ranges hold both its mean packet
# size (bytes) and its median inter-packet gap (ms).
FLOW_SIGNATURES = (
    (STUN, (-math.inf, 135), (500.0, math.inf)),
    (SRTP_VIDEO, (900, math.inf), (-math.inf, 5.0)),
    (SRTP_AUDIO, (60, 250), (15.0, 25.0)),
    (SRTCP, (250, 700), (40.0, 90.0)),
    (DTLS, (90, 250), (3.0, 12.0)),
)


def _flow_stats(records: list) -> tuple[float, float]:
    sizes = [r.length for r in records]
    mean_size = sum(sizes) / len(sizes)
    if len(records) < 2:
        return mean_size, math.inf
    times = sorted(r.timestamp_s for r in records)
    gaps = [(b - a) * 1e3 for a, b in zip(times, times[1:])]
    gaps.sort()
    median_gap = gaps[len(gaps) // 2]
    return mean_size, median_gap


def classify_streams(records: list) -> list[str]:
    """Label every record with its stream; unclassifiable rows become
    generic-UDP (classification never fails).

    Flows (src, dst, direction) carrying RTP columns split into video and
    audio per SSRC by packet size; flows with a protocol column map
    directly; everything else goes through size/periodicity heuristics.
    """
    flows: dict[tuple, list[int]] = {}
    for idx, r in enumerate(records):
        flows.setdefault((r.src_port, r.dst_port, r.direction), []).append(idx)

    labels = [GENERIC] * len(records)
    for indices in flows.values():
        rows = [records[i] for i in indices]
        with_rtp = [r for r in rows if r.rtp_ssrc is not None
                    or r.rtp_payload_type is not None]
        if with_rtp:
            by_ssrc: dict = {}
            for r in with_rtp:
                by_ssrc.setdefault(r.rtp_ssrc, []).append(r)
            ssrc_label = {
                ssrc: (SRTP_VIDEO
                       if sum(x.length for x in grp) / len(grp)
                       >= RTP_VIDEO_MIN_BYTES else SRTP_AUDIO)
                for ssrc, grp in by_ssrc.items()
            }
            flow_majority = Counter(
                ssrc_label[r.rtp_ssrc] for r in with_rtp).most_common(1)[0][0]
            for i in indices:
                r = records[i]
                labels[i] = ssrc_label.get(r.rtp_ssrc, flow_majority)
            continue
        protocols = {r.protocol.lower() for r in rows if r.protocol}
        if len(protocols) == 1:
            label = _PROTOCOL_LABELS.get(next(iter(protocols)))
            if label is not None:
                mean_size, _ = _flow_stats(rows)
                if label == SRTP_VIDEO and mean_size < RTP_VIDEO_MIN_BYTES:
                    label = SRTP_AUDIO
                for i in indices:
                    labels[i] = label
                continue
        mean_size, median_gap = _flow_stats(rows)
        label = next((lab for lab, (s0, s1), (g0, g1) in FLOW_SIGNATURES
                      if s0 <= mean_size <= s1 and g0 <= median_gap <= g1),
                     GENERIC)
        for i in indices:
            labels[i] = label
    return labels


def group_streams(records: list, labels: list[str]) -> dict[str, list]:
    """Records of each stream label in time order, labels sorted."""
    groups: dict[str, list] = {}
    for r, label in zip(records, labels):
        groups.setdefault(label, []).append(r)
    return {label: sorted(groups[label], key=lambda r: r.timestamp_s)
            for label in sorted(groups)}


def inter_packet_ms(rows: list) -> list[float]:
    """Gaps between consecutive time-sorted records, ms."""
    return [(b.timestamp_s - a.timestamp_s) * 1e3
            for a, b in zip(rows, rows[1:])]


def stream_summaries(groups: dict[str, list]) -> list[StreamSummary]:
    """Table-style per-stream statistics from group_streams' output: mean
    packet size, mean inter-packet time, and load over the stream's own
    span."""
    out = []
    for label, rows in groups.items():
        n = len(rows)
        total_bytes = sum(r.length for r in rows)
        span = rows[-1].timestamp_s - rows[0].timestamp_s
        gaps = inter_packet_ms(rows)
        out.append(StreamSummary(
            label=label,
            packet_count=n,
            mean_packet_size=total_bytes / n,
            mean_inter_packet_ms=sum(gaps) / len(gaps) if gaps else 0.0,
            load_mbps=(total_bytes * 8 / span / 1e6) if span > 0 else 0.0,
        ))
    return out


# -- batch / frame structure ----------------------------------------------

def detect_batches(records: list, gap_threshold_ms: float = 1.0) -> list[list]:
    """Split time-sorted records into batches: a new batch starts whenever
    the inter-packet gap exceeds the threshold."""
    if not records:
        return []
    thresh_s = gap_threshold_ms * 1e-3
    batches = [[records[0]]]
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp_s - prev.timestamp_s > thresh_s:
            batches.append([cur])
        else:
            batches[-1].append(cur)
    return batches


def batch_spacings_ms(batches: list[list]) -> list[float]:
    starts = [b[0].timestamp_s for b in batches]
    return [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]


def modal_spacing_ms(spacings: list[float]) -> float:
    """Most common spacing after rounding to 0.01 ms."""
    if not spacings:
        raise TraceError("no spacings to take a mode over")
    rounded = [round(s / 0.01) * 0.01 for s in spacings]
    return Counter(rounded).most_common(1)[0][0]


def reconstruct_frames(records: list,
                       gap_threshold_ms: float = 1.0) -> list[FrameStats]:
    """Group consecutive records sharing an RTP timestamp into frames.

    Raises TraceError when RTP timestamps are absent; batch-level
    analysis (detect_batches) is the fallback for such traces.
    """
    if not records:
        return []
    if any(r.rtp_timestamp is None for r in records):
        raise TraceError(
            "rtp_timestamp column required to reconstruct frames; "
            "use batch-level analysis (detect_batches) instead")
    frames = []
    current: list = []
    for r in records:
        if current and r.rtp_timestamp != current[-1].rtp_timestamp:
            frames.append(_frame_from_records(current, gap_threshold_ms))
            current = []
        current.append(r)
    frames.append(_frame_from_records(current, gap_threshold_ms))
    return frames


def _frame_from_records(rows: list, gap_threshold_ms: float) -> FrameStats:
    return FrameStats(
        rtp_timestamp=rows[0].rtp_timestamp,
        first_s=rows[0].timestamp_s,
        last_s=rows[-1].timestamp_s,
        size_bytes=sum(r.length for r in rows),
        n_packets=len(rows),
        n_batches=len(detect_batches(rows, gap_threshold_ms)),
    )


def inter_frame_times_ms(frames: list[FrameStats]) -> list[float]:
    return [(b.first_s - a.first_s) * 1e3 for a, b in zip(frames, frames[1:])]


def assembly_delays(frames: list[FrameStats]) -> list[float]:
    """Per-frame time between first and last packet reception, ms."""
    return [(f.last_s - f.first_s) * 1e3 for f in frames]


def interarrival_jitter(records: list) -> float:
    """Smoothed interarrival jitter in ms (J += (|D| - J) / 16).

    With RTP timestamps, D is the classic transit-time difference; without
    them, D falls back to the difference of consecutive inter-arrival
    times (a periodic source is then assumed).
    """
    if len(records) < 2:
        raise TraceError("jitter needs at least 2 records")
    jitter = 0.0
    use_rtp = all(r.rtp_timestamp is not None for r in records)
    if use_rtp:
        for prev, cur in zip(records, records[1:]):
            d = ((cur.timestamp_s - prev.timestamp_s) * 1e3
                 - (cur.rtp_timestamp - prev.rtp_timestamp)
                 / RTP_CLOCK_HZ * 1e3)
            jitter += (abs(d) - jitter) / 16.0
    else:
        gaps = [(b.timestamp_s - a.timestamp_s) * 1e3
                for a, b in zip(records, records[1:])]
        for prev, cur in zip(gaps, gaps[1:]):
            jitter += (abs(cur - prev) - jitter) / 16.0
    return jitter


@dataclass
class TraceMetrics:
    """Video-stream statistics in the vocabulary that simulate and analyze
    both report as `trace_metrics` and that compare matches by name.
    A field is None when the trace does not define it."""

    video_mean_packet_size_bytes: float | None = None
    video_mean_inter_packet_ms: float | None = None
    batch_spacing_modal_ms: float | None = None
    inter_frame_time_mean_ms: float | None = None
    fps_estimate: float | None = None
    frame_size_mean_bytes: float | None = None
    assembly_delay_mean_ms: float | None = None
    batches_per_frame_mean: float | None = None
    video_jitter_ms: float | None = None


@dataclass
class VideoAnalysis:
    """Stream labels of a trace, the batch and frame structure of its
    video stream at one gap threshold, and the trace metrics computed
    from them."""

    labels: list[str]
    video: list[TraceRecord]
    metrics: TraceMetrics = field(default_factory=TraceMetrics)
    batches: list[list] = field(default_factory=list)
    spacings_ms: list[float] = field(default_factory=list)
    frames: list[FrameStats] | None = None   # None without RTP timestamps
    assembly_delays_ms: list[float] = field(default_factory=list)

    def trace_metrics(self) -> dict:
        """The defined trace metrics. A lone frame's size, assembly delay
        and batch count are no stream statistic, so the frame metrics
        need at least two frames."""
        tm = self.metrics
        if not self.frames or len(self.frames) < 2:
            tm = TraceMetrics(tm.video_mean_packet_size_bytes,
                              tm.video_mean_inter_packet_ms,
                              tm.batch_spacing_modal_ms,
                              video_jitter_ms=tm.video_jitter_ms)
        return {k: v for k, v in asdict(tm).items() if v is not None}


def analyze_video(records: list,
                  gap_threshold_ms: float = 1.0) -> VideoAnalysis:
    """Classify time-sorted records, then find the video stream's batches,
    its frames when every video record has an RTP timestamp, and its
    interarrival jitter."""
    labels = classify_streams(records)
    video = [r for r, l in zip(records, labels) if l == SRTP_VIDEO]
    va = VideoAnalysis(labels, video)
    if not video:
        return va
    tm = va.metrics
    tm.video_mean_packet_size_bytes = float(np.mean([r.length for r in video]))
    gaps = inter_packet_ms(video)
    if gaps:
        tm.video_mean_inter_packet_ms = float(np.mean(gaps))
    va.batches = detect_batches(video, gap_threshold_ms)
    va.spacings_ms = batch_spacings_ms(va.batches)
    if va.spacings_ms:
        tm.batch_spacing_modal_ms = modal_spacing_ms(va.spacings_ms)
    if all(r.rtp_timestamp is not None for r in video):
        frames = va.frames = reconstruct_frames(video, gap_threshold_ms)
        va.assembly_delays_ms = assembly_delays(frames)
        ift = inter_frame_times_ms(frames)
        if ift:
            tm.inter_frame_time_mean_ms = float(np.mean(ift))
            tm.fps_estimate = 1e3 / tm.inter_frame_time_mean_ms
        tm.frame_size_mean_bytes = float(
            np.mean([f.size_bytes for f in frames]))
        tm.assembly_delay_mean_ms = float(np.mean(va.assembly_delays_ms))
        tm.batches_per_frame_mean = float(
            np.mean([f.n_batches for f in frames]))
    if len(video) >= 2:
        tm.video_jitter_ms = interarrival_jitter(video)
    return va


# -- simulator export -------------------------------------------------------

VIDEO_SSRC = 0x4D565346
VIDEO_PT = 96
VIDEO_PORT = (50000, 5004)


def frame_rtp_timestamp(frame: VideoFrame) -> int:
    return int(round(frame.gen_time_us * RTP_CLOCK_HZ / 1e6))


def _video_trace(frames: list[VideoFrame], attr: str) -> list[TraceRecord]:
    """One row per packet at its `attr` instant (us); packets without
    one are left out. Rows come back in time order, each timestamp
    rounded to the microsecond as write_trace prints it, so the list
    equals what parse_trace reads back from its file."""
    out = []
    for frame in frames:
        ts = frame_rtp_timestamp(frame)
        for batch in frame.batches:
            for pkt in batch.packets:
                t_us = getattr(pkt, attr)
                if t_us is None:
                    continue
                out.append(TraceRecord(
                    timestamp_s=t_us / 1e6,
                    length=pkt.size_bytes,
                    src_port=VIDEO_PORT[0], dst_port=VIDEO_PORT[1],
                    direction="DL",
                    rtp_payload_type=VIDEO_PT, rtp_ssrc=VIDEO_SSRC,
                    rtp_timestamp=ts,
                ))
    out.sort(key=lambda r: r.timestamp_s)
    # round after the sort: rows whose times differ by less than 1 us
    # keep their time order, as they do in the written file
    for r in out:
        r.timestamp_s = float(f"{r.timestamp_s:.6f}")
    return out


def generated_video_trace(frames: list[VideoFrame]) -> list[TraceRecord]:
    """Server-side view of generated video traffic: one row per packet at
    its generation instant."""
    return _video_trace(frames, "gen_time_us")


def delivered_trace(frames: list[VideoFrame]) -> list[TraceRecord]:
    """Client-side view of a finished run: delivered packets at their
    delivery instants (undelivered packets are absent, as in a capture)."""
    return _video_trace(frames, "delivery_time_us")
