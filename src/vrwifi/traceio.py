"""Capture-trace ingestion and analysis.

Reads the canonical CSV schema (one row per UDP packet, header below),
classifies rows into the WebRTC streams, and reconstructs the video
stream's batch and frame structure. A documented adapter maps common
tshark field names onto the canonical header.

A parsed trace is a Trace: one numpy array per column, in time order,
and the analysis works on those arrays. reconstruct_frames and
interarrival_jitter also take a list of TraceRecord, which they convert
to a Trace once on entry; Trace.from_records converts one for the rest.

Canonical columns (optional ones may be empty):
    timestamp,length,src_port,dst_port,direction,
    rtp_payload_type,rtp_ssrc,rtp_timestamp,rtp_marker,protocol
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter, itemgetter

import numpy as np

from vrwifi.traffic import VideoTraffic

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


# Integer columns whose values all lie within +-2**32 (every real port,
# payload type, SSRC, RTP timestamp and length) are int64. Any other
# integer column holds Python ints (dtype object), so that its sums,
# differences and the jitter's division stay exact where int64 would
# wrap or round.
_INT64_BOUND = 2**32


def _int_column(values) -> np.ndarray:
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if column.size and max(-int(column.min()),
                           int(column.max())) > _INT64_BOUND:
        return column.astype(object)
    return column


def _optional_int_column(values) -> tuple[np.ndarray, np.ndarray]:
    """The values with 0 for None, and which values are not None."""
    column = np.array(values, dtype=object)
    present = np.not_equal(column, None)
    return _int_column(np.where(present, column, 0)), present


def _optional(column: np.ndarray, present: np.ndarray) -> list:
    return [v if p else None
            for v, p in zip(column.tolist(), present.tolist())]


def _uplink(direction: str | None) -> bool:
    """True for UL; False for DL or no direction. Either in any case;
    other text raises TraceError."""
    upper = direction.upper() if direction else "DL"
    if upper not in ("DL", "UL"):
        raise TraceError(f"direction {direction!r} is neither DL nor UL")
    return upper == "UL"


class _Memo(dict):
    """rule(text) of each text looked up, computed once; a text the rule
    rejects raises on every lookup."""

    def __init__(self, rule, known=()):
        super().__init__(known)
        self.rule = rule

    def __missing__(self, text):
        value = self[text] = self.rule(text)
        return value


def _truncate(text: str) -> int:
    return int(float(text))


def _marker(text: str) -> bool:
    text.encode()   # a byte that was not UTF-8 raises UnicodeEncodeError
    return text.strip().lower() in ("1", "true", "t", "yes")


@dataclass(eq=False)
class Trace:
    """A trace held by column: one numpy array per TraceRecord field,
    one entry per packet.

    The direction is the boolean `uplink`. An optional integer field is
    0 where a packet has no value, and its `has_*` column says which
    packets have one. Iterating over a Trace yields TraceRecords, each
    built when read.
    """

    timestamp_s: np.ndarray          # float64
    length: np.ndarray
    src_port: np.ndarray             # 0 when absent
    dst_port: np.ndarray             # 0 when absent
    uplink: np.ndarray               # bool
    rtp_payload_type: np.ndarray
    has_rtp_payload_type: np.ndarray
    rtp_ssrc: np.ndarray
    has_rtp_ssrc: np.ndarray
    rtp_timestamp: np.ndarray
    has_rtp_timestamp: np.ndarray
    rtp_marker: np.ndarray           # object: True, False or None
    protocol: np.ndarray             # object: str or None

    @classmethod
    def from_columns(cls, column) -> Trace:
        """A Trace from column(name), the list of the values of each
        TraceRecord field in turn: uplink flags for "direction", None
        for an absent value. Each list is converted to an array before
        the next is asked for."""
        return cls(np.array(column("timestamp_s"), dtype=float),
                   _int_column(column("length")),
                   _int_column(column("src_port")),
                   _int_column(column("dst_port")),
                   np.array(column("direction"), dtype=bool),
                   *_optional_int_column(column("rtp_payload_type")),
                   *_optional_int_column(column("rtp_ssrc")),
                   *_optional_int_column(column("rtp_timestamp")),
                   np.array(column("rtp_marker"), dtype=object),
                   np.array(column("protocol"), dtype=object))

    @classmethod
    def from_records(cls, records: list) -> Trace:
        """The records as a Trace, in their order. A direction other than
        DL or UL (any case) raises TraceError."""
        uplinks = _Memo(_uplink)

        def column(name: str) -> list:
            values = map(attrgetter(name), records)
            if name == "direction":
                values = map(uplinks.__getitem__, values)
            return list(values)

        return cls.from_columns(column)

    def take(self, rows) -> Trace:
        """The packets at `rows` (indices, a mask or a slice)."""
        return Trace(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __len__(self) -> int:
        return len(self.timestamp_s)

    def _field_lists(self) -> list[list]:
        """The values of each TraceRecord field in turn, as Python
        objects: "DL" or "UL" for the direction, None where absent."""
        return [self.timestamp_s.tolist(), self.length.tolist(),
                self.src_port.tolist(), self.dst_port.tolist(),
                ["UL" if u else "DL" for u in self.uplink.tolist()],
                _optional(self.rtp_payload_type, self.has_rtp_payload_type),
                _optional(self.rtp_ssrc, self.has_rtp_ssrc),
                _optional(self.rtp_timestamp, self.has_rtp_timestamp),
                self.rtp_marker.tolist(), self.protocol.tolist()]

    def __iter__(self):
        return map(TraceRecord, *self._field_lists())


def _as_trace(records) -> Trace:
    """A Trace as it is; a list of TraceRecord converted to one."""
    if isinstance(records, Trace):
        return records
    return Trace.from_records(records)


@dataclass
class ParseResult:
    records: Trace  # iterating yields TraceRecords, each built when read
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


def parse_trace(path: str) -> ParseResult:
    """Parse a canonical or tshark-named CSV into a time-sorted Trace.

    A header row csv.reader refuses, missing mandatory columns, and two
    header columns that give the same field (`frame.len` and
    `udp.length`, say) raise TraceError. Rows that do not parse (a byte
    not UTF-8, a field over csv.field_size_limit()), rows with a
    non-finite timestamp or length, a timestamp of 2**53 us or more
    either side of 0, or a non-positive length, and rows whose
    direction is neither DL nor UL are skipped and reported
    with the file line they start on. A UTF-8 BOM and blank lines are
    ignored. Rows are sorted (stably) only if out of order.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape",
              newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:   # a field over csv.field_size_limit()
            raise TraceError(f"{path}: header row: {exc}") from None
        if header is None:
            raise TraceError(f"{path}: empty file, no header row")
        index = {}   # canonical name -> header column
        for i, name in enumerate(header):
            canonical = TSHARK_FIELD_MAP.get(name, name)
            if canonical not in CANONICAL_COLUMNS:
                continue
            if canonical in index:
                raise TraceError(
                    f"{path}: columns '{header[index[canonical]]}' and "
                    f"'{name}' both give {canonical}")
            index[canonical] = i
        missing = [c for c in MANDATORY_COLUMNS if c not in index]
        if missing:
            raise TraceError(
                f"{path}: missing mandatory column(s): {', '.join(missing)}")

        width = len(header)
        # a column the header lacks reads the empty cell appended to each
        # row at index `width`
        cells = itemgetter(*(index.get(c, width) for c in CANONICAL_COLUMNS))
        # most cells repeat a text seen before, so each rule runs once per
        # distinct text; an empty or absent integer is 0 for a port and
        # None for the rest
        floats = _Memo(float)
        lengths = _Memo(int)    # keyed by the parsed float
        ports = _Memo(_truncate, {"": 0, None: 0})
        ints = _Memo(_truncate, {"": None, None: None})
        uplinks = _Memo(_uplink)
        markers = _Memo(_marker, {"": None, None: None})
        # equal protocol texts share one str; encode() refuses non-UTF-8
        protocols = _Memo(lambda text: text.encode().decode(),
                          {"": None, None: None})
        # one list per TraceRecord field; "direction" holds uplink flags
        columns = {f.name: [] for f in fields(TraceRecord)}
        columns["timestamp_s"] = array("d")   # no float object per row
        (add_time, add_length, add_src, add_dst, add_uplink, add_pt,
         add_ssrc, add_rtp_ts, add_marker, add_protocol) = (
             c.append for c in columns.values())
        skipped = []
        end = reader.line_num
        while True:   # after an error, csv.reader goes on at the next line
            try:
                for row in reader:
                    start, end = end, reader.line_num
                    if len(row) != width:
                        if not row:     # a blank line
                            continue
                        # the cells a short row lacks read as None
                        row = (row + [None] * width)[:width]
                    row.append("")
                    (timestamp, length, src, dst, direction, pt, ssrc, rtp_ts,
                     marker, protocol) = cells(row)
                    try:
                        timestamp = float(timestamp)
                        length = floats[length]
                        if not (math.isfinite(timestamp)
                                and math.isfinite(length)):
                            raise ValueError(f"non-finite timestamp "
                                             f"{timestamp} or length {length}")
                        if not abs(timestamp) < 2**53 / 1e6:   # see _round_us
                            raise ValueError(f"timestamp {timestamp} s is "
                                             f"beyond 2**53 us")
                        length = lengths[length]
                        if length <= 0:
                            raise ValueError(f"non-positive length {length}")
                        src, dst = ports[src], ports[dst]
                        uplink = uplinks[direction]
                        pt, ssrc, rtp_ts = ints[pt], ints[ssrc], ints[rtp_ts]
                        marker, protocol = markers[marker], protocols[protocol]
                    except (TypeError, ValueError, OverflowError) as exc:
                        # OverflowError: an infinite value in an int cell
                        skipped.append((start + 1, str(exc)))
                        continue
                    add_time(timestamp)
                    add_length(length)
                    add_src(src)
                    add_dst(dst)
                    add_uplink(uplink)
                    add_pt(pt)
                    add_ssrc(ssrc)
                    add_rtp_ts(rtp_ts)
                    add_marker(marker)
                    add_protocol(protocol)
                break
            except csv.Error as exc:   # a field over csv.field_size_limit()
                skipped.append((end + 1, str(exc)))
                end = reader.line_num
    # pop: each list is freed once converted
    trace = Trace.from_columns(columns.pop)
    t = trace.timestamp_s
    if not (t[1:] >= t[:-1]).all():   # finite: no NaN hides a row
        order = np.argsort(t, kind="stable")
        for f in fields(trace):   # a column at a time: never two copies
            setattr(trace, f.name, getattr(trace, f.name)[order])
    return ParseResult(trace, skipped)


BLOCK_ROWS = 4096   # rows a loop turns into Python objects at a time


def write_trace(trace: Trace, path: str) -> None:
    """Write a Trace using the canonical header, one row per packet in its
    order; absent values stay empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for start in range(0, len(trace), BLOCK_ROWS):
            times, *middle, markers, protocols = trace.take(
                slice(start, start + BLOCK_ROWS))._field_lists()
            # csv.writer writes None as an empty cell
            writer.writerows(zip(
                map("{:.6f}".format, times), *middle,
                [None if m is None else str(m).lower() for m in markers],
                protocols))


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


def _mean_size(lengths: np.ndarray) -> float:
    return int(lengths.sum()) / len(lengths)


def _flow_stats(times: np.ndarray,
                lengths: np.ndarray) -> tuple[float, float]:
    """Mean packet size and median inter-packet gap (ms) of one flow."""
    mean_size = _mean_size(lengths)
    if len(times) < 2:
        return mean_size, math.inf
    gaps = np.sort(np.diff(np.sort(times)) * 1e3)
    return mean_size, float(gaps[len(gaps) // 2])


def _flows(trace: Trace) -> list[np.ndarray]:
    """Row indices of each (src_port, dst_port, direction) flow, each in
    row order."""
    key = np.zeros(len(trace), dtype=np.int64)
    for column in (trace.src_port, trace.dst_port, trace.uplink):
        if (column != column[0]).any():   # a constant one keeps the key
            code = np.unique(column, return_inverse=True)[1]
            key = key * (code.max() + 1) + code
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _rtp_flow_labels(lengths: np.ndarray, ssrc: np.ndarray,
                     has_ssrc: np.ndarray, rtp: np.ndarray) -> np.ndarray:
    """Labels of a flow's rows from its RTP rows (`rtp`: rows with an SSRC
    or a payload type). Each SSRC is video or audio by its mean packet
    size; RTP rows without an SSRC form one more group. A row without RTP
    columns takes that group's label if there is one, else the label of
    most RTP rows (on a tie, the label of the first)."""
    s = np.sort(ssrc)   # each SSRC's code: its place among the distinct ones
    group = np.searchsorted(s[np.r_[True, s[1:] != s[:-1]]], ssrc)
    group = np.where(has_ssrc, group + 1, 0)    # 0: no SSRC
    label_of = np.full(group.max() + 1, None, dtype=object)
    for g in np.flatnonzero(np.bincount(group[rtp])).tolist():
        members = rtp & (group == g)
        label_of[g] = (SRTP_VIDEO
                       if _mean_size(lengths[members]) >= RTP_VIDEO_MIN_BYTES
                       else SRTP_AUDIO)
    rtp_labels = label_of[group[rtp]]
    n_video = np.count_nonzero(rtp_labels == SRTP_VIDEO)
    n_audio = len(rtp_labels) - n_video
    if label_of[0] is None:
        label_of[0] = (rtp_labels[0] if n_video == n_audio
                       else SRTP_VIDEO if n_video > n_audio else SRTP_AUDIO)
    return label_of[group]


def _flow_label(trace: Trace, rows: np.ndarray):
    """The label of each row of one flow, or one label for all of them."""
    has_ssrc = trace.has_rtp_ssrc[rows]
    rtp = has_ssrc | trace.has_rtp_payload_type[rows]
    lengths = trace.length[rows]
    if rtp.any():
        return _rtp_flow_labels(lengths, trace.rtp_ssrc[rows], has_ssrc, rtp)
    protocols = {p.lower() for p in set(trace.protocol[rows].tolist()) if p}
    if len(protocols) == 1:
        label = _PROTOCOL_LABELS.get(protocols.pop())
        if label is not None:
            if (label == SRTP_VIDEO
                    and _mean_size(lengths) < RTP_VIDEO_MIN_BYTES):
                label = SRTP_AUDIO
            return label
    mean_size, median_gap = _flow_stats(trace.timestamp_s[rows], lengths)
    return next((lab for lab, (s0, s1), (g0, g1) in FLOW_SIGNATURES
                 if s0 <= mean_size <= s1 and g0 <= median_gap <= g1),
                GENERIC)


def classify_streams(trace: Trace) -> np.ndarray:
    """Label every packet with its stream; unclassifiable rows become
    generic-UDP (classification never fails). Returns an array of labels.

    Flows (src, dst, direction) carrying RTP columns split into video and
    audio per SSRC by packet size; flows with a protocol column map
    directly; everything else goes through size/periodicity heuristics.
    """
    # one shared str: np.full would make a new one per row
    labels = np.empty(len(trace), dtype=object)
    labels.fill(GENERIC)
    if len(trace):
        for rows in _flows(trace):
            labels[rows] = _flow_label(trace, rows)
    return labels


def inter_packet_ms(rows: Trace) -> np.ndarray:
    """Gaps between consecutive packets of a time-sorted Trace, ms."""
    return np.diff(rows.timestamp_s) * 1e3


def stream_summaries(groups: dict[str, Trace]) -> list[StreamSummary]:
    """Table-style per-stream statistics from analyze_video's groups: mean
    packet size, mean inter-packet time, and load over the stream's own
    span."""
    out = []
    for label, rows in groups.items():
        n = len(rows)
        total_bytes = int(rows.length.sum())
        span = float(rows.timestamp_s[-1] - rows.timestamp_s[0])
        # left to right on every interpreter: sum() compensates from 3.12
        gaps = inter_packet_ms(rows)
        out.append(StreamSummary(
            label=label,
            packet_count=n,
            mean_packet_size=total_bytes / n,
            mean_inter_packet_ms=(float(np.cumsum(gaps)[-1]) / len(gaps)
                                  if len(gaps) else 0.0),
            load_mbps=(total_bytes * 8 / span / 1e6) if span > 0 else 0.0,
        ))
    return out


# -- batch / frame structure ----------------------------------------------

def detect_batches(trace: Trace, gap_threshold_ms: float = 1.0) -> np.ndarray:
    """Start time (s) of each batch of a time-sorted Trace: a new batch
    starts whenever the inter-packet gap exceeds the threshold."""
    times = trace.timestamp_s
    if not len(times):
        return times
    new = np.flatnonzero(np.diff(times) > gap_threshold_ms * 1e-3) + 1
    return times[np.r_[0, new]]


def batch_spacings_ms(batches: np.ndarray) -> np.ndarray:
    """Time between consecutive batch starts, ms."""
    return np.diff(batches) * 1e3


def modal_spacing_ms(spacings) -> float:
    """Most common spacing after rounding to 0.01 ms; on a tie, the one
    seen first."""
    if len(spacings) == 0:
        raise TraceError("no spacings to take a mode over")
    rounded = [round(s / 0.01) * 0.01
               for s in np.asarray(spacings, dtype=float).tolist()]
    return Counter(rounded).most_common(1)[0][0]


def reconstruct_frames(records,
                       gap_threshold_ms: float = 1.0) -> list[FrameStats]:
    """Group consecutive records sharing an RTP timestamp into frames.

    Raises TraceError when RTP timestamps are absent; batch-level
    analysis (detect_batches) is the fallback for such traces.
    """
    video = _as_trace(records)
    n = len(video)
    if not n:
        return []
    if not video.has_rtp_timestamp.all():
        raise TraceError(
            "rtp_timestamp column required to reconstruct frames; "
            "use batch-level analysis (detect_batches) instead")
    times, rtp_ts = video.timestamp_s, video.rtp_timestamp
    first = np.flatnonzero(np.r_[True, rtp_ts[1:] != rtp_ts[:-1]])
    last = np.r_[first[1:], n] - 1
    # a gap over the threshold inside a frame starts another batch of it
    new_batch = np.r_[np.diff(times) > gap_threshold_ms * 1e-3, False]
    new_batch[last] = False
    return list(map(FrameStats, rtp_ts[first].tolist(),
                    times[first].tolist(), times[last].tolist(),
                    np.add.reduceat(video.length, first).tolist(),
                    (last - first + 1).tolist(),
                    (1 + np.add.reduceat(new_batch, first)).tolist()))


def inter_frame_times_ms(frames: list[FrameStats]) -> list[float]:
    return [(b.first_s - a.first_s) * 1e3 for a, b in zip(frames, frames[1:])]


def assembly_delays(frames: list[FrameStats]) -> list[float]:
    """Per-frame time between first and last packet reception, ms."""
    return [(f.last_s - f.first_s) * 1e3 for f in frames]


def interarrival_jitter(records) -> float:
    """Smoothed interarrival jitter in ms (J += (|D| - J) / 16).

    With RTP timestamps, D is the classic transit-time difference; without
    them, D falls back to the difference of consecutive inter-arrival
    times (a periodic source is then assumed).
    """
    trace = _as_trace(records)
    if len(trace) < 2:
        raise TraceError("jitter needs at least 2 records")
    gaps = inter_packet_ms(trace)
    if trace.has_rtp_timestamp.all():
        d = gaps - np.diff(trace.rtp_timestamp) / RTP_CLOCK_HZ * 1e3
    else:
        d = np.diff(gaps)
    jitter = 0.0
    for start in range(0, len(d), BLOCK_ROWS):
        for abs_d in np.abs(d[start:start + BLOCK_ROWS]).tolist():
            jitter += (abs_d - jitter) / 16.0
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
    """A trace's rows under each stream label, the batch and frame
    structure of its video stream at one gap threshold, and the trace
    metrics computed from them."""

    groups: dict[str, Trace]                 # the rows under each label
    metrics: TraceMetrics = field(default_factory=TraceMetrics)
    # start time of each batch (s), and the time between starts (ms)
    batches: np.ndarray = field(default_factory=lambda: np.empty(0))
    spacings_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
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


def analyze_video(trace: Trace,
                  gap_threshold_ms: float = 1.0) -> VideoAnalysis:
    """Classify a time-sorted Trace and move its rows into one Trace per
    label (labels sorted, rows in trace order), then find the video
    stream's batches, its frames when every video packet has an RTP
    timestamp, and its interarrival jitter.

    The trace is left with no rows: each column is split, then dropped
    before the next, so that no row is held twice."""
    labels = classify_streams(trace)
    rows = {label: np.flatnonzero(labels == label)
            for label in sorted(set(labels.tolist()))}
    parts = {label: [] for label in rows}
    for f in fields(trace):
        column = getattr(trace, f.name)
        setattr(trace, f.name, column[:0].copy())   # no view of the rows
        for label, at in rows.items():
            parts[label].append(column[at])
        del column
    va = VideoAnalysis({label: Trace(*columns)
                        for label, columns in parts.items()})
    video = va.groups.get(SRTP_VIDEO)
    if video is None:
        return va
    tm = va.metrics
    tm.video_mean_packet_size_bytes = _mean_size(video.length)
    gaps = inter_packet_ms(video)
    if len(gaps):
        tm.video_mean_inter_packet_ms = float(np.mean(gaps))
    va.batches = detect_batches(video, gap_threshold_ms)
    va.spacings_ms = batch_spacings_ms(va.batches)
    if len(va.spacings_ms):
        tm.batch_spacing_modal_ms = modal_spacing_ms(va.spacings_ms)
    if video.has_rtp_timestamp.all():
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


def _round_us(t_s: np.ndarray) -> np.ndarray:
    """Times in s as write_trace prints them, float("{:.6f}".format(t)):
    the double nearest k us, k = round(t * 1e6), which k / 1e6 gives
    exactly (k < 2**53). The string decides only where t * 1e6 lies
    within its rounding error of a half, so that k is in doubt."""
    scaled = t_s * 1e6
    out = np.rint(scaled) / 1e6
    tie = (np.abs(scaled - np.floor(scaled) - 0.5)
           <= np.maximum(1e-6, np.spacing(np.abs(scaled))))
    out[tie] = [float("{:.6f}".format(t)) for t in t_s[tie].tolist()]
    return out


def _video_trace(frames: VideoTraffic, times_us: np.ndarray) -> Trace:
    """One row per packet at its instant in times_us (NaN: no row). Rows
    come back in time order, each timestamp rounded to the microsecond
    as write_trace prints it, so the Trace equals what parse_trace reads
    back from its file."""
    has_time = ~np.isnan(times_us)
    times_s = times_us[has_time] / 1e6
    # stable: packets are in packet_id order, which breaks ties
    order = np.argsort(times_s, kind="stable")
    rows = np.flatnonzero(has_time)[order]
    n = len(rows)
    rtp_ts = np.rint(frames.frame_gen_us * RTP_CLOCK_HZ / 1e6).astype(
        np.int64)
    # a constant column is a read-only view of its one value
    present, none = np.broadcast_to(True, n), np.broadcast_to(None, n)
    # round after the sort: rows whose times differ by less than 1 us
    # keep their time order, as they do in the written file
    return Trace(
        _round_us(times_s[order]),
        frames.packet_bytes[rows],
        np.broadcast_to(np.int64(VIDEO_PORT[0]), n),
        np.broadcast_to(np.int64(VIDEO_PORT[1]), n),
        np.broadcast_to(False, n),
        np.broadcast_to(np.int64(VIDEO_PT), n), present,
        np.broadcast_to(np.int64(VIDEO_SSRC), n), present,
        np.repeat(rtp_ts, frames.frame_packets)[rows], present, none, none)


def generated_video_trace(frames: VideoTraffic) -> Trace:
    """Server-side view of generated video traffic: one row per packet at
    its generation instant."""
    return _video_trace(frames, frames.packet_gen_us)


def delivered_trace(frames: VideoTraffic) -> Trace:
    """Client-side view of a finished run: delivered packets at their
    delivery instants (undelivered packets, NaN there, are absent, as in a
    capture)."""
    return _video_trace(frames, frames.delivery_us)
