"""Collection and summarization of per-run statistics: packet and frame
delays, A-MPDU sizes, channel airtime, and buffer occupancy.

Percentiles are nearest-rank (no interpolation) so every implementation
of the same sample set reports identical numbers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from vrwifi.mac import Ampdu

# rows a per-packet pass after a run takes at a time: its temporaries
# cost a fixed few hundred kB instead of growing with the run
BLOCK = 1 << 14


@dataclass(slots=True)
class TxRecord:
    """One channel occupation: a data exchange or a collision."""

    role: str            # "ap", "client", or "collision"
    tx_start_us: float
    busy_end_us: float
    n_mpdus: int
    backoff_slots: int   # slots drawn for this access (-1 for collisions)

    def __reduce__(self):
        # a worker returns thousands of these: pickled as constructor
        # arguments they are smaller and faster than as slot state
        return TxRecord, (self.role, self.tx_start_us, self.busy_end_us,
                          self.n_mpdus, self.backoff_slots)


@dataclass
class DeliveryLog:
    """The packets one station delivered, exchange by exchange: exchange
    k delivered the next counts[k] ids, all stamped stamps[k] (us). Typed
    arrays (64-bit ints "q", doubles "d"), 8 bytes an entry: a delivered
    packet's id is not held as an int object for the rest of the run."""

    ids: array = field(default_factory=partial(array, "q"))
    stamps: array = field(default_factory=partial(array, "d"))
    counts: array = field(default_factory=partial(array, "q"))


@dataclass
class RunMetrics:
    duration_us: float = 0.0
    warmup_us: float = 0.0
    # sample sets, filtered to the post-warm-up window: flat arrays of
    # C doubles (delays) and 64-bit ints (sizes), so == gives a bool,
    # items read as Python numbers and numpy reads them without a copy
    dl_packet_delays_us: array = field(default_factory=partial(array, "d"))
    ul_packet_delays_us: array = field(default_factory=partial(array, "d"))
    vf_delays_us: array = field(default_factory=partial(array, "d"))
    assembly_delays_us: array = field(default_factory=partial(array, "d"))
    ampdu_sizes: array = field(default_factory=partial(array, "q"))
    # channel / buffer aggregates over the measured window
    airtime_busy_us: float = 0.0
    buffer_busy_us: float = 0.0
    buffer_level_integral: float = 0.0   # integral of AP queue length, us
    buffer_capacity: int = 0
    # whole-run conservation counters (never warm-up filtered)
    generated_video: int = 0
    generated_ul: int = 0
    delivered_video: int = 0
    delivered_ul: int = 0
    dropped_buffer: int = 0
    dropped_retx: int = 0
    residual: int = 0
    incomplete_frames: int = 0
    collisions: int = 0
    tx_log: list = field(default_factory=list)

    @property
    def measured_us(self) -> float:
        return self.duration_us - self.warmup_us

    def record_attempt(self, ampdu: Ampdu) -> None:
        """Sample the A-MPDU size of one transmission attempt
        (retransmission attempts included)."""
        self.ampdu_sizes.append(len(ampdu))

    def record_delivery(self, log: DeliveryLog, enqueue_us: np.ndarray,
                        delivery_us: np.ndarray, uplink: bool) -> None:
        """Stamp each packet in `log` with its delivery time in
        `delivery_us` (by packet id), and append the buffer delay of each
        that entered its buffer after the warm-up, at its time in
        `enqueue_us`, to the samples of its stream, in delivery order.
        Whole exchanges go about BLOCK packets at a time, so the
        temporaries stay small."""
        samples = (self.ul_packet_delays_us if uplink
                   else self.dl_packet_delays_us)
        ids = np.frombuffer(log.ids, dtype=np.int64)
        stamps = np.frombuffer(log.stamps)
        counts = np.frombuffer(log.counts, dtype=np.int64)
        # each exchange's first packet, and the exchanges that start
        # each block
        starts = np.concatenate(([0], np.cumsum(counts)))
        cuts = np.append(np.searchsorted(starts, np.arange(0, len(ids),
                                                           BLOCK)),
                         len(counts)).tolist()
        for k0, k1 in zip(cuts, cuts[1:]):
            block = ids[starts[k0]:starts[k1]]
            delay = np.repeat(stamps[k0:k1], counts[k0:k1])
            delivery_us[block] = delay
            enqueued = enqueue_us[block]
            delay -= enqueued
            samples.frombytes(delay[enqueued >= self.warmup_us]
                              .view(np.uint8))


def vf_delay(gen_us: np.ndarray, delivery_us: np.ndarray,
             starts: np.ndarray) -> np.ndarray:
    """Frame delivery times in us: from each frame's first packet
    generation to its last packet's delivery.

    The packets of frame i are rows starts[i] to starts[i + 1] - 1 of the
    per-packet generation and delivery times (the last frame's run to
    the end); starts increase strictly. An undelivered packet's delivery
    time is NaN. Raises ValueError if any packet is undelivered; callers
    exclude such frames and count them instead.
    """
    undelivered = np.isnan(delivery_us)
    if undelivered.any():
        frame = np.searchsorted(starts, np.argmax(undelivered), "right") - 1
        raise ValueError(f"frame {frame} has undelivered packets")
    return (np.maximum.reduceat(delivery_us, starts)
            - np.minimum.reduceat(gen_us, starts))


def summarize(samples_us) -> dict:
    """Nearest-rank summary: mean, p50, p99, p99.99, min, max, as Python
    numbers, of a list of numbers, or of a 1-D numpy array or an
    array.array, which it sorts in place."""
    if len(samples_us) == 0:
        raise ValueError("cannot summarize an empty sample list")
    # a list becomes one array; a stable sort orders non-NaN numbers as
    # sorted() does
    s = np.asarray(samples_us)
    s.sort(kind="stable")
    n = len(s)

    def rank(q):
        return s[max(0, math.ceil(q / 100.0 * n) - 1)].item()

    lo, hi = s[0].item(), s[-1].item()
    # fsum is exact, so the order it reads the samples in does not matter;
    # fsum-then-clamp keeps mean inside [min, max] even at 1-ulp edges
    mean = min(max(math.fsum(memoryview(s)) / n, lo), hi)
    return {
        "mean": mean,
        "p50": rank(50.0),
        "p99": rank(99.0),
        "p99_99": rank(99.99),
        "min": lo,
        "max": hi,
        "count": n,
    }


def ecdf(samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF evaluated at the sorted samples; probabilities span
    exactly [1/n, 1]."""
    if len(samples) == 0:
        raise ValueError("cannot build an ECDF from no samples")
    xs = np.sort(np.asarray(samples, dtype=float))
    ps = np.arange(1, len(xs) + 1) / len(xs)
    return xs, ps


def airtime_fraction(metrics: RunMetrics) -> float:
    """Busy channel time (PPDUs, control frames, and the SIFS gaps inside
    exchanges) divided by the measured duration."""
    if metrics.measured_us <= 0:
        raise ValueError("duration must be positive")
    return metrics.airtime_busy_us / metrics.measured_us


def buffer_occupancy(metrics: RunMetrics) -> float:
    """Fraction of measured time the AP transmit buffer is non-empty.

    The companion statistic buffer_mean_level gives the time-weighted
    mean queue length relative to capacity.
    """
    if metrics.measured_us <= 0:
        raise ValueError("no measured time")
    return metrics.buffer_busy_us / metrics.measured_us


def buffer_mean_level(metrics: RunMetrics) -> float:
    """Time-weighted mean AP queue length divided by buffer capacity."""
    if metrics.measured_us <= 0 or metrics.buffer_capacity <= 0:
        raise ValueError("no measured time or capacity")
    return (metrics.buffer_level_integral / metrics.measured_us
            / metrics.buffer_capacity)


def conservation_balance(metrics: RunMetrics) -> tuple[int, int]:
    """(generated, delivered + dropped + residual) over the whole run;
    equal iff no packet was lost track of."""
    generated = metrics.generated_video + metrics.generated_ul
    accounted = (metrics.delivered_video + metrics.delivered_ul
                 + metrics.dropped_buffer + metrics.dropped_retx
                 + metrics.residual)
    return generated, accounted


def metrics_summary(metrics: RunMetrics) -> dict:
    """JSON-ready digest of one run."""
    out = {
        "duration_s": metrics.duration_us / 1e6,
        "warmup_s": metrics.warmup_us / 1e6,
        "airtime_fraction": airtime_fraction(metrics),
        "buffer_occupancy": buffer_occupancy(metrics),
        "buffer_mean_level": buffer_mean_level(metrics),
        "collisions": metrics.collisions,
        "incomplete_frames": metrics.incomplete_frames,
        "conservation": dict(zip(("generated", "accounted"),
                                 conservation_balance(metrics))),
        "drops": {"buffer": metrics.dropped_buffer,
                  "retx": metrics.dropped_retx},
        "loss_rate": ((metrics.dropped_buffer + metrics.dropped_retx)
                      / max(1, metrics.generated_video + metrics.generated_ul)),
    }
    out.update(sample_summaries([metrics]))
    return out


# each sample set: report name, RunMetrics attribute, scale
SAMPLE_SETS = (
    ("dl_packet_delay_ms", "dl_packet_delays_us", 1e-3),
    ("ul_packet_delay_ms", "ul_packet_delays_us", 1e-3),
    ("vf_delay_ms", "vf_delays_us", 1e-3),
    ("assembly_delay_ms", "assembly_delays_us", 1e-3),
    ("ampdu_size", "ampdu_sizes", 1.0),
)


def sample_summaries(runs: list[RunMetrics]) -> dict:
    """Nearest-rank summary of each sample set pooled over the runs, in
    reporting units (delays in ms); None for an empty set. The pooled
    set is a fresh array, so no run's samples are reordered."""
    out = {}
    for name, attr, scale in SAMPLE_SETS:
        samples = np.concatenate([getattr(m, attr) for m in runs])
        out[name] = ({k: (v * scale if k != "count" else v)
                      for k, v in summarize(samples).items()}
                     if len(samples) else None)
    return out


def pooled_summary(runs: list[RunMetrics]) -> dict:
    """Digest of several runs: their pooled samples, the run means of
    airtime and buffer occupancy, and the loss rate over all packets
    generated."""
    out = sample_summaries(runs)
    out["airtime_fraction_mean"] = float(
        np.mean([airtime_fraction(m) for m in runs]))
    out["buffer_occupancy_mean"] = float(
        np.mean([buffer_occupancy(m) for m in runs]))
    gen = sum(m.generated_video + m.generated_ul for m in runs)
    dropped = sum(m.dropped_buffer + m.dropped_retx for m in runs)
    out["loss_rate"] = dropped / gen if gen else 0.0
    return out
