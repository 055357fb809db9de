import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vrwifi import metrics as mx
from vrwifi.mac import Ampdu


def record(m, enqueue_us, exchanges, uplink=False):
    """Record the deliveries of `exchanges`, (stamp, ids) pairs, of
    packets enqueued at `enqueue_us` (by id); returns the delivery
    column."""
    log = mx.DeliveryLog()
    for stamp, ids in exchanges:
        log.ids += ids
        log.stamps.append(stamp)
        log.counts.append(len(ids))
    delivery_us = np.full(len(enqueue_us), np.nan)
    m.record_delivery(log, np.array(enqueue_us, dtype=float), delivery_us,
                      uplink)
    return delivery_us.tolist()


def test_summarize_basic():
    s = mx.summarize([1000.0, 2000.0, 3000.0, 4000.0])
    assert s["mean"] == 2500.0
    assert s["p50"] == 2000.0        # nearest rank, no interpolation
    assert s["min"] == 1000.0 and s["max"] == 4000.0
    assert s["count"] == 4


def test_summarize_all_equal():
    s = mx.summarize([7.0] * 50)
    assert s["p50"] == s["p99"] == s["p99_99"] == 7.0


def test_summarize_nearest_rank_known_values():
    samples = list(range(1, 101))       # 1..100
    s = mx.summarize(samples)
    assert s["p50"] == 50
    assert s["p99"] == 99
    assert s["p99_99"] == 100


def test_summarize_empty_errors():
    with pytest.raises(ValueError):
        mx.summarize([])


@given(st.lists(st.floats(min_value=0.1, max_value=1e7, allow_nan=False),
                min_size=1, max_size=500))
def test_summary_order_invariants(samples):
    s = mx.summarize(samples)
    assert s["min"] <= s["mean"] <= s["max"]
    assert s["p50"] <= s["p99"] <= s["p99_99"] <= s["max"]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=300))
def test_ecdf_monotone_normalized(samples):
    xs, ps = mx.ecdf(samples)
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.diff(ps) > 0)
    assert ps[0] == pytest.approx(1.0 / len(samples))
    assert ps[-1] == 1.0


def test_ecdf_empty_errors():
    with pytest.raises(ValueError):
        mx.ecdf([])


def test_record_delivery_appends_delay_only():
    m = mx.RunMetrics()
    delivery = record(m, [10.0, 10.0, 10.0], [(1210.0, [0]), (1210.0, [1])])
    assert m.dl_packet_delays_us.tolist() == [1200.0, 1200.0]   # 1.2 ms each
    assert delivery[:2] == [1210.0, 1210.0] and np.isnan(delivery[2])
    assert m.ampdu_sizes.tolist() == []   # sizes are sampled per attempt only


def test_record_delivery_routes_ul_stream():
    m = mx.RunMetrics()
    record(m, [0.0], [(500.0, [0])], uplink=True)
    assert m.ul_packet_delays_us.tolist() == [500.0]
    assert m.dl_packet_delays_us.tolist() == []


def test_record_delivery_skips_warmup_enqueues_in_order():
    m = mx.RunMetrics(warmup_us=100.0)
    delivery = record(m, [99.0, 150.0, 100.0, 0.0],
                      [(900.0, [2, 0]), (1000.0, [1])])
    assert m.dl_packet_delays_us.tolist() == [800.0, 850.0]
    # the warm-up packet is stamped all the same
    assert delivery[:3] == [900.0, 1000.0, 900.0] and np.isnan(delivery[3])


def test_record_attempt_counts_retransmission_attempts():
    m = mx.RunMetrics()
    ampdu = Ampdu(mpdus=[0], total_bytes=1243)
    m.record_attempt(ampdu)
    retx = Ampdu(mpdus=[0], total_bytes=1243)
    m.record_attempt(retx)
    assert m.ampdu_sizes.tolist() == [1, 1]


def vf_delays(gen_us, delivery_us, starts):
    return mx.vf_delay(np.array(gen_us, dtype=float),
                       np.array(delivery_us, dtype=float),
                       np.array(starts)).tolist()


def test_vf_delay_single_packet_frame():
    assert vf_delays([100.0], [900.0], [0]) == [800.0]


def test_vf_delay_spans_first_gen_to_last_delivery():
    # one frame of two batches: the late batch's packet is delivered last
    assert vf_delays([0.0, 5560.0], [700.0, 6500.0], [0]) == [6500.0]
    # each frame spans its own packets only
    assert vf_delays([0.0, 5560.0, 11111.0, 11116.0],
                     [700.0, 6500.0, 12000.0, 11900.0],
                     [0, 2]) == [6500.0, 889.0]


def test_vf_delay_undelivered_raises():
    with pytest.raises(ValueError, match="frame 3"):
        vf_delays([0.0, 10.0, 20.0, 30.0, 40.0],
                  [700.0, 710.0, 720.0, 730.0, None], [0, 1, 2, 3])


def test_airtime_fraction_explicit_duration():
    m = mx.RunMetrics(duration_us=10e6, warmup_us=0.0, airtime_busy_us=3.5e6)
    assert mx.airtime_fraction(m) == pytest.approx(0.35)


def test_airtime_fraction_no_traffic():
    m = mx.RunMetrics(duration_us=10e6, warmup_us=0.0)
    assert mx.airtime_fraction(m) == 0.0


def test_buffer_statistics_constant_series():
    # queue pinned at 260 of 1000 for the whole window: the busy fraction
    # is 1.0 and the time-weighted mean level is 0.26
    m = mx.RunMetrics(duration_us=10e6, warmup_us=0.0, buffer_capacity=1000,
                      buffer_busy_us=10e6, buffer_level_integral=260 * 10e6)
    assert mx.buffer_occupancy(m) == pytest.approx(1.0)
    assert mx.buffer_mean_level(m) == pytest.approx(0.26)


def test_buffer_statistics_idle_series():
    m = mx.RunMetrics(duration_us=10e6, warmup_us=0.0, buffer_capacity=1000)
    assert mx.buffer_occupancy(m) == 0.0
    assert mx.buffer_mean_level(m) == 0.0


def test_metrics_summary_smoke():
    m = mx.RunMetrics(duration_us=1e6, warmup_us=0.0, buffer_capacity=1000)
    m.dl_packet_delays_us.extend([1000.0, 1100.0])
    m.generated_video = 2
    m.delivered_video = 2
    s = mx.metrics_summary(m)
    assert s["dl_packet_delay_ms"]["mean"] == pytest.approx(1.05)
    assert s["vf_delay_ms"] is None
    assert s["conservation"] == {"generated": 2, "accounted": 2}
    assert s["loss_rate"] == 0.0


def test_pooled_summary_pools_samples_and_averages_runs():
    a = mx.RunMetrics(duration_us=1e6, airtime_busy_us=0.2e6,
                      buffer_busy_us=0.5e6, buffer_capacity=100,
                      generated_video=10,
                      dropped_buffer=1, ampdu_sizes=[4, 2])
    b = mx.RunMetrics(duration_us=1e6, airtime_busy_us=0.4e6,
                      buffer_busy_us=0.1e6, generated_video=30,
                      dropped_retx=1, ampdu_sizes=[6])
    a.dl_packet_delays_us.extend([1000.0, 3000.0])
    b.dl_packet_delays_us.append(2000.0)
    p = mx.pooled_summary([a, b])
    assert p["dl_packet_delay_ms"] == {"mean": 2.0, "p50": 2.0, "p99": 3.0,
                                       "p99_99": 3.0, "min": 1.0, "max": 3.0,
                                       "count": 3}
    # scale applies to every statistic but the count
    assert p["ampdu_size"]["p50"] == 4.0 and p["ampdu_size"]["count"] == 3
    assert p["ul_packet_delay_ms"] is None
    assert p["airtime_fraction_mean"] == pytest.approx(0.3)
    assert p["buffer_occupancy_mean"] == pytest.approx(0.3)
    assert p["loss_rate"] == pytest.approx(2 / 40)
    # one run pooled alone gives that run's own sample summaries
    alone, s = mx.sample_summaries([a]), mx.metrics_summary(a)
    assert alone == {k: s[k] for k in alone}


def reference_summary(samples):
    """summarize's rule over a sorted() list: the reference the numpy
    version must match value for value and type for type."""
    s = sorted(samples)
    n = len(s)

    def rank(q):
        return s[max(0, math.ceil(q / 100.0 * n) - 1)]

    return {"mean": min(max(math.fsum(s) / n, s[0]), s[-1]),
            "p50": rank(50.0), "p99": rank(99.0), "p99_99": rank(99.99),
            "min": s[0], "max": s[-1], "count": n}


def test_pooled_samples_summarize_as_sorted_lists():
    rng = np.random.default_rng(4)
    runs = []
    for n in (0, 1, 37, 2000):
        m = mx.RunMetrics()
        # repeated values, as quantized delays have
        m.dl_packet_delays_us.extend(
            np.round(rng.exponential(900.0, n), 1).tolist())
        m.ampdu_sizes.extend(rng.integers(1, 257, n).tolist())
        runs.append(m)
    got = mx.sample_summaries(runs)
    for name, attr in (("dl_packet_delay_ms", "dl_packet_delays_us"),
                       ("ampdu_size", "ampdu_sizes")):
        pooled = [v for m in runs for v in getattr(m, attr)]
        alone = mx.summarize(pooled)
        for k, v in reference_summary(pooled).items():
            assert type(alone[k]) is type(v) and alone[k] == v
            assert got[name][k] == (v if k == "count" else
                                    v * (1e-3 if name.endswith("ms")
                                         else 1.0))
    # the runs' own samples are left as they were
    assert runs[3].ampdu_sizes.tolist() != sorted(runs[3].ampdu_sizes)
