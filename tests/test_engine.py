import dataclasses
import hashlib
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from vrwifi import engine, metrics
from vrwifi import mac as mac_mod
from vrwifi import phy, traceio, traffic
from vrwifi.config import validate_config
from vrwifi.engine import run_seeds, run_simulation, run_sweep, set_axis
from vrwifi.mac import AP, CLIENT
from vrwifi.metrics import conservation_balance, metrics_summary
from tests.conftest import make_cfg


def fast_cfg(**kw):
    """1 s run, warm-up off, defaults otherwise."""
    return make_cfg(duration_s=kw.pop("duration_s", 1.0), **kw)


def one_packet_cfg(**mac_over):
    """Exactly one 1243-B DL packet, no UL, no errors."""
    mac = {"per": 0.0}
    mac.update(mac_over)
    return make_cfg(
        duration_s=0.05,
        traffic={"fps": 10.0, "bitrate_bps": 1243 * 8 * 10.0,
                 "inter_batch_time_ms": 1e6, "batch_count_interval_ms": 1e6,
                 "ul_enabled": False},
        mac=mac,
    )


# config variants that the default-config tests below also run, one
# non-default value each
VARIANTS = {
    "exchange_any": {"mac": {"cw_policy": "exchange_any"}},
    "no_snapshot": {"mac": {"ampdu_snapshot": False}},
    "data_end": {"mac": {"delivery_stamp": "data_end"}},
    "global_pacer": {"traffic": {"pacer_anchor": "global"}},
}
WITH_VARIANTS = ["defaults", *VARIANTS]


def variant_cfg(name):
    return fast_cfg(**VARIANTS.get(name, {}))


def metric_fingerprint(res):
    m = res.metrics
    return (tuple(m.dl_packet_delays_us), tuple(m.ul_packet_delays_us),
            tuple(m.vf_delays_us), tuple(m.ampdu_sizes), m.airtime_busy_us,
            m.buffer_busy_us, m.generated_video, m.delivered_video,
            m.collisions,
            tuple((t.role, t.tx_start_us, t.busy_end_us, t.n_mpdus)
                  for t in m.tx_log))


def test_same_seed_bit_identical():
    cfg = fast_cfg()
    assert metric_fingerprint(run_simulation(cfg, 5)) == metric_fingerprint(
        run_simulation(cfg, 5))


def test_different_seed_differs():
    cfg = fast_cfg()
    assert metric_fingerprint(run_simulation(cfg, 5)) != metric_fingerprint(
        run_simulation(cfg, 6))


@pytest.mark.parametrize("seed,variant", [
    *((seed, "defaults") for seed in (1, 2, 3)),
    *((1, name) for name in VARIANTS)],
    ids=["1", "2", "3", *VARIANTS])
def test_conservation_identity_exact(seed, variant):
    res = run_simulation(variant_cfg(variant), seed)
    generated, accounted = conservation_balance(res.metrics)
    assert generated == accounted
    assert generated == res.metrics.generated_video + res.metrics.generated_ul


def test_conservation_with_forced_buffer_drops():
    # a starved 2-packet AP buffer must tail-drop heavily and still balance
    cfg = fast_cfg(mac={"ap_buffer": 2})
    res = run_simulation(cfg, 1)
    assert res.metrics.dropped_buffer > 0
    generated, accounted = conservation_balance(res.metrics)
    assert generated == accounted


def test_conservation_with_heavy_per():
    cfg = fast_cfg(mac={"per": 0.9, "max_retx": 2})
    res = run_simulation(cfg, 1)
    assert res.metrics.dropped_retx > 0
    generated, accounted = conservation_balance(res.metrics)
    assert generated == accounted


def test_single_packet_delay_composition():
    """delay == no-backoff exchange total + the actually drawn backoff."""
    cfg = one_packet_cfg()
    res = run_simulation(cfg, 11)
    m = res.metrics
    assert m.generated_video == 1 and m.delivered_video == 1
    (delay,) = m.dl_packet_delays_us
    base = phy.single_packet_latency(1243, cfg.phy, cfg.mac,
                                     include_mean_backoff=False).total
    (attempt,) = [t for t in m.tx_log if t.role == AP]
    assert delay == pytest.approx(base + attempt.backoff_slots
                                  * cfg.mac.slot_us)


@pytest.mark.parametrize("variant", WITH_VARIANTS)
def test_delays_bounded_below_by_no_backoff_latency(variant):
    cfg = variant_cfg(variant)
    res = run_simulation(cfg, 3)
    floor_us = phy.single_packet_latency(
        cfg.traffic.packet_size_bytes, cfg.phy, cfg.mac, False).total
    # back_end stamps land at BACK end, so even the luckiest packet pays
    # the full no-backoff exchange; data_end stamps skip SIFS + BACK
    if cfg.mac.delivery_stamp == "data_end":
        floor_us -= cfg.mac.sifs_us + phy.back_airtime(cfg.phy)
    assert min(res.metrics.dl_packet_delays_us) >= floor_us - 1e-6


def test_data_end_delays_are_back_end_delays_minus_sifs_and_back():
    back_end = run_simulation(fast_cfg(duration_s=2.0), 1).metrics
    cfg = fast_cfg(duration_s=2.0, **VARIANTS["data_end"])
    data_end = run_simulation(cfg, 1).metrics
    shift_us = cfg.mac.sifs_us + phy.back_airtime(cfg.phy)
    assert len(data_end.dl_packet_delays_us) == len(
        back_end.dl_packet_delays_us) > 0
    for d, b in zip(data_end.dl_packet_delays_us,
                    back_end.dl_packet_delays_us):
        assert d == pytest.approx(b - shift_us, abs=1e-6)


def test_no_retransmissions_with_zero_per_single_contender():
    cfg = fast_cfg(mac={"per": 0.0}, traffic={"ul_enabled": False})
    res = run_simulation(cfg, 4)
    m = res.metrics
    assert m.delivered_video == m.generated_video
    assert m.dropped_retx == 0 and m.collisions == 0
    # every transmission carries only fresh packets: sizes sum to deliveries
    assert sum(t.n_mpdus for t in m.tx_log if t.role == AP) == m.delivered_video


def test_no_buffer_drops_at_default_load():
    # 50 Mbps offered on a ~1.2 Gbps link: the 1000/150-packet buffers
    # never saturate
    res = run_simulation(fast_cfg(duration_s=2.0), 12)
    assert res.metrics.dropped_buffer == 0


def test_airtime_no_greater_than_duration():
    res = run_simulation(fast_cfg(), 2)
    m = res.metrics
    assert 0.0 < m.airtime_busy_us <= m.measured_us
    assert 0.0 <= metrics_summary(m)["airtime_fraction"] <= 1.0


@pytest.mark.parametrize("variant", WITH_VARIANTS)
def test_busy_intervals_never_overlap(variant):
    res = run_simulation(variant_cfg(variant), 8)
    log = sorted(res.metrics.tx_log, key=lambda t: t.tx_start_us)
    for a, b in zip(log, log[1:]):
        assert b.tx_start_us >= a.busy_end_us - 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("over", [
    {}, {"phy": {"mcs_index": 0}},
    # collisions, and a warm-up that ends inside busy periods
    {"warmup_ms": 333.3, "mac": {"cw_min": 3, "cw_max": 7}}],
    ids=["defaults", "mcs0", "collisions_warmup"])
def test_channel_log_records_every_busy_period(over, seed):
    # the airtime, collision count and A-MPDU sizes are those of the busy
    # periods in tx_log, each clipped to the measured window
    m = run_simulation(fast_cfg(duration_s=2.0, **over), seed).metrics
    airtime = 0.0
    for t in m.tx_log:
        busy = (min(t.busy_end_us, m.duration_us)
                - max(t.tx_start_us, m.warmup_us))
        if busy > 0:
            airtime += busy
    assert m.airtime_busy_us == airtime
    measured = [t for t in m.tx_log if t.tx_start_us >= m.warmup_us]
    assert m.collisions == sum(t.role == "collision" for t in measured)
    assert m.ampdu_sizes.tolist() == [t.n_mpdus for t in measured
                                      if t.role == AP]


def test_warmup_excludes_early_samples():
    cfg = fast_cfg()
    warm = dataclasses.replace(cfg, warmup_ms=500.0)
    full = run_simulation(cfg, 9).metrics
    cut = run_simulation(warm, 9).metrics
    assert 0 < len(cut.dl_packet_delays_us) < len(full.dl_packet_delays_us)
    # conservation covers the entire run in both cases
    assert conservation_balance(cut)[0] == conservation_balance(full)[0]


def test_run_seeds_uses_base_seed_offsets():
    cfg = fast_cfg(runs=3, seed=100)
    results = run_seeds(cfg)
    assert [r.seed for r in results] == [100, 101, 102]
    solo = run_simulation(cfg, 101)
    assert metric_fingerprint(results[1]) == metric_fingerprint(solo)


def test_sweep_axis_application():
    cfg = fast_cfg()
    assert set_axis(cfg, "fps", 30).traffic.fps == 30
    assert set_axis(cfg, "inter_batch_time", 2.0).traffic.inter_batch_time_ms == 2.0
    assert set_axis(cfg, "bitrate", 10e6).traffic.bitrate_bps == 10e6
    assert set_axis(cfg, "mcs_index", 7).phy.mcs_index == 7
    assert set_axis(cfg, "per", 0.5).mac.per == 0.5


def test_sweep_unknown_axis():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        run_sweep(fast_cfg(), "bogus", [1], [1])


def test_sweep_empty_values():
    assert run_sweep(fast_cfg(), "fps", [], [1, 2]) == {}


def test_sweep_runs_each_distinct_value_once(monkeypatch):
    runs = []
    sim_run = engine._Sim.run

    def spy(sim):
        runs.append(sim.cfg.mac.per)
        return sim_run(sim)

    monkeypatch.setattr(engine._Sim, "run", spy)
    results = run_sweep(fast_cfg(duration_s=0.2), "per",
                        [0.1, 0.1, -0.0, 0.0], [7, 8])
    assert runs == [0.1, 0.1, 0.0, 0.0]    # two seeds of each value
    # keyed by the value listed first
    assert [(str(v), seed) for v, seed in results] == [
        ("0.1", 7), ("0.1", 8), ("-0.0", 7), ("-0.0", 8)]


def test_sweep_results_independent_of_seed_order():
    cfg = fast_cfg(duration_s=0.5)
    fwd = run_sweep(cfg, "fps", [60.0, 90.0], [1, 2])
    rev = run_sweep(cfg, "fps", [90.0, 60.0], [2, 1])
    assert set(fwd) == set(rev)
    for key in fwd:
        assert metric_fingerprint(fwd[key]) == metric_fingerprint(rev[key])


def test_sweep_parallel_matches_serial():
    cfg = fast_cfg(duration_s=0.5)
    serial = run_sweep(cfg, "fps", [60.0, 90.0], [1, 2], jobs=1)
    parallel = run_sweep(cfg, "fps", [60.0, 90.0], [1, 2], jobs=2)
    for key in serial:
        assert metric_fingerprint(serial[key]) == metric_fingerprint(
            parallel[key])


def test_pool_never_larger_than_its_tasks(pool_sizes):
    cfg = fast_cfg(duration_s=0.2, runs=3)
    assert [r.seed for r in run_seeds(cfg, jobs=500)] == [1, 2, 3]
    assert len(run_sweep(cfg, "fps", [60.0, 90.0], [1], jobs=500)) == 2
    run_seeds(cfg, jobs=2)
    # one task runs in this process, without a pool
    run_seeds(dataclasses.replace(cfg, runs=1), jobs=500)
    assert pool_sizes == [3, 2, 2]


def test_airtime_increases_with_offered_load():
    cfg = fast_cfg(traffic={"ul_enabled": False})
    fractions = []
    for bitrate in (10e6, 30e6, 50e6):
        res = run_simulation(set_axis(cfg, "bitrate", bitrate), 5)
        fractions.append(metrics_summary(res.metrics)["airtime_fraction"])
    assert fractions[0] < fractions[1] < fractions[2]


def test_ampdu_sizes_within_bounds():
    cfg = fast_cfg()
    res = run_simulation(cfg, 6)
    sizes = res.metrics.ampdu_sizes
    assert sizes
    assert min(sizes) >= 1
    assert max(sizes) <= cfg.mac.max_ampdu


def test_vf_delay_no_smaller_than_largest_packet_delay():
    res = run_simulation(fast_cfg(traffic={"ul_enabled": False}), 7,
                         keep_packets=True)
    for frame in res.frames:
        pkts = [p for b in frame.batches for p in b.packets]
        if any(p.delivery_time_us is None for p in pkts):
            continue
        vf = max(p.delivery_time_us for p in pkts) - frame.gen_time_us
        worst_packet = max(p.delivery_time_us - p.enqueue_time_us
                           for p in pkts)
        assert vf >= worst_packet - 1e-9


# kept runs whose columns are checked against the per-packet rules: tail
# drops, retransmissions and incomplete frames at MCS 0, and the global
# pacer at a frame rate whose RTP timestamps need rounding; both with a
# warm-up
KEPT_RUNS = {
    "mcs0_per0.2_buffer50": {"phy": {"mcs_index": 0},
                             "mac": {"per": 0.2, "ap_buffer": 50}},
    "global_pacer_fps70": {"traffic": {"pacer_anchor": "global",
                                       "fps": 70.0}},
}


def reference_video_trace(frames, attr):
    """One TraceRecord per packet at its `attr` instant, one packet at a
    time over the object view: time-sorted, then rounded to the
    microsecond."""
    out = []
    for frame in frames:
        ts = int(round(frame.gen_time_us * traceio.RTP_CLOCK_HZ / 1e6))
        for batch in frame.batches:
            for pkt in batch.packets:
                t_us = getattr(pkt, attr)
                if t_us is None:
                    continue
                out.append(traceio.TraceRecord(
                    timestamp_s=t_us / 1e6, length=pkt.size_bytes,
                    src_port=traceio.VIDEO_PORT[0],
                    dst_port=traceio.VIDEO_PORT[1], direction="DL",
                    rtp_payload_type=traceio.VIDEO_PT,
                    rtp_ssrc=traceio.VIDEO_SSRC, rtp_timestamp=ts))
    out.sort(key=lambda r: r.timestamp_s)
    for r in out:
        r.timestamp_s = float(f"{r.timestamp_s:.6f}")
    return out


def reference_frame_delays(frames, warmup_us):
    """(VF delays, assembly delays, incomplete frames), one frame at a
    time over the object view."""
    vf, assembly, incomplete = [], [], 0
    for frame in frames:
        packets = [p for b in frame.batches for p in b.packets]
        if frame.gen_time_us < warmup_us or not packets:
            continue
        deliveries = [p.delivery_time_us for p in packets]
        if None in deliveries:
            incomplete += 1
            continue
        vf.append(max(deliveries) - min(p.gen_time_us for p in packets))
        assembly.append(max(deliveries) - min(deliveries))
    return vf, assembly, incomplete


@pytest.mark.parametrize("name, window_s", [
    *((name, engine.WINDOW_S) for name in sorted(KEPT_RUNS)),
    *((name, 1e-9) for name in sorted(KEPT_RUNS))],
    ids=[*sorted(KEPT_RUNS), *(f"{name}-one_frame_windows"
                               for name in sorted(KEPT_RUNS))])
def test_kept_run_columns_follow_the_per_packet_rules(name, window_s,
                                                      monkeypatch):
    # also with the video built one frame at a time, so that emissions
    # carry from window to window
    monkeypatch.setattr(engine, "WINDOW_S", window_s)
    cfg = fast_cfg(warmup_ms=200.0, **KEPT_RUNS[name])
    res = run_simulation(cfg, 2, keep_packets=True)
    frames, m = res.frames, res.metrics
    # every traffic column is a numpy array, the run's columns included
    scalars = {"period_us", "frame_bytes", "first_packet_id"}
    assert all(isinstance(getattr(frames, f.name), np.ndarray)
               for f in dataclasses.fields(frames) if f.name not in scalars)
    assert frames.packet_bytes.dtype == frames.retx_count.dtype == np.int64
    packets = [p for f in frames for b in f.batches for p in b.packets]
    # a time column's NaN is a view's None
    enqueue, delivery = ([None if np.isnan(t) else t for t in column.tolist()]
                         for column in (frames.enqueue_us, frames.delivery_us))
    assert [(p.enqueue_time_us, p.delivery_time_us, p.retx_count)
            for p in packets] == list(zip(enqueue, delivery,
                                          frames.retx_count))
    # a packet enters its buffer when it is emitted, unless tail-dropped
    em = traffic.video_packet_emissions(frames, cfg.traffic)
    emitted = dict(zip(em.packet_ids.tolist(), em.times_us.tolist()))
    assert all(p.enqueue_time_us in (None, emitted[p.packet_id])
               for p in packets)
    delivered = [p for p in packets if p.delivery_time_us is not None]
    assert len(delivered) == m.delivered_video
    assert all(p.enqueue_time_us is not None for p in delivered)
    assert sorted(p.delivery_time_us - p.enqueue_time_us for p in delivered
                  if p.enqueue_time_us >= m.warmup_us) == sorted(
                      m.dl_packet_delays_us)
    if name.startswith("mcs0"):
        assert m.dropped_buffer and m.incomplete_frames
        assert max(frames.retx_count) > 0

    assert list(traceio.delivered_trace(frames)) == reference_video_trace(
        frames, "delivery_time_us")
    assert list(traceio.generated_video_trace(frames)) == (
        reference_video_trace(frames, "gen_time_us"))
    assert (m.vf_delays_us.tolist(), m.assembly_delays_us.tolist(),
            m.incomplete_frames) == reference_frame_delays(frames, m.warmup_us)


@pytest.mark.parametrize("mcs, keep_packets",
                         [(11, False), (0, False), (11, True), (0, True)],
                         ids=["11", "0", "11-kept", "0-kept"])
def test_run_memory_grows_with_its_outputs(mcs, keep_packets):
    # a 5 s run, at the paper point and on the busy MCS 0 channel: with
    # the video built a window at a time and 8-byte per-packet columns
    # its traced peak is 2.3-3.1 MB, where whole-run traffic held as
    # Python objects took 4.8-5.7 MB. A kept run, which packetizes its
    # whole video once more after the loop, peaks at 2.5-2.7 MB; built
    # in one window before the loop it took 4.0-4.2 MB
    cfg = make_cfg(duration_s=5.0, phy={"mcs_index": mcs})
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_simulation(cfg, 1, keep_packets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 4.0e6


def test_parse_memory_grows_with_its_trace(tmp_path):
    # a 4 s capture, 20,160 rows: with a double per timestamp, a shared
    # int per length and no sort of rows already in time order, the
    # traced peak of parse_trace is 2.2 times the bytes of the columns
    # it returns, where a float and an int object per row and a sorted
    # copy of every column took 4.0 times
    path = str(tmp_path / "capture.csv")
    run = run_simulation(fast_cfg(duration_s=4.0), 1, keep_packets=True)
    traceio.write_trace(traceio.delivered_trace(run.frames), path)
    del run
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        trace = traceio.parse_trace(path).records
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert len(trace) > 20_000
    assert peak < 3 * sum(getattr(trace, f.name).nbytes
                          for f in dataclasses.fields(trace))


def test_queue_statistics_without_an_ap_exchange_end():
    # 10 us: two video packets arrive (t = 0 and 5 us) and the AP's
    # first access is still pending at the end
    m = run_simulation(fast_cfg(duration_s=1e-5), 1).metrics
    assert (m.generated_video, m.delivered_video, m.residual) == (2, 0, 2)
    assert not m.tx_log
    assert m.buffer_busy_us == 10.0
    assert m.buffer_level_integral == 1 * 5.0 + 2 * 5.0


def queue_reference(arrivals, ends, warmup_us, duration_us):
    """The busy time and length integral of queue_statistics, as a plain
    running sum over the changes in time order, arrivals first at ties."""
    changes = sorted([(t, 0, 1) for t in arrivals]
                     + [(t, 1, -n) for t, n in ends], key=lambda c: c[:2])
    busy = integral = level = 0.0
    for i, (t, _, step) in enumerate(changes):
        level += step
        t_next = changes[i + 1][0] if i + 1 < len(changes) else duration_us
        length = (min(max(t_next, warmup_us), duration_us)
                  - min(max(t, warmup_us), duration_us))
        if length > 0 and level > 0:
            busy += length
            integral += level * length
    return busy, integral


# times on a grid of thirds of a microsecond, so that ties are common
# and sums round; None is a packet never admitted
queue_times = st.integers(0, 40).map(lambda k: k / 3)


@pytest.mark.parametrize("block", [1, 2, 7, engine.BLOCK])
@settings(max_examples=100, deadline=None)
@given(arrivals=st.lists(st.none() | queue_times, max_size=20),
       ends=st.lists(st.tuples(queue_times, st.integers(0, 3)), max_size=12),
       warmup_us=st.sampled_from([0.0, 2.0, 5 / 3]),
       duration_us=st.sampled_from([10.0, 40 / 3]))
# repeated arrival times, across a block boundary at BLOCK 1 and 2, with
# an end at their time; an end before the first arrival; ends after the
# last arrival and after the end of the run; a warm-up cut
@example(arrivals=[3.0, None, 1.0, 2.0, 2.0, 2.0], ends=[(2.0, 2), (2.0, 1)],
         warmup_us=0.0, duration_us=10.0)
@example(arrivals=[1.0, 1.0], ends=[(0.5, 0), (4.0, 1), (11.0, 1)],
         warmup_us=2.0, duration_us=10.0)
@example(arrivals=[4.0, 4.0, 6.0], ends=[(4.0, 1), (6.0, 1), (7.0, 1)],
         warmup_us=5 / 3, duration_us=10.0)
def test_queue_statistics_match_a_running_sum(block, arrivals, ends,
                                              warmup_us, duration_us):
    sim = engine._Sim(fast_cfg(), 1, False)
    sim.warmup_us, sim.duration_us = warmup_us, duration_us
    ends.sort(key=lambda e: e[0])   # the AP's exchanges end in time order
    sim.ap_end_us = array("d", [t for t, _ in ends])
    sim.ap_end_n = array("q", [n for _, n in ends])
    enqueue_us = np.array([np.nan if t is None else t for t in arrivals])
    with mock.patch.object(engine, "BLOCK", block):
        sim.queue_statistics(enqueue_us)
    expected = queue_reference([t for t in arrivals if t is not None], ends,
                               warmup_us, duration_us)
    m = sim.metrics
    assert (m.buffer_busy_us, m.buffer_level_integral) == expected


def test_collisions_disabled_mode_runs_clean():
    cfg = fast_cfg(mac={"collisions_enabled": False})
    res = run_simulation(cfg, 3)
    assert res.metrics.collisions == 0
    generated, accounted = conservation_balance(res.metrics)
    assert generated == accounted


def tie_cfg(collisions: bool):
    """The first UL packet arrives with a video frame at 10 ms; with no
    backoff, both stations' expiries fall AIFS later."""
    return fast_cfg(duration_s=0.05,
                    traffic={"fps": 100.0, "ul_period_ms": 10.0},
                    mac={"cw_min": 0, "cw_max": 0,
                         "collisions_enabled": collisions})


def collision_busy_us(cfg) -> float:
    return (phy.rts_airtime(cfg.phy) + cfg.mac.sifs_us
            + phy.cts_airtime(cfg.phy))


def test_tied_expiries_collide_when_collisions_are_enabled():
    cfg = tie_cfg(True)
    m = run_simulation(cfg, 1).metrics
    first = next(i for i, t in enumerate(m.tx_log) if t.role != AP)
    log = m.tx_log[first:]
    assert (log[0].role, log[0].tx_start_us) == ("collision", 10034.0)
    assert log[0].busy_end_us - log[0].tx_start_us == pytest.approx(
        collision_busy_us(cfg), abs=1e-6)
    # both windows stay 0, so both stations re-arm and tie again
    for prev, t in zip(log, log[1:]):
        assert t.role == "collision"
        assert t.tx_start_us == pytest.approx(
            prev.busy_end_us + cfg.mac.aifs_us, abs=1e-6)
    assert m.delivered_ul == 0


def test_tied_expiries_go_to_the_ap_when_collisions_are_disabled():
    m = run_simulation(tie_cfg(False), 1).metrics
    assert all(t.role != "collision" for t in m.tx_log)
    (tie,) = [t for t in m.tx_log if t.tx_start_us == 10034.0]
    assert tie.role == AP
    client = next(t for t in m.tx_log if t.role == CLIENT)
    assert client.backoff_slots == 0


@pytest.mark.xfail(strict=True, reason=(
    "under cw_policy 'retry' each draw recomputes the window from the "
    "head packet's retry count, so the doubling after a collision is lost"))
def test_retry_policy_widens_the_window_after_a_collision():
    cfg = fast_cfg(mac={"cw_min": 3, "per": 0.0})
    windows = []
    draw = mac_mod.draw_backoff

    def recording_draw(station, rng):
        windows.append(station.cw)
        return draw(station, rng)

    with mock.patch.object(mac_mod, "draw_backoff", recording_draw):
        m = run_simulation(cfg, 1).metrics
    assert m.collisions > 0
    assert max(windows) > cfg.mac.cw_min


def exact_saturated_pair(cw_min: int, cw_max: int) -> tuple[float, float]:
    """The AP's collision probability per attempt, and its share of the
    successes, in a saturated two-station DCF without errors: the exact
    Markov chain on the pair's state at each access, each station's
    backoff stage and counter. It follows the engine's rules, where
    Bianchi's chain (IEEE JSAC 2000) counts down through busy slots: the
    smaller counter transmits and the other keeps its counter less the
    winner's; equal counters collide and both windows double, capped at
    cw_max; a success resets the winner's window; a fresh counter is
    uniform on [0, cw]."""
    windows = [cw_min]
    while windows[-1] < cw_max:
        windows.append(min(2 * windows[-1] + 1, cw_max))
    # one station's states (stage, counter), and each stage's fresh draw
    own = [(s, c) for s, w in enumerate(windows) for c in range(w + 1)]
    index = {state: i for i, state in enumerate(own)}
    fresh = []
    for s, w in enumerate(windows):
        draw = np.zeros(len(own))
        draw[[index[s, c] for c in range(w + 1)]] = 1 / (w + 1)
        fresh.append(draw)
    top = len(windows) - 1
    n = len(own)
    # rows: the pair's state now, AP major; columns: at the next access
    step = np.zeros((n * n, n, n))
    for (sa, ca), i in index.items():
        for (sb, cb), j in index.items():
            row = step[i * n + j]
            if ca == cb:
                row += np.outer(fresh[min(sa + 1, top)],
                                fresh[min(sb + 1, top)])
            elif ca < cb:
                row[:, index[sb, cb - ca]] += fresh[0]
            else:
                row[index[sa, ca - cb]] += fresh[0]
    # the stationary law: pi (step - I) = 0 with the weights summing to 1
    a = step.reshape(n * n, n * n).T - np.eye(n * n)
    a[-1] = 1.0
    pi = np.linalg.solve(a, np.eye(n * n)[-1]).reshape(n, n)
    counter = np.array([c for _, c in own])
    tie = counter[:, None] == counter[None, :]
    collide = pi[tie].sum()
    ap_wins = pi[counter[:, None] < counter[None, :]].sum()
    return collide / (collide + ap_wins), ap_wins / (1.0 - collide)


@pytest.mark.parametrize("cw_policy", [
    "exchange",
    pytest.param("retry", marks=pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND (a): under cw_policy 'retry' the window "
        "doubling after a collision is lost, so the collision "
        "probability is the no-doubling 2 / (cw_min + 2)"))),
])
def test_contention_matches_the_exact_two_station_chain(cw_policy):
    # both buffers stay full: one MPDU an exchange at MCS 0, and an
    # uplink packet every 10 us
    p_collide, ap_share = exact_saturated_pair(3, 15)
    assert (p_collide, ap_share) == pytest.approx((0.2840556, 0.5), abs=1e-7)
    cfg = make_cfg(duration_s=3.0, warmup_ms=100.0,
                   phy={"mcs_index": 0},
                   mac={"per": 0.0, "max_ampdu": 1, "cw_min": 3,
                        "cw_max": 15, "cw_policy": cw_policy},
                   traffic={"ul_period_ms": 0.01})
    roles = []
    for seed in (1, 2, 3):
        m = run_simulation(cfg, seed).metrics
        roles += [t.role for t in m.tx_log
                  if t.tx_start_us >= cfg.warmup_ms * 1e3]
    collisions, ap = roles.count("collision"), roles.count(AP)
    successes = len(roles) - collisions
    attempts = ap + collisions
    se = np.sqrt(p_collide * (1 - p_collide) / attempts)
    assert abs(collisions / attempts - p_collide) <= 4 * se
    se = np.sqrt(ap_share * (1 - ap_share) / successes)
    assert abs(ap / successes - ap_share) <= 4 * se


def test_retries_follow_the_per_law():
    # every MPDU attempt fails alone with probability per, and a collision
    # raises no retry count: a packet is dropped after max_retx + 1 failed
    # attempts with probability per**(max_retx + 1), and a delivered
    # packet's retry count k has the truncated geometric law
    # (1 - per) * per**k / (1 - per**(max_retx + 1)), k = 0..max_retx
    per, max_retx = 0.3, 2
    cfg = make_cfg(duration_s=3.0, mac={"per": per, "max_retx": max_retx})
    dropped = finished = collisions = 0
    retries = []
    for seed in (1, 2, 3):
        res = run_simulation(cfg, seed, keep_packets=True)
        m, frames = res.metrics, res.frames
        dropped += m.dropped_retx
        finished += m.delivered_video + m.delivered_ul + m.dropped_retx
        collisions += m.collisions
        delivered = ~np.isnan(frames.delivery_us)
        retries += np.asarray(frames.retx_count)[delivered].tolist()
    assert collisions > 0
    q = per ** (max_retx + 1)
    assert abs(dropped / finished - q) <= 4 * np.sqrt(q * (1 - q) / finished)
    law = np.array([(1 - per) * per**k for k in range(max_retx + 1)]) / (1 - q)
    seen = np.bincount(retries) / len(retries)
    assert len(seen) == max_retx + 1
    assert (np.abs(seen - law)
            <= 4 * np.sqrt(law * (1 - law) / len(retries))).all()


# sha256 of every sample list, counter and tx_log entry of a seed-1 run,
# 1 s unless given. The event loop may be reworked for speed, but these
# must not move.
PINNED_RUNS = {
    "defaults": (
        {},
        "794cd4018f34bc21f04f4a0620217747ab2fa45a3eca8d8bced89c5d847b565b"),
    # zero backoff: both stations expire together after every exchange
    "cw_zero_collisions": (
        {"mac": {"cw_min": 0, "cw_max": 0, "collisions_enabled": True}},
        "50e218406e3024e5aa7dd5dd562a59e1f91a0d330de3fc77e0b79407acea03a1"),
    # same ties resolved in the AP's favour, with a warm-up cut
    "cw_zero_no_collisions_warmup": (
        {"warmup_ms": 200.0,
         "mac": {"cw_min": 0, "cw_max": 0, "collisions_enabled": False}},
        "1cc06542ec643b142939a27c31182b5aea5d246dea1c34489f232dde1fb63ff0"),
    # every UL packet lands at exactly a video frame's first arrival
    "fps100_ul10": (
        {"traffic": {"fps": 100.0, "ul_period_ms": 10.0}},
        "c05d2c778cf2cbd4301efdb790ebb2b20432dc94f84eb782e36f43ff6280f496"),
    # releases snapped to the global k*tau grid
    "global_pacer": (
        {"traffic": {"pacer_anchor": "global"}},
        "9545dbfb89d8219b10468506feb1a156ec376bdf136db50fbe9db6b6cb83487b"),
    # tau longer than the 11.1 ms frame period: a frame's later batches
    # are released after the next frames' first ones
    "tau_over_frame_period": (
        {"traffic": {"inter_batch_time_ms": 20.0}},
        "602a670a12d6b33519ea29b38235f4987f2e8feebead7115f89aa98d81461e77"),
    # every buffered packet may join an aggregate, bounded by count only
    "no_snapshot_no_byte_bound": (
        {"mac": {"ampdu_snapshot": False, "max_ampdu_bytes": None}},
        "91bafcaee3549f86df817d98fba9ad5aeab78d0c60e342dd740c9699458aec23"),
    "exchange_any_data_end": (
        {"mac": {"cw_policy": "exchange_any", "delivery_stamp": "data_end"}},
        "5dac07732fa44ce3deccb7d68128ac7bf4d3e3d451a0ff6d0115b586dedf42b0"),
    # an overloaded link: tail drops at the AP and retransmissions
    "mcs0_per_tail_drops": (
        {"phy": {"mcs_index": 0}, "mac": {"per": 0.2, "ap_buffer": 50}},
        "ecfdb9f416e70766af39757e96bed22affac78ccf3184c986249a7a54f6e7163"),
    # the same link for 3 s: failed MPDUs requeued at the head leave the
    # AP buffer above its capacity, and the arrivals that find it so are
    # tail-dropped
    "mcs0_per_requeue_over_capacity": (
        {"duration_s": 3.0, "phy": {"mcs_index": 0},
         "mac": {"per": 0.2, "ap_buffer": 50}},
        "cefd1257a619c201b0569d3257560b44025b1dc20b91ddad071d3179ca497ede"),
    # the window doubles per failed exchange, and no station sends RTS/CTS
    "mcs0_exchange_no_rts": (
        {"phy": {"mcs_index": 0},
         "mac": {"per": 0.2, "cw_policy": "exchange",
                 "rts_cts_enabled": False, "ul_rts_cts_enabled": False}},
        "b73fe4df9f67ff16cb1a5e2bfa861fafb0a3ea6308506a2b469a8110254add3b"),
    # 1-byte frames in up to 12 batches: a frame's leading batches are
    # empty, so its first packet comes one or more tau after the frame
    "tiny_frames_late_first_packet": (
        {"traffic": {"bitrate_bps": 720.0, "batch_count_interval_ms": 1.0}},
        "45e5ff70939a537e25fcc7b8cf581c4ab27af22a15d441107879a4dab9b9f8e9"),
}


def run_digest(res) -> str:
    m = res.metrics
    # each sample set read as a list, whose repr the digests were pinned on
    parts = (m.dl_packet_delays_us.tolist(), m.ul_packet_delays_us.tolist(),
             m.vf_delays_us.tolist(), m.assembly_delays_us.tolist(),
             m.ampdu_sizes.tolist(),
             m.airtime_busy_us, m.buffer_busy_us, m.buffer_level_integral,
             m.generated_video, m.generated_ul, m.delivered_video,
             m.delivered_ul, m.dropped_buffer, m.dropped_retx, m.residual,
             m.incomplete_frames, m.collisions,
             [(t.role, t.tx_start_us, t.busy_end_us, t.n_mpdus,
               t.backoff_slots) for t in m.tx_log])
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_run_digest(name):
    over, expected = PINNED_RUNS[name]
    res = run_simulation(fast_cfg(**over), 1)
    assert run_digest(res) == expected


@pytest.mark.parametrize("window_s, block", [(1e-9, 7), (0.05, 1000)])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_run_digest_in_windows(name, window_s, block, monkeypatch):
    # video built one frame (or five) at a time, so that emissions carry
    # from window to window, and the after-loop passes taking 7 (or
    # 1000) rows at a time replay each pinned run
    monkeypatch.setattr(engine, "WINDOW_S", window_s)
    monkeypatch.setattr(engine, "BLOCK", block)
    monkeypatch.setattr(metrics, "BLOCK", block)
    over, expected = PINNED_RUNS[name]
    assert run_digest(run_simulation(fast_cfg(**over), 1)) == expected


# every value each MAC switch admits, and the edges of the numeric ones:
# no backoff at all, no retries, one-packet buffers and a one-byte
# aggregate bound
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(per=st.floats(0.0, 1.0),
       cw=st.sampled_from([(0, 0), (0, 7), (15, 1023)]),
       max_retx=st.sampled_from([0, 1, 7]),
       buffers=st.sampled_from([(1, 1), (1, 150), (50, 1), (1000, 150)]),
       max_ampdu=st.sampled_from([1, 4, 256]),
       max_ampdu_bytes=st.sampled_from([1, 5000, 65535, None]),
       collisions=st.booleans(),
       rts_cts=st.tuples(st.booleans(), st.booleans()),
       cw_policy=st.sampled_from(["retry", "exchange", "exchange_any"]),
       snapshot=st.booleans(),
       stamp=st.sampled_from(["back_end", "data_end"]),
       pacer=st.sampled_from(["frame", "global"]),
       mcs=st.sampled_from([0, 5, 11]),
       fps=st.sampled_from([24.0, 60.0, 90.0, 100.0]),
       tau_ms=st.sampled_from([0.01, 5.56, 20.0]),
       ul_period_ms=st.sampled_from([None, 4.16, 10.0]),
       duration_s=st.sampled_from([0.05, 0.1, 0.2]),
       warmup=st.floats(0.01, 0.9),
       seed=st.integers(0, 2**16))
def test_engine_invariants_over_valid_configs(
        per, cw, max_retx, buffers, max_ampdu, max_ampdu_bytes, collisions,
        rts_cts, cw_policy, snapshot, stamp, pacer, mcs, fps, tau_ms,
        ul_period_ms, duration_s, warmup, seed):
    cfg = validate_config(make_cfg(
        duration_s=duration_s, warmup_ms=warmup * duration_s * 1e3,
        phy={"mcs_index": mcs},
        mac={"per": per, "cw_min": cw[0], "cw_max": cw[1],
             "max_retx": max_retx, "ap_buffer": buffers[0],
             "client_buffer": buffers[1], "max_ampdu": max_ampdu,
             "max_ampdu_bytes": max_ampdu_bytes,
             "collisions_enabled": collisions, "rts_cts_enabled": rts_cts[0],
             "ul_rts_cts_enabled": rts_cts[1], "cw_policy": cw_policy,
             "ampdu_snapshot": snapshot, "delivery_stamp": stamp},
        traffic={"fps": fps, "inter_batch_time_ms": tau_ms,
                 "pacer_anchor": pacer, "ul_enabled": ul_period_ms is not None,
                 "ul_period_ms": ul_period_ms or 4.16}))
    aggregates = []
    assemble = mac_mod.assemble_ampdu

    def recording_assemble(*args, **kwargs):
        ampdu = assemble(*args, **kwargs)
        aggregates.append((len(ampdu), ampdu.total_bytes))
        return ampdu

    with mock.patch.object(mac_mod, "assemble_ampdu", recording_assemble):
        res = run_simulation(cfg, seed, keep_packets=True)
    m = res.metrics
    metrics_summary(m)

    generated, accounted = conservation_balance(m)
    assert generated == accounted

    # only an exchange that starts before the end may run past it
    log = sorted(m.tx_log, key=lambda t: t.tx_start_us)
    for t in log:
        assert 0.0 <= t.tx_start_us < t.busy_end_us
    assert all(t.busy_end_us <= m.duration_us for t in log[:-1])
    assert not log or log[-1].tx_start_us <= m.duration_us
    for a, b in zip(log, log[1:]):
        assert b.tx_start_us >= a.busy_end_us

    # a delivered packet waited at least AIFS and one exchange of its own
    # aggregate, which is no shorter than an exchange of that packet alone
    def floor_us(size, rts):
        floor = cfg.mac.aifs_us + phy.exchange_airtime(size, 1, cfg.phy,
                                                       cfg.mac, rts)
        if stamp == "data_end":
            floor -= cfg.mac.sifs_us + phy.back_airtime(cfg.phy)
        return floor - 1e-6

    smallest = min(p.size_bytes for f in res.frames for b in f.batches
                   for p in b.packets)
    assert all(d >= floor_us(smallest, rts_cts[0])
               for d in m.dl_packet_delays_us)
    assert all(d >= floor_us(cfg.traffic.ul_packet_size_bytes, rts_cts[1])
               for d in m.ul_packet_delays_us)

    # a collision occupies RTS + SIFS + CTS and carries nothing; a data
    # exchange carries at least one MPDU after a draw within the window
    collisions_seen = 0
    for t in m.tx_log:
        if t.role == "collision":
            assert collisions
            assert t.busy_end_us - t.tx_start_us == pytest.approx(
                collision_busy_us(cfg), abs=1e-6)
            assert (t.n_mpdus, t.backoff_slots) == (0, -1)
            collisions_seen += t.tx_start_us >= m.warmup_us
        else:
            assert t.n_mpdus >= 1
            assert 0 <= t.backoff_slots <= cw[1]
    assert m.collisions == collisions_seen

    assert all(1 <= n <= max_ampdu for n in m.ampdu_sizes)
    for n, size in aggregates:
        assert 1 <= n <= max_ampdu
        assert n == 1 or max_ampdu_bytes is None or size <= max_ampdu_bytes
