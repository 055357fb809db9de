import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from vrwifi import traffic as tr
from vrwifi.config import TrafficConfig
from tests.conftest import make_cfg


def rng(seed=1):
    return np.random.default_rng(seed)


def test_frame_period_and_size_90fps(traffic_cfg):
    f = tr.next_video_frame(traffic_cfg, rng(), 0)
    assert f.period_us == pytest.approx(11111.11, rel=1e-4)
    assert f.size_bytes == 69_445  # ceil(50e6 / 90 / 8), ~70 KB
    assert f.gen_time_us == 0.0


@pytest.mark.parametrize("fps,expected", [(30, 6), (60, 3), (90, 2)])
def test_max_batches_per_frame(fps, expected):
    assert tr.max_batches(TrafficConfig(fps=fps)) == expected


def test_n_batches_within_range(traffic_cfg):
    r = rng(3)
    for fid in range(200):
        f = tr.next_video_frame(traffic_cfg, r, fid)
        assert 1 <= f.n_batches <= 2


def test_zero_fps_rejected():
    with pytest.raises(ValueError, match="fps"):
        tr.next_video_frame(TrafficConfig(fps=0.0), rng(), 0)


def test_packetize_two_batches(traffic_cfg):
    f = tr.next_video_frame(traffic_cfg, rng(), 0)
    f.n_batches = 2
    batches = tr.packetize_frame(f, traffic_cfg)
    assert [b.size_bytes for b in batches] == [34_722, 34_723]
    assert [len(b.packets) for b in batches] == [28, 28]
    assert [b.packets[-1].size_bytes for b in batches] == [1_161, 1_162]
    assert batches[1].release_time_us == pytest.approx(5560.0)


def test_packetize_single_batch(traffic_cfg):
    f = tr.next_video_frame(traffic_cfg, rng(), 0)
    f.n_batches = 1
    (batch,) = tr.packetize_frame(f, traffic_cfg)
    assert len(batch.packets) == math.ceil(69_445 / 1243) == 56
    assert batch.release_time_us == f.gen_time_us


def test_packetize_identity_case():
    cfg = TrafficConfig(fps=100.0, bitrate_bps=1243 * 8 * 100)
    f = tr.next_video_frame(cfg, rng(), 0)
    f.n_batches = 1
    (batch,) = tr.packetize_frame(f, cfg)
    assert len(batch.packets) == 1
    assert batch.packets[0].size_bytes == 1243


@settings(max_examples=60)
@given(fps=st.sampled_from([30.0, 60.0, 90.0]),
       bitrate=st.integers(min_value=1_000_000, max_value=80_000_000),
       l_p=st.integers(min_value=100, max_value=1500),
       seed=st.integers(min_value=0, max_value=1000))
def test_byte_conservation_per_frame(fps, bitrate, l_p, seed):
    cfg = TrafficConfig(fps=fps, bitrate_bps=float(bitrate),
                        packet_size_bytes=l_p)
    f = tr.next_video_frame(cfg, rng(seed), 0)
    batches = tr.packetize_frame(f, cfg)
    assert sum(b.size_bytes for b in batches) == f.size_bytes
    assert sum(p.size_bytes for b in batches for p in b.packets) == f.size_bytes
    for b in batches:
        assert len(b.packets) == math.ceil(b.size_bytes / l_p)
        assert all(p.size_bytes <= l_p for p in b.packets)


def test_intra_batch_gen_times_strictly_increasing(traffic_cfg):
    f = tr.next_video_frame(traffic_cfg, rng(), 0)
    f.n_batches = 2
    for batch in tr.packetize_frame(f, traffic_cfg):
        gens = [p.gen_time_us for p in batch.packets]
        diffs = np.diff(gens)
        assert np.all(diffs == traffic_cfg.intra_batch_gap_us)


def test_n_batches_uniform_chi_square():
    cfg = TrafficConfig(fps=30.0)   # 6 possible batch counts
    r = rng(2024)
    draws = [tr.next_video_frame(cfg, r, i).n_batches for i in range(10_000)]
    counts = np.bincount(draws, minlength=7)[1:7]
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01


def test_mean_generated_load_matches_bitrate(traffic_cfg):
    frames = tr.generate_video_frames(traffic_cfg, rng(5), 10.0)
    total_bits = 8 * sum(b.size_bytes for f in frames for b in f.batches)
    load = total_bits / 10.0
    assert load == pytest.approx(traffic_cfg.bitrate_bps, rel=0.01)


def test_seeded_determinism_byte_identical(traffic_cfg):
    def sequence(seed):
        frames = tr.generate_video_frames(traffic_cfg, rng(seed), 2.0)
        return [(p.packet_id, p.size_bytes, p.gen_time_us, p.frame_id,
                 p.batch_index)
                for f in frames for b in f.batches for p in b.packets]
    assert sequence(42) == sequence(42)
    assert sequence(42) != sequence(43)


def test_tiny_tau_collapses_frame_span():
    cfg = TrafficConfig(fps=60.0, inter_batch_time_ms=0.01)
    f = tr.next_video_frame(cfg, rng(4), 0)
    assert f.n_batches <= 3   # batch count still bound by the 5.56 grid
    batches = tr.packetize_frame(f, cfg)
    spread = batches[-1].release_time_us - batches[0].release_time_us
    assert spread <= (3 - 1) * 10.0


def test_ul_stream_count_and_load(traffic_cfg):
    times = tr.ul_controller_stream(traffic_cfg, 1.0)
    assert times.dtype == np.float64
    assert len(times) == 240   # floor(1000 / 4.16)
    load = len(times) * traffic_cfg.ul_packet_size_bytes * 8 / 1e6
    assert load == pytest.approx(0.336, abs=0.01)
    assert times[0] == 4160.0 and np.allclose(np.diff(times), 4160.0)


def test_ul_stream_zero_duration(traffic_cfg):
    assert tr.ul_controller_stream(traffic_cfg, 0.0).tolist() == []


def test_ul_stream_bad_period():
    with pytest.raises(ValueError, match="ul_period"):
        tr.ul_controller_stream(TrafficConfig(ul_period_ms=0.0), 1.0)


def test_global_anchor_snaps_batch_starts_to_grid():
    cfg = TrafficConfig(fps=60.0, pacer_anchor="global")
    frames = tr.generate_video_frames(cfg, rng(8), 0.5)
    tau_us = cfg.inter_batch_time_ms * 1e3
    em = tr.video_packet_emissions(frames, cfg)
    batch = np.repeat(np.arange(len(frames.batch_packets)),
                      frames.batch_packets)[em.packet_ids]
    # emissions are in time order: each batch's first is its start
    _, first = np.unique(batch, return_index=True)
    frac = (em.times_us[first] / tau_us) % 1.0
    assert len(frac) == len(frames.batch_packets)
    assert np.allclose(np.minimum(frac, 1.0 - frac), 0.0, atol=1e-6)


def test_frame_anchor_releases_at_generation():
    cfg = TrafficConfig(fps=60.0)
    frames = tr.generate_video_frames(cfg, rng(8), 0.5)
    em = tr.video_packet_emissions(frames, cfg)
    assert em.times_us.tolist() == frames.packet_gen_us[em.packet_ids].tolist()


# sha256 of every frame, batch and packet field generate_video_frames
# builds, of video_packet_emissions' (time, packet_id) order, and of the
# generator state it leaves behind. Traffic generation may be reworked
# for speed, but these must not move.
PINNED_TRAFFIC = {
    "defaults_10s": (
        {}, 10.0,
        "c0f1d165d8c09b116d63a3355af9ba4faefc3d4c2999c1ba245b69592fb7d206"),
    "global_pacer": (
        {"pacer_anchor": "global"}, 2.0,
        "d8bcb9cd8f5b8ba40843947939691719c21eaeab7f3d05589b5b69344cc54da1"),
    # later batches of a frame come out after the next frames' first ones
    "tau_over_frame_period": (
        {"inter_batch_time_ms": 20.0}, 2.0,
        "dff7056d6e05316147b132683053d6cde6d9aef7e5bd12ea4cf8729f94c38b53"),
    "tiny_tau": (
        {"inter_batch_time_ms": 0.01}, 2.0,
        "60f4b52da6035ef017f32240fae53b32273233bc67fe7b530b558cae29d8d5b2"),
    # 5.25 s is 126 frame periods: the loop draws for frame 126, then
    # drops it
    "fps24_drawn_and_dropped": (
        {"fps": 24.0}, 5.25,
        "c4ba41af0950ae9f63223096e5168fe488f6c0291c888313700997957c9814f2"),
}


def traffic_digest(cfg: TrafficConfig, duration_s: float) -> str:
    r = rng(1)
    frames = tr.generate_video_frames(cfg, r, duration_s)
    em = tr.video_packet_emissions(frames, cfg)
    parts = (
        [(f.frame_id, f.gen_time_us, f.size_bytes, f.n_batches, f.period_us,
          [(b.batch_index, b.size_bytes, b.release_time_us,
            [(p.packet_id, p.stream, p.size_bytes, p.gen_time_us,
              p.frame_id, p.batch_index, p.enqueue_time_us,
              p.delivery_time_us, p.retx_count) for p in b.packets])
           for b in f.batches])
         for f in frames],
        list(zip(em.times_us.tolist(), em.packet_ids.tolist())),
        r.bit_generator.state,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TRAFFIC))
def test_pinned_traffic_digest(name):
    over, duration_s, expected = PINNED_TRAFFIC[name]
    assert traffic_digest(TrafficConfig(**over), duration_s) == expected


@pytest.mark.parametrize("name", sorted(PINNED_TRAFFIC))
def test_video_windows_split_the_run(name):
    over, duration_s, _ = PINNED_TRAFFIC[name]
    cfg = TrafficConfig(**over)
    r = rng(1)
    whole = tr.generate_video_frames(cfg, r, duration_s)
    r_windows = rng(1)
    windows = list(tr.video_windows(cfg, r_windows, duration_s, 7))
    # the same one draw, and the same columns window by window
    assert r_windows.bit_generator.state == r.bit_generator.state
    for column in ("frame_id", "frame_gen_us", "frame_packets",
                   "batch_release_us", "packet_bytes", "packet_gen_us"):
        assert np.concatenate([getattr(w, column) for w, _ in windows]
                              ).tolist() == getattr(whole, column).tolist()
    assert [w.first_packet_id for w, _ in windows] == np.cumsum(
        [0] + [len(w.packet_bytes) for w, _ in windows[:-1]]).tolist()
    # no packet of a later window is emitted before a window's bound
    first = [tr.video_packet_emissions(w, cfg).times_us[0]
             for w, _ in windows]
    bounds = [later for _, later in windows]
    assert bounds[-1] == math.inf
    assert all(b <= min(first[i + 1:]) for i, b in enumerate(bounds[:-1]))


def reference_traffic(cfg: TrafficConfig, r, duration_s: float):
    """The packetisation and pacing rules one frame, batch and packet at
    a time: (frames as nested tuples, (emission time, packet_id) list)."""
    period_us = 1e6 / cfg.fps
    tau_us = cfg.inter_batch_time_ms * 1e3
    l_p = cfg.packet_size_bytes
    frames, emissions, pid = [], [], 0
    for fid in range(math.ceil(duration_s * 1e6 / period_us)):
        n_b = int(r.integers(1, tr.max_batches(cfg) + 1))
        gen = fid * period_us
        if gen >= duration_s * 1e6:
            break
        size = tr.frame_size_bytes(cfg)
        base, rem = divmod(size, n_b)
        batches = []
        for k in range(n_b):
            b_bytes = base + (1 if k >= n_b - rem else 0)
            release = gen + k * tau_us
            start = (math.ceil(release / tau_us - 1e-9) * tau_us
                     if cfg.pacer_anchor == "global" else release)
            n_pk = math.ceil(b_bytes / l_p)
            packets = []
            for j in range(n_pk):
                packets.append((pid, l_p if j < n_pk - 1
                                else b_bytes - (n_pk - 1) * l_p,
                                release + j * cfg.intra_batch_gap_us, fid, k))
                emissions.append((start + j * cfg.intra_batch_gap_us, pid))
                pid += 1
            batches.append((k, b_bytes, release, packets))
        frames.append((fid, gen, size, n_b, period_us, batches))
    emissions.sort(key=lambda e: e[0])
    return frames, emissions


@settings(max_examples=25, deadline=None)
@given(fps=st.sampled_from([7.3, 24.0, 60.0, 90.0, 240.0]),
       bitrate=st.sampled_from([8.0, 1e4, 1e6, 20e6]),
       l_p=st.sampled_from([1, 100, 1243]),
       tau_ms=st.sampled_from([0.01, 5.56, 20.0]),
       count_ms=st.sampled_from([0.5, 5.56, 50.0]),
       gap_us=st.sampled_from([0.0, 0.3, 5.0]),
       pacer=st.sampled_from(["frame", "global"]),
       duration_s=st.sampled_from([0.01, 0.05, 1 / 3]),
       seed=st.integers(0, 1000))
def test_generation_follows_the_per_packet_rules(
        fps, bitrate, l_p, tau_ms, count_ms, gap_us, pacer, duration_s,
        seed):
    if bitrate / 8 / l_p * duration_s > 20_000:
        l_p = 1243   # keep each example to a few thousand packets
    cfg = TrafficConfig(fps=fps, bitrate_bps=bitrate, packet_size_bytes=l_p,
                        inter_batch_time_ms=tau_ms,
                        batch_count_interval_ms=count_ms,
                        intra_batch_gap_us=gap_us, pacer_anchor=pacer)
    r, r_ref = rng(seed), rng(seed)
    frames = tr.generate_video_frames(cfg, r, duration_s)
    expected_frames, expected_emissions = reference_traffic(
        cfg, r_ref, duration_s)
    assert [(f.frame_id, f.gen_time_us, f.size_bytes, f.n_batches,
             f.period_us,
             [(b.batch_index, b.size_bytes, b.release_time_us,
               [(p.packet_id, p.size_bytes, p.gen_time_us, p.frame_id,
                 p.batch_index) for p in b.packets])
              for b in f.batches])
            for f in frames] == expected_frames
    em = tr.video_packet_emissions(frames, cfg)
    pairs = list(zip(em.times_us.tolist(), em.packet_ids.tolist()))
    assert pairs == expected_emissions and list(em) == pairs
    assert r.bit_generator.state == r_ref.bit_generator.state
    # every frame has a packet, and its first row is its earliest
    # generated one (a frame's leading batches may be empty)
    n_pk = frames.frame_packets
    assert (n_pk >= 1).all()
    starts = np.cumsum(n_pk) - n_pk
    assert frames.packet_gen_us[starts].tolist() == np.minimum.reduceat(
        frames.packet_gen_us, starts).tolist()
