"""Discrete-event simulation core: virtual clock, channel contention
between the AP (downlink video) and the client (uplink controller
traffic), and sweep orchestration across seeds.

Event ordering contract (what makes a run replay bit-identically):

- Packet arrivals are known before the loop starts. They sit in two
  parallel pre-sorted lists, times and packet ids, walked by a cursor.
  Every arrival up to the pending runtime event is admitted in one
  pass; only one that newly backlogs a station can move that event.
- At most one runtime event is pending, at `_Sim.wake_us`: while the
  channel is busy, the end of the exchange on the air; while it is
  idle, the earliest backoff expiry (none if no station is backlogged).
  A new earliest expiry replaces the pending one, so no event is ever
  stale.
- At equal times an arrival is handled before the runtime event.
- At equal times a video arrival is handled before an uplink arrival.

Packet state is columnar: a packet is an integer id, video packets first
in packet_id order and uplink packets after them. Station buffers and
A-MPDUs hold ids, and sizes, enqueue and delivery times and retry counts
are per-packet lists (mac.Packets). Frame delays come from the delivery
column in one reduction over the frame offsets. A run that keeps its
packets returns its traffic columns with that run state attached.

One PCG64 stream per run keeps every run reproducible and independent of
any other.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from vrwifi import mac as mac_mod
from vrwifi import phy as phy_mod
from vrwifi import traffic as traffic_mod
from vrwifi.config import SimConfig, validate_config
from vrwifi.mac import AP, CLIENT, MacStation, Packets
from vrwifi.metrics import RunMetrics, TxRecord, vf_delay
from vrwifi.traffic import VideoTraffic

SWEEP_AXES = {
    "fps": ("traffic", "fps"),
    "inter_batch_time": ("traffic", "inter_batch_time_ms"),
    "bitrate": ("traffic", "bitrate_bps"),
    "mcs_index": ("phy", "mcs_index"),
    "per": ("mac", "per"),
}


@dataclass
class RunResult:
    config_echo: SimConfig
    seed: int
    metrics: RunMetrics
    # the run's video traffic with its packets' enqueue and delivery times
    # and retry counts; only when keep_packets is requested
    frames: VideoTraffic | None = None


class _Sim:
    def __init__(self, cfg: SimConfig, seed: int, keep_packets: bool):
        self.cfg = cfg
        self.seed = seed
        self.keep_packets = keep_packets
        self.rng = np.random.default_rng(seed)
        self.duration_us = cfg.duration_s * 1e6
        self.warmup_us = min(cfg.warmup_ms * 1e3, self.duration_us)
        self.now = 0.0
        self.wake_us = math.inf   # time of the one pending runtime event
        self.in_flight = None   # (station, ampdu) or "collision" while busy
        self.packets: Packets | None = None    # set by run()
        self.stations: dict[str, MacStation] = {}   # AP first, set by run()
        self.metrics = RunMetrics(duration_us=self.duration_us,
                                  warmup_us=self.warmup_us,
                                  buffer_capacity=cfg.mac.ap_buffer)
        # AP packets admitted and not yet delivered or dropped, including
        # those inside an in-flight A-MPDU; integrated since queue_t
        self.ap_outstanding = 0
        self.queue_t = 0.0
        self.drawn = {AP: -1, CLIENT: -1}
        self.airtime_cache: dict = {}   # (bytes, mpdus, rts_cts) -> us
        # pre-computed timing constants
        m = cfg.mac
        self.slot = m.slot_us
        self.aifs = m.aifs_us
        self.back_air = phy_mod.back_airtime(cfg.phy)
        self.collision_busy = (phy_mod.rts_airtime(cfg.phy) + m.sifs_us
                               + phy_mod.cts_airtime(cfg.phy))

    # -- contention -----------------------------------------------------

    def access_time(self, st: MacStation) -> float:
        return st.aifs_end_us + st.slots_left * self.slot

    def resolve(self) -> None:
        """While idle, make the earliest pending backoff expiry the
        pending event."""
        if self.in_flight is not None:
            return
        best = None
        for st in self.stations.values():
            if not st.backlogged():
                continue
            if st.aifs_end_us is None:
                st.aifs_end_us = self.now + self.aifs
            if st.slots_left is None:
                if self.cfg.mac.cw_policy == "retry":
                    st.cw = mac_mod.cw_for_retry(
                        st, self.packets.retx_count[st.buffer[0]])
                st.slots_left = mac_mod.draw_backoff(st, self.rng)
                self.drawn[st.role] = st.slots_left
                st.snapshot_len = len(st.buffer)
            t = self.access_time(st)
            if best is None or t < best:
                best = t
        if best is not None:
            self.wake_us = best

    def freeze_loser(self, st: MacStation, tx_start: float) -> None:
        """Consume the slots a deferring station counted down before the
        channel went busy; it re-runs AIFS when the channel clears."""
        if st.aifs_end_us is None or st.slots_left is None:
            return
        elapsed = tx_start - st.aifs_end_us
        if elapsed > 0:
            st.slots_left = max(0, st.slots_left - int(elapsed / self.slot + 1e-9))
        st.aifs_end_us = None

    # -- channel accounting ----------------------------------------------

    def add_airtime(self, start: float, end: float) -> None:
        a, b = max(start, self.warmup_us), min(end, self.duration_us)
        if b > a:
            self.metrics.airtime_busy_us += b - a

    def advance_queue(self, now: float, change: int = 0) -> None:
        """Integrate the AP queue length since queue_t, clipped to the
        measured window, then change it by `change` packets."""
        # max(queue_t, warmup) and min(now, duration), without the calls
        a, b = self.queue_t, now
        if self.warmup_us > a:
            a = self.warmup_us
        if self.duration_us < b:
            b = self.duration_us
        if b > a:
            self.metrics.buffer_level_integral += self.ap_outstanding * (b - a)
            if self.ap_outstanding > 0:
                self.metrics.buffer_busy_us += b - a
        self.queue_t = now
        self.ap_outstanding += change

    # -- event handlers ---------------------------------------------------

    def on_access(self) -> None:
        winners = [
            st for st in self.stations.values()
            if st.backlogged() and st.aifs_end_us is not None
            and st.slots_left is not None
            and self.access_time(st) == self.now
        ]
        if not winners:
            return
        if len(winners) > 1:
            if self.cfg.mac.collisions_enabled:
                self.start_collision(winners)
                return
            winners.sort(key=lambda s: 0 if s.role == AP else 1)
        winner = winners[0]
        for st in self.stations.values():
            if st is not winner:
                self.freeze_loser(st, self.now)
        self.start_exchange(winner)

    def start_collision(self, stations: list[MacStation]) -> None:
        for st in stations:
            mac_mod.note_exchange_failure(st)
            st.slots_left = None
            st.aifs_end_us = None
        end = self.now + self.collision_busy
        self.add_airtime(self.now, end)
        if self.now >= self.warmup_us:
            self.metrics.collisions += 1
        self.metrics.tx_log.append(
            TxRecord("collision", self.now, end, 0, -1))
        self.in_flight = "collision"
        self.wake_us = end

    def start_exchange(self, st: MacStation) -> None:
        limit = st.snapshot_len if self.cfg.mac.ampdu_snapshot else None
        ampdu = mac_mod.assemble_ampdu(st, self.cfg.mac.max_ampdu, limit,
                                       self.cfg.mac.max_ampdu_bytes)
        if ampdu is None:
            self.resolve()
            return
        # uplink aggregates stay out of ampdu_sizes
        if st.role == AP and self.now >= self.warmup_us:
            self.metrics.record_attempt(ampdu)
        key = (ampdu.total_bytes, len(ampdu), st.rts_cts)
        dur = self.airtime_cache.get(key)
        if dur is None:
            dur = phy_mod.exchange_airtime(ampdu.total_bytes, len(ampdu),
                                           self.cfg.phy, self.cfg.mac,
                                           st.rts_cts)
            self.airtime_cache[key] = dur
        end = self.now + dur
        st.slots_left = None
        st.aifs_end_us = None
        self.add_airtime(self.now, end)
        self.metrics.tx_log.append(
            TxRecord(st.role, self.now, end, len(ampdu), self.drawn[st.role]))
        self.in_flight = (st, ampdu)
        self.wake_us = end

    def on_end(self) -> None:
        flight, self.in_flight = self.in_flight, None
        if flight == "collision":
            self.resolve()
            return
        st, ampdu = flight
        flags = mac_mod.apply_per(ampdu, self.cfg.mac.per, self.rng)
        delivered, requeued, dropped = mac_mod.handle_back(
            st, ampdu, flags, self.cfg.mac.max_retx)
        if st.role == AP and (delivered or dropped):
            self.advance_queue(self.now, -len(delivered) - len(dropped))
        if delivered:
            if self.cfg.mac.delivery_stamp == "back_end":
                stamp = self.now
            else:
                stamp = self.now - self.cfg.mac.sifs_us - self.back_air
            delivery = self.packets.delivery_us
            for pid in delivered:
                delivery[pid] = stamp
            if st.role == AP:
                self.metrics.delivered_video += len(delivered)
            else:
                self.metrics.delivered_ul += len(delivered)
            self.metrics.record_delivery(self.packets, delivered,
                                         st.role == CLIENT)
        policy = self.cfg.mac.cw_policy
        if policy != "retry":
            if not delivered:
                mac_mod.note_exchange_failure(st)
            elif policy == "exchange_any" and (requeued or dropped):
                mac_mod.note_exchange_failure(st)
            else:
                mac_mod.note_exchange_success(st)
        self.resolve()

    # -- main loop --------------------------------------------------------

    def arrivals(self, frames: VideoTraffic) -> tuple[list, list, Packets]:
        """Every packet arrival as parallel lists of times and packet ids,
        time-ordered with video first at ties, and the run's Packets
        columns; the times end in an inf sentinel. Video emitted at or
        after the end is left out. The numpy temporaries are freed on
        return, before the loop runs."""
        cfg = self.cfg
        video = traffic_mod.video_packet_emissions(frames, cfg.traffic)
        n_video = int(np.searchsorted(video.times_us, self.duration_us))
        times, ids = video.times_us[:n_video], video.packet_ids[:n_video]
        sizes = frames.packet_bytes
        if cfg.traffic.ul_enabled:
            ul = traffic_mod.ul_controller_stream(cfg.traffic, cfg.duration_s)
            times = np.concatenate([times, ul.times_us])
            ids = np.concatenate(
                [ids, len(sizes) + np.arange(len(ul), dtype=ids.dtype)])
            sizes = sizes + [ul.size_bytes] * len(ul)
        order = np.argsort(times, kind="stable")   # video first at ties
        times = times[order].tolist()
        times.append(math.inf)
        return times, ids[order].tolist(), Packets.of_sizes(sizes)

    def run(self) -> RunResult:
        cfg = self.cfg
        frames = traffic_mod.generate_video_frames(
            cfg.traffic, self.rng, cfg.duration_s)
        times, ids, self.packets = self.arrivals(frames)
        ap = self.stations[AP] = mac_mod.make_station(AP, cfg.mac,
                                                      self.packets)
        client = self.stations[CLIENT] = mac_mod.make_station(
            CLIENT, cfg.mac, self.packets)
        enqueue, advance_queue = mac_mod.enqueue, self.advance_queue
        duration_us = self.duration_us
        # ids from n_video on are uplink packets
        n_video = len(frames.packet_bytes)
        i = n_ul = 0
        now = self.now
        while True:
            # arrivals win ties against the runtime event: admit every
            # arrival up to it in one pass
            wake = self.wake_us
            t = times[i]
            while t <= wake:
                # an uplink packet at t == end still enters; >= moves digests
                if t > duration_us:
                    break
                assert t >= now - 1e-6, "virtual clock went backwards"
                if t > now:
                    now = t
                pid = ids[i]
                i += 1
                if pid >= n_video:
                    st = client
                    n_ul += 1
                else:
                    st = ap
                if enqueue(st, pid, now) == "accepted":
                    if st is ap:
                        advance_queue(now, 1)
                    if len(st.buffer) == 1:
                        # an already backlogged station's timers are
                        # armed (or frozen under a busy channel), so only
                        # a newly backlogged one can move the earliest
                        # expiry
                        self.now = now
                        self.resolve()
                        wake = self.wake_us
                t = times[i]
            if t <= wake:
                break   # the next arrival is past the end
            self.wake_us = math.inf
            if wake > duration_us:
                break
            assert wake >= now - 1e-6, "virtual clock went backwards"
            if wake > now:
                now = wake
            self.now = now
            if self.in_flight is not None:
                self.on_end()
            else:
                self.on_access()
        self.now = now

        m = self.metrics
        m.generated_ul, m.generated_video = n_ul, i - n_ul
        self.advance_queue(self.duration_us)
        packets = self.packets
        self.finalize_frames(frames, packets.delivery_us[:n_video])
        m.dropped_retx = sum(s.drops_retx for s in self.stations.values())
        m.dropped_buffer = sum(s.drops_buffer for s in self.stations.values())
        in_flight_count = (len(self.in_flight[1].mpdus)
                           if isinstance(self.in_flight, tuple) else 0)
        m.residual = (sum(len(s.buffer) for s in self.stations.values())
                      + in_flight_count)
        kept = None
        if self.keep_packets:
            kept = dataclasses.replace(
                frames, enqueue_us=packets.enqueue_us[:n_video],
                delivery_us=packets.delivery_us[:n_video],
                retx_count=packets.retx_count[:n_video])
        return RunResult(config_echo=cfg, seed=self.seed, metrics=m,
                         frames=kept)

    def finalize_frames(self, frames: VideoTraffic,
                        delivery_us: list) -> None:
        """Frame-level delays for every fully delivered post-warm-up
        frame, in frame order, from each video packet's delivery time."""
        has_packets = frames.frame_packets > 0
        n_pk = frames.frame_packets[has_packets]
        delivered = np.array(delivery_us, dtype=float)   # None: NaN
        starts = np.cumsum(n_pk) - n_pk
        last = np.maximum.reduceat(delivered, starts)
        first = np.minimum.reduceat(delivered, starts)
        measured = frames.frame_gen_us[has_packets] >= self.warmup_us
        done = measured & ~np.isnan(last)
        m = self.metrics
        m.incomplete_frames = int(np.count_nonzero(measured)
                                  - np.count_nonzero(done))
        m.assembly_delays_us.extend((last - first)[done].tolist())
        rows = np.repeat(done, n_pk)
        n_pk = n_pk[done]
        m.vf_delays_us.extend(vf_delay(frames.packet_gen_us[rows],
                                       delivered[rows],
                                       np.cumsum(n_pk) - n_pk).tolist())


def run_simulation(cfg: SimConfig, seed: int,
                   keep_packets: bool = False) -> RunResult:
    """Simulate cfg.duration_s of virtual time under one seed."""
    validate_config(cfg)
    return _Sim(cfg, seed, keep_packets).run()


def run_seeds(cfg: SimConfig, jobs: int = 1) -> list[RunResult]:
    """cfg.runs independent runs; run i uses seed cfg.seed + i."""
    with run_tasks([(cfg, cfg.seed + i) for i in range(cfg.runs)],
                   jobs) as results:
        return list(results)


def set_axis(cfg: SimConfig, axis: str, value) -> SimConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis '{axis}'")
    section, name = SWEEP_AXES[axis]
    inner = dataclasses.replace(getattr(cfg, section), **{name: value})
    return validate_config(dataclasses.replace(cfg, **{section: inner}))


def run_sweep(base: SimConfig, axis: str, values: list, seeds: list[int],
              jobs: int = 1) -> dict:
    """Cartesian product of values x seeds, keyed by (value, seed).

    Every run is independent; execution order (or parallelism) cannot
    change any individual result.
    """
    tasks, keys = [], []
    for value in values:
        cfg = set_axis(base, axis, value)
        for seed in seeds:
            tasks.append((cfg, seed))
            keys.append((value, seed))
    with run_tasks(tasks, jobs) as results:
        return dict(zip(keys, results))


def _worker(task) -> RunResult:
    cfg, seed = task
    return run_simulation(cfg, seed)


@contextmanager
def run_tasks(tasks: list, jobs: int):
    """Yield an iterator over the RunResults of (cfg, seed) tasks, in
    task order.

    With jobs > 1 and more than one task, min(jobs, len(tasks)) worker
    processes start on entry and work through every task while the
    caller's block runs; leaving the block early cancels the tasks still
    waiting for a worker. Otherwise each run happens in this process as
    the iterator reaches it.
    """
    if jobs <= 1 or len(tasks) <= 1:
        yield map(_worker, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        yield pool.map(_worker, tasks)
    finally:
        pool.shutdown(cancel_futures=True)
