"""Discrete-event simulation core: virtual clock, channel contention
between the AP (downlink video) and the client (uplink controller
traffic), and sweep orchestration across seeds.

Event ordering contract (what makes a run replay bit-identically):

- Packet arrivals are known before the loop starts. Each station has
  its own pre-sorted lists of arrival times and packet ids, walked by a
  cursor.
- At most one runtime event is pending, at `_Sim.wake_us`: while the
  channel is busy, the end of the exchange on the air; while it is
  idle, the earlier of the two stations' backoff expiries (none if
  neither is backlogged). A new earlier expiry replaces the pending
  one, so no event is ever stale.
- Contention is between a fixed pair. On an idle channel the AP is
  armed before the client, so it draws its backoff first. If both
  expire together they collide, or the AP transmits when collisions
  are disabled; the station that defers keeps the slots it has not
  counted down and re-runs AIFS when the channel clears.
- At equal times an arrival is handled before the runtime event, and a
  video arrival before an uplink arrival.
- Before each runtime event, every arrival up to it (and up to the end
  of the run) is admitted: one bisect and one slice into mac.enqueue per
  station. Only an arrival that newly backlogs a station on an idle
  channel is admitted alone, in time order, and resolved at once: it
  draws that station's backoff and may bring the runtime event forward,
  which shortens the span still to admit. An already backlogged
  station's timers are armed (or frozen under a busy channel), so its
  arrivals commute with that resolve.
- The loop only records what the statistics need: the admitted AP
  arrivals, the time and size of each AP queue drop at an exchange end,
  and each exchange's delivered ids and stamp. After the loop the AP
  queue integral and busy time are summed from those records in event
  order (arrivals first at equal times), with the same sequential
  floating-point additions as a running sum, and the delay samples and
  delivery times are built in one numpy pass per stream.

Packet state is columnar: a packet is an integer id, video packets first
in packet_id order and uplink packets after them. Station buffers and
A-MPDUs hold ids, sizes and retry counts are per-packet lists
(mac.Packets), and a packet's enqueue time is its arrival time. Frame
delays come from the delivery column in one reduction over the frame
offsets. A run that keeps its packets returns its traffic columns with
the enqueue and delivery times and retry counts attached.

One PCG64 stream per run keeps every run reproducible and independent of
any other.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from vrwifi import mac as mac_mod
from vrwifi import phy as phy_mod
from vrwifi import traffic as traffic_mod
from vrwifi.config import SimConfig, validate_config
from vrwifi.mac import AP, CLIENT, MacStation, Packets
from vrwifi.metrics import DeliveryLog, RunMetrics, TxRecord, vf_delay
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
        self.ap = self.client = None   # MacStations, set by run()
        self.metrics = RunMetrics(duration_us=self.duration_us,
                                  warmup_us=self.warmup_us,
                                  buffer_capacity=cfg.mac.ap_buffer)
        # each station's deliveries, and the time and size of each drop
        # of the AP queue at an exchange end (delivered plus dropped)
        self.ap_log, self.client_log = DeliveryLog(), DeliveryLog()
        self.ap_end_us: list[float] = []
        self.ap_end_n: list[int] = []
        self.airtime_cache: dict = {}   # (bytes, mpdus, rts_cts) -> us
        # pre-computed timing constants
        m = cfg.mac
        self.slot = m.slot_us
        self.aifs = m.aifs_us
        self.back_air = phy_mod.back_airtime(cfg.phy)
        self.collision_busy = (phy_mod.rts_airtime(cfg.phy) + m.sifs_us
                               + phy_mod.cts_airtime(cfg.phy))

    # -- contention -----------------------------------------------------

    def arm(self, st: MacStation) -> None:
        """Set the station's backoff expiry: inf on an empty buffer;
        otherwise AIFS starts now unless it is running, and a backoff is
        drawn unless slots are left over."""
        if not st.buffer:
            st.expiry_us = math.inf
            return
        if st.aifs_end_us is None:
            st.aifs_end_us = self.now + self.aifs
        if st.slots_left is None:
            if self.cfg.mac.cw_policy == "retry":
                st.cw = mac_mod.cw_for_retry(
                    st, self.packets.retx_count[st.buffer[0]])
            st.slots_left = st.drawn_slots = mac_mod.draw_backoff(st, self.rng)
            st.snapshot_len = len(st.buffer)
        st.expiry_us = st.aifs_end_us + st.slots_left * self.slot

    def resolve(self) -> None:
        """On an idle channel, arm the AP, then the client, and make the
        earlier expiry the pending event."""
        self.arm(self.ap)
        self.arm(self.client)
        self.wake_us = min(self.ap.expiry_us, self.client.expiry_us)

    # -- channel accounting ----------------------------------------------

    def add_airtime(self, start: float, end: float) -> None:
        a, b = max(start, self.warmup_us), min(end, self.duration_us)
        if b > a:
            self.metrics.airtime_busy_us += b - a

    def queue_statistics(self, arrive_us: np.ndarray) -> None:
        """The AP queue's length integral and busy time over the measured
        window, from its admitted arrival times (in time order).

        The queue grows by one at each admitted arrival and shrinks at
        each AP exchange end by the packets delivered or dropped;
        arrivals come first at equal times. Each interval between two
        changes (the last one ends at the end of the run), clipped to
        [warm-up, duration], that is not empty and has packets queued
        adds its length to the busy time and its length times the queue
        length to the integral. The sums run in event order with
        np.cumsum, a sequential add, so they equal a running sum in the
        loop bit for bit; the empty-queue intervals it skips would add
        +0.0.
        """
        end_us = np.array(self.ap_end_us)
        # each exchange end's place among the changes: after the arrivals
        # up to its time and the ends before it
        at = (np.searchsorted(arrive_us, end_us, side="right")
              + np.arange(len(end_us)))
        is_end = np.zeros(len(arrive_us) + len(end_us), dtype=bool)
        is_end[at] = True
        t = np.empty(len(is_end))
        t[is_end] = end_us
        t[~is_end] = arrive_us
        level = np.ones(len(t), dtype=np.int64)
        level[at] = -np.array(self.ap_end_n, dtype=np.int64)
        del end_us, at, is_end
        np.cumsum(level, out=level)   # the queue length after each change
        length = np.append(t[1:], self.duration_us)
        np.minimum(length, self.duration_us, out=length)
        np.maximum(t, self.warmup_us, out=t)
        length -= t
        del t
        counted = (length > 0) & (level > 0)
        length, level = length[counted], level[counted]
        m = self.metrics
        m.buffer_busy_us = float(np.cumsum(length)[-1]) if len(length) else 0.0
        length *= level
        m.buffer_level_integral = (float(np.cumsum(length)[-1])
                                   if len(length) else 0.0)

    # -- event handlers ---------------------------------------------------

    def on_access(self) -> None:
        """A backoff expires now: the pair's contention rule (module
        docstring) picks who transmits."""
        ap, client = self.ap, self.client
        if ap.expiry_us == client.expiry_us and self.cfg.mac.collisions_enabled:
            self.start_collision()
            return
        st, other = ((ap, client) if ap.expiry_us <= client.expiry_us
                     else (client, ap))
        if other.buffer:
            elapsed = self.now - other.aifs_end_us
            if elapsed > 0:
                other.slots_left = max(
                    0, other.slots_left - int(elapsed / self.slot + 1e-9))
            other.aifs_end_us = None
        self.start_exchange(st)

    def start_collision(self) -> None:
        for st in (self.ap, self.client):
            mac_mod.note_exchange_failure(st)
            st.slots_left = st.aifs_end_us = None
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
        # uplink aggregates stay out of ampdu_sizes
        if st is self.ap and self.now >= self.warmup_us:
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
            TxRecord(st.role, self.now, end, len(ampdu), st.drawn_slots))
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
        if st is self.ap and (delivered or dropped):
            self.ap_end_us.append(self.now)
            self.ap_end_n.append(len(delivered) + len(dropped))
        if delivered:
            if self.cfg.mac.delivery_stamp == "back_end":
                stamp = self.now
            else:
                stamp = self.now - self.cfg.mac.sifs_us - self.back_air
            log = self.ap_log if st is self.ap else self.client_log
            log.ids += delivered
            log.stamps.append(stamp)
            log.counts.append(len(delivered))
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

    def arrivals(self, frames: VideoTraffic) -> tuple:
        """Each station's packet arrivals as a time-ordered list of times,
        ending in an inf sentinel, and a parallel list of packet ids (AP,
        then client); every packet's arrival time by id; and the run's
        Packets columns. Video emitted at or after the end is left out of
        the AP's lists. The numpy temporaries are freed on return, before
        the loop runs."""
        cfg = self.cfg
        video = traffic_mod.video_packet_emissions(frames, cfg.traffic)
        sizes = frames.packet_bytes
        n_video = len(sizes)
        ul_times = np.zeros(0)
        if cfg.traffic.ul_enabled:
            ul_times = traffic_mod.ul_controller_stream(cfg.traffic,
                                                        cfg.duration_s)
            sizes = sizes + [cfg.traffic.ul_packet_size_bytes] * len(ul_times)
        arrival_us = np.empty(len(sizes))
        arrival_us[video.packet_ids] = video.times_us
        arrival_us[n_video:] = ul_times
        cut = int(np.searchsorted(video.times_us, self.duration_us))
        ap_times = video.times_us[:cut].tolist()
        ap_times.append(math.inf)
        client_times = ul_times.tolist()
        client_times.append(math.inf)
        return ((ap_times, video.packet_ids[:cut].tolist()),
                (client_times, list(range(n_video, len(sizes)))),
                arrival_us, Packets.of_sizes(sizes))

    def run(self) -> RunResult:
        cfg = self.cfg
        frames = traffic_mod.generate_video_frames(
            cfg.traffic, self.rng, cfg.duration_s)
        ((ap_times, ap_ids), (ul_times, ul_ids), arrival_us,
         self.packets) = self.arrivals(frames)
        ap = self.ap = mac_mod.make_station(AP, cfg.mac, self.packets)
        client = self.client = mac_mod.make_station(CLIENT, cfg.mac,
                                                    self.packets)
        enqueue = mac_mod.enqueue
        duration_us = self.duration_us
        inf = math.inf
        a = u = 0   # arrivals handled so far, AP and client
        # [first dropped, end of span, ...] for each AP span with drops
        ap_drops = []
        now = self.now
        while True:
            wake = self.wake_us
            limit = wake if wake < duration_us else duration_us
            if self.in_flight is None:
                # an arrival that backlogs an empty station is admitted
                # alone, earliest first and video first at ties, and
                # resolved: it may bring the runtime event forward
                t_ap = inf if ap.buffer else ap_times[a]
                t_ul = inf if client.buffer else ul_times[u]
                t = t_ap if t_ap <= t_ul else t_ul
                if t <= limit:
                    assert t >= now - 1e-6, "virtual clock went backwards"
                    if t > now:
                        now = t
                    # an empty buffer has room: capacities are at least 1
                    if t_ap <= t_ul:
                        enqueue(ap, ap_ids[a:a + 1])
                        a += 1
                    else:
                        enqueue(client, ul_ids[u:u + 1])
                        u += 1
                    self.now = now
                    self.resolve()
                    continue
            # the rest of each station's arrivals up to the event, and
            # those at its time: an uplink packet at t == end still
            # enters, and leaving it out moves digests
            end = bisect_right(ap_times, limit, a)
            if end > a:
                taken = enqueue(ap, ap_ids[a:end])
                if a + taken < end:
                    ap_drops += (a + taken, end)
                a = end
            end = bisect_right(ul_times, limit, u)
            if end > u:
                enqueue(client, ul_ids[u:end])
                u = end
            if wake > duration_us:
                break
            assert wake >= now - 1e-6, "virtual clock went backwards"
            if wake > now:
                now = wake
            self.now = now
            self.wake_us = inf
            if self.in_flight is not None:
                self.on_end()
            else:
                self.on_access()

        m = self.metrics
        m.generated_video, m.generated_ul = a, u
        n_video = len(frames.packet_bytes)
        # the AP's admitted arrivals: each span's prefix up to its drops
        bounds = [0, *ap_drops, a]
        admitted = np.repeat(np.resize([True, False], len(bounds) - 1),
                             np.diff(bounds))
        # each del frees loop state before the next numpy pass: the
        # after-loop accounting must not raise a run's peak memory
        del ap_times[a:], ap_ids[a:], ul_times, ul_ids
        arrive_us = np.array(ap_times)[admitted]
        del ap_times
        if self.keep_packets:
            enqueue_us = np.full(n_video, np.nan)
            enqueue_us[np.array(ap_ids)[admitted]] = arrive_us
        del ap_ids, admitted
        self.queue_statistics(arrive_us)
        del arrive_us
        m.delivered_video = len(self.ap_log.ids)
        m.delivered_ul = len(self.client_log.ids)
        delivery_us = np.full(len(arrival_us), np.nan)
        m.record_delivery(self.ap_log, arrival_us, delivery_us, False)
        m.record_delivery(self.client_log, arrival_us, delivery_us, True)
        del self.ap_log, self.client_log, arrival_us
        delivery_us = delivery_us[:n_video]
        self.finalize_frames(frames, delivery_us)
        kept = None
        if self.keep_packets:
            kept = dataclasses.replace(
                frames, enqueue_us=enqueue_us, delivery_us=delivery_us,
                retx_count=self.packets.retx_count[:n_video])
        m.dropped_retx = ap.drops_retx + client.drops_retx
        m.dropped_buffer = ap.drops_buffer + client.drops_buffer
        in_flight_count = (len(self.in_flight[1].mpdus)
                           if isinstance(self.in_flight, tuple) else 0)
        m.residual = len(ap.buffer) + len(client.buffer) + in_flight_count
        return RunResult(config_echo=cfg, seed=self.seed, metrics=m,
                         frames=kept)

    def finalize_frames(self, frames: VideoTraffic,
                        delivery_us: np.ndarray) -> None:
        """Frame-level delays for every fully delivered post-warm-up
        frame, in frame order, from each video packet's delivery time
        (NaN if undelivered)."""
        has_packets = frames.frame_packets > 0
        n_pk = frames.frame_packets[has_packets]
        starts = np.cumsum(n_pk) - n_pk
        last = np.maximum.reduceat(delivery_us, starts)
        first = np.minimum.reduceat(delivery_us, starts)
        measured = frames.frame_gen_us[has_packets] >= self.warmup_us
        done = measured & ~np.isnan(last)
        m = self.metrics
        m.incomplete_frames = int(np.count_nonzero(measured)
                                  - np.count_nonzero(done))
        m.assembly_delays_us.frombytes((last - first)[done].tobytes())
        rows = np.repeat(done, n_pk)
        n_pk = n_pk[done]
        m.vf_delays_us.frombytes(vf_delay(frames.packet_gen_us[rows],
                                          delivery_us[rows],
                                          np.cumsum(n_pk) - n_pk).tobytes())


def run_simulation(cfg: SimConfig, seed: int,
                   keep_packets: bool = False) -> RunResult:
    """Simulate cfg.duration_s of virtual time under one seed."""
    validate_config(cfg)
    return _Sim(cfg, seed, keep_packets).run()


def run_seeds(cfg: SimConfig, jobs: int = 1) -> list[RunResult]:
    """cfg.runs independent runs; run i uses seed cfg.seed + i."""
    with run_tasks(_worker, [(cfg, cfg.seed + i) for i in range(cfg.runs)],
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
    """Cartesian product of values x seeds, keyed by (value, seed). An
    equal value listed again runs once, under the key listed first.

    Every run is independent; execution order (or parallelism) cannot
    change any individual result.
    """
    cfgs = {value: set_axis(base, axis, value) for value in values}
    keys = [(value, seed) for value in cfgs for seed in seeds]
    with run_tasks(_worker, [(cfgs[v], seed) for v, seed in keys],
                   jobs) as results:
        return dict(zip(keys, results))


def _worker(task) -> RunResult:
    cfg, seed = task
    return run_simulation(cfg, seed)


@contextmanager
def run_tasks(fn, tasks: list, jobs: int):
    """Yield an iterator over fn(task) for each task, in task order; fn
    is a module-level function, such as _worker for (cfg, seed) tasks.

    With jobs > 1 and more than one task, min(jobs, len(tasks)) worker
    processes start on entry and work through every task while the
    caller's block runs; leaving the block early cancels the tasks still
    waiting for a worker. Otherwise each task runs in this process as
    the iterator reaches it.
    """
    if jobs <= 1 or len(tasks) <= 1:
        yield map(fn, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        yield pool.map(fn, tasks)
    finally:
        pool.shutdown(cancel_futures=True)
