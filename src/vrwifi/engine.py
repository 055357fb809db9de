"""Discrete-event simulation core: virtual clock, channel contention
between the AP (downlink video) and the client (uplink controller
traffic), and sweep orchestration across seeds.

Event ordering contract (what makes a run replay bit-identically):

- Every traffic draw comes before the first MAC draw (all frames' batch
  counts are drawn in one call when the run starts), which lets mac.Draws
  read the MAC's draws ahead from the run's one PCG64 stream, a block at
  a time, and give the unread rest back after the loop. The video packets
  are then built a window of frames at a time as the loop reaches them
  (traffic.VideoWindows), and each window's emissions are merged in time
  order with those of earlier windows still to come. Each station walks
  a time-ordered list of arrival times and packet ids with a cursor.
- At most one runtime event is pending, at `_Sim.wake_us`: while the
  channel is busy, the end of the busy period; while it is idle, the
  earlier of the two stations' backoff expiries (none if neither is
  backlogged), and a new earlier expiry replaces it. `on_access` takes
  the channel from idle to busy and `on_end` from busy to idle, and
  each sets the next pending event, so no event is ever stale.
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
- The loop only records what the statistics need: the AP arrivals'
  times by id and the ids it tail-dropped, the time and size of each AP
  queue drop at an exchange end, and each exchange's delivered ids and
  stamp. After the loop the AP queue integral and busy time are summed
  from those records in event order (arrivals first at equal times),
  with the same sequential floating-point additions as a running sum,
  and the delay samples and delivery times are built per stream; these
  passes take a block of rows at a time (metrics.BLOCK).

Packet state is columnar: a packet is an integer id into its station's
columns, video packets in packet_id order at the AP and uplink packets
in time order at the client. Station buffers and A-MPDUs hold ids; the
per-packet values a run keeps for its whole length (sizes and retry
counts in mac.Packets, video arrival times, delivered ids) take 8 bytes
a packet each, and a packet's enqueue time is its arrival time. The
frame delays come from the delivery column and each frame's packet
count and first packet time, recorded as its window is reached. A kept
run packetizes its drawn frames again, whole, after the loop, and
returns them with the enqueue and delivery times and retry counts.

One PCG64 stream per run keeps every run reproducible and independent of
any other.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from vrwifi import mac as mac_mod
from vrwifi import phy as phy_mod
from vrwifi import traffic as traffic_mod
from vrwifi.config import SimConfig, validate_config
from vrwifi.mac import AP, CLIENT, MacStation, Packets
from vrwifi.metrics import BLOCK, DeliveryLog, RunMetrics, TxRecord, vf_delay
from vrwifi.traffic import VideoTraffic

SWEEP_AXES = {
    "fps": ("traffic", "fps"),
    "inter_batch_time": ("traffic", "inter_batch_time_ms"),
    "bitrate": ("traffic", "bitrate_bps"),
    "mcs_index": ("phy", "mcs_index"),
    "per": ("mac", "per"),
}

# virtual seconds of video a run packetizes at a time, as the loop reaches it
WINDOW_S = 1.0


@dataclass
class RunResult:
    config_echo: SimConfig
    seed: int
    metrics: RunMetrics
    # with keep_packets, the run's video rebuilt after the loop, with its
    # packets' enqueue and delivery times and retry counts
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
        self.ap = self.client = None   # MacStations, set by run()
        # per frame, as reached: packet count, first packet's generation time
        self.frame_packets, self.first_gen_us = array("q"), array("d")
        self.metrics = RunMetrics(duration_us=self.duration_us,
                                  warmup_us=self.warmup_us,
                                  buffer_capacity=cfg.mac.ap_buffer)
        # each station's deliveries, and the time and size of each drop
        # of the AP queue at an exchange end (delivered plus dropped)
        self.ap_log, self.client_log = DeliveryLog(), DeliveryLog()
        self.ap_end_us, self.ap_end_n = array("d"), array("q")
        # exchange airtime (us) by (bytes, mpdus, rts_cts), computed once
        self.airtime = functools.cache(
            lambda total_bytes, n_mpdus, rts_cts: phy_mod.exchange_airtime(
                total_bytes, n_mpdus, cfg.phy, cfg.mac, rts_cts))
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
                    st, st.packets.retx_count[st.buffer[0]])
            st.slots_left = st.drawn_slots = mac_mod.draw_backoff(
                st, self.draws)
            st.snapshot_len = len(st.buffer)
        st.expiry_us = st.aifs_end_us + st.slots_left * self.slot

    def resolve(self) -> None:
        """On an idle channel, arm the AP, then the client, and make the
        earlier expiry the pending event."""
        self.arm(self.ap)
        self.arm(self.client)
        self.wake_us = min(self.ap.expiry_us, self.client.expiry_us)

    # -- channel accounting ----------------------------------------------

    def queue_statistics(self, enqueue_us: np.ndarray) -> None:
        """The AP queue's length integral and busy time over the measured
        window, from the enqueue column (by packet id, NaN for a packet
        never admitted).

        The queue grows by one at each admitted arrival and shrinks at
        each AP exchange end by the packets delivered or dropped;
        arrivals come first at equal times. Each interval between two
        changes (the last one ends at the end of the run), clipped to
        [warm-up, duration], that is not empty and has packets queued
        adds its length to the busy time and its length times the queue
        length to the integral; the other intervals add +0.0. The changes
        go in blocks: BLOCK arrivals and the exchange ends before the next
        block's first arrival, in time order by one stable sort. Each
        block's sums are np.cumsum'ed (a sequential add) on from the last
        block's, so they equal a running sum in the loop bit for bit.
        """
        arrive_us = enqueue_us[~np.isnan(enqueue_us)]
        # equal times are equal values, so any sort gives the time order
        arrive_us.sort()
        end_us = np.frombuffer(self.ap_end_us)
        end_n = np.frombuffer(self.ap_end_n, dtype=np.int64)
        # a block's ends are those before the next block's first arrival:
        # an end at that arrival's time follows it
        cut = [0, *np.searchsorted(end_us, arrive_us[BLOCK::BLOCK]).tolist(),
               len(end_us)]
        busy = integral = level = 0.0   # running sums, queue length
        for a0, e0, e1 in zip(range(0, len(arrive_us), BLOCK), cut, cut[1:]):
            arrivals = arrive_us[a0:a0 + BLOCK]
            # the block's changes, arrivals first at equal times, then the
            # next change's time (the end of the run after the last block)
            t = np.concatenate((arrivals, end_us[e0:e1]))
            order = np.argsort(t, kind="stable")
            t = np.append(t[order], arrive_us[a0 + BLOCK]
                          if a0 + BLOCK < len(arrive_us) else self.duration_us)
            # the queue length after each change, as floats (exact)
            queued = np.concatenate((np.ones(len(arrivals)),
                                     -end_n[e0:e1]))[order]
            queued[0] += level
            np.cumsum(queued, out=queued)
            level = queued[-1]
            # clipped to the window, an interval runs from one change to
            # the next; one clipped to nothing has length 0 or less
            np.clip(t, self.warmup_us, self.duration_us, out=t)
            length = np.diff(t)
            length[(length <= 0) | (queued <= 0)] = 0.0
            queued *= length
            queued[0] += integral
            integral = np.cumsum(queued, out=queued)[-1]
            length[0] += busy
            busy = np.cumsum(length, out=length)[-1]
        self.metrics.buffer_busy_us = float(busy)
        self.metrics.buffer_level_integral = float(integral)

    # -- event handlers ---------------------------------------------------

    def on_access(self) -> None:
        """A backoff expires on the idle channel: the contention rule picks
        who transmits, or both collide. The busy period that starts adds
        its airtime, is logged, and its end is the pending event."""
        ap, client, now, m = self.ap, self.client, self.now, self.cfg.mac
        if ap.expiry_us == client.expiry_us and m.collisions_enabled:
            for st in (ap, client):
                mac_mod.note_exchange_failure(st)
                st.slots_left = st.aifs_end_us = None
            if now >= self.warmup_us:
                self.metrics.collisions += 1
            flight, end = "collision", now + self.collision_busy
            record = TxRecord("collision", now, end, 0, -1)
        else:
            st, other = ((ap, client) if ap.expiry_us <= client.expiry_us
                         else (client, ap))
            if other.buffer:
                elapsed = now - other.aifs_end_us
                if elapsed > 0:
                    other.slots_left = max(
                        0, other.slots_left - int(elapsed / self.slot + 1e-9))
                other.aifs_end_us = None
            ampdu = mac_mod.assemble_ampdu(
                st, m.max_ampdu, st.snapshot_len if m.ampdu_snapshot else None,
                m.max_ampdu_bytes)
            # uplink aggregates stay out of ampdu_sizes
            if st is ap and now >= self.warmup_us:
                self.metrics.record_attempt(ampdu)
            flight = (st, ampdu)
            end = now + self.airtime(ampdu.total_bytes, len(ampdu), st.rts_cts)
            st.slots_left = st.aifs_end_us = None
            record = TxRecord(st.role, now, end, len(ampdu), st.drawn_slots)
        busy = min(end, self.duration_us) - max(now, self.warmup_us)
        if busy > 0:
            self.metrics.airtime_busy_us += busy
        self.metrics.tx_log.append(record)
        self.in_flight = flight
        self.wake_us = end

    def on_end(self) -> None:
        flight, self.in_flight = self.in_flight, None
        if flight != "collision":
            st, ampdu = flight
            m = self.cfg.mac
            flags = mac_mod.apply_per(ampdu, m.per, self.draws)
            delivered, requeued, dropped = mac_mod.handle_back(
                st, ampdu, flags, m.max_retx)
            if st is self.ap and (delivered or dropped):
                self.ap_end_us.append(self.now)
                self.ap_end_n.append(len(delivered) + len(dropped))
            if delivered:
                if m.delivery_stamp == "back_end":
                    stamp = self.now
                else:
                    stamp = self.now - m.sifs_us - self.back_air
                log = self.ap_log if st is self.ap else self.client_log
                log.ids.fromlist(delivered)
                log.stamps.append(stamp)
                log.counts.append(len(delivered))
            if m.cw_policy != "retry":
                if not delivered or (m.cw_policy == "exchange_any"
                                     and (requeued or dropped)):
                    mac_mod.note_exchange_failure(st)
                else:
                    mac_mod.note_exchange_success(st)
        self.resolve()

    # -- main loop --------------------------------------------------------

    def video_arrivals(self, windows: traffic_mod.VideoWindows,
                       packets: Packets, arrival_us: array):
        """The AP's video arrivals before the end of the run, in time
        order and packet id order at equal times, a window of frames at a
        time: chunks (times, ids, horizon) of lists, where every arrival
        before `horizon` is in that chunk or an earlier one and every
        later one is at or after it (inf for the last chunk).

        Reaching a window adds its packets to `packets`, their emission
        times, by id, to `arrival_us` (NaN at or after the end), and its
        frames' packet counts and first packet times to the per-frame
        columns, and counts its arrivals as generated.
        """
        cfg = self.cfg.traffic
        # emissions of earlier windows at or after their chunk's horizon
        carry_times, carry_ids = np.zeros(0), np.zeros(0, dtype=np.int64)
        for frames, later_us in windows:
            n_pk = frames.frame_packets
            self.frame_packets.frombytes(n_pk.view(np.uint8))
            self.first_gen_us.frombytes(
                frames.packet_gen_us[np.cumsum(n_pk) - n_pk].view(np.uint8))
            em = traffic_mod.video_packet_emissions(frames, cfg)
            packets.extend(frames.packet_bytes)
            by_id = np.empty(len(em))
            by_id[em.packet_ids - frames.first_packet_id] = em.times_us
            by_id[by_id >= self.duration_us] = np.nan
            arrival_us.frombytes(by_id.view(np.uint8))
            times, ids = em.times_us, em.packet_ids
            del em, by_id
            # the carried emissions have the lower ids, so a stable sort on
            # time keeps ties in packet id order
            times = np.concatenate((carry_times, times))
            ids = np.concatenate((carry_ids, ids))
            order = np.argsort(times, kind="stable")
            times, ids = times[order], ids[order]
            del order
            k = int(np.searchsorted(times, min(later_us, self.duration_us)))
            self.metrics.generated_video += k
            yield times[:k].tolist(), ids[:k].tolist(), later_us
            carry_times, carry_ids = times[k:], ids[k:]

    @staticmethod
    def more_video(chunks, times: list, ids: list, a: int, until: float):
        """The AP's arrivals from `a` on, followed by further chunks of
        `chunks` until one's horizon is past `until` with at least one
        arrival held, or the chunks run out. Returns the new times (with
        their inf sentinel) and ids and the last chunk's horizon."""
        times, ids = times[a:-1], ids[a:]
        while True:
            chunk_times, chunk_ids, horizon = next(chunks)
            times += chunk_times
            ids += chunk_ids
            if (horizon > until and ids) or horizon == math.inf:
                times.append(math.inf)
                return times, ids, horizon

    def run(self) -> RunResult:
        cfg = self.cfg
        inf = math.inf
        windows = traffic_mod.video_windows(
            cfg.traffic, self.rng, cfg.duration_s,
            max(1, math.ceil(WINDOW_S * cfg.traffic.fps)))
        self.draws = mac_mod.Draws(self.rng)
        ul_times = np.zeros(0)
        if cfg.traffic.ul_enabled:
            ul_times = traffic_mod.ul_controller_stream(cfg.traffic,
                                                        cfg.duration_s)
        ap = self.ap = mac_mod.make_station(AP, cfg.mac, Packets.of_sizes(()))
        client = self.client = mac_mod.make_station(
            CLIENT, cfg.mac,
            Packets.of_sizes([cfg.traffic.ul_packet_size_bytes]
                             * len(ul_times)))
        # video arrival times by packet id; the chunks fill it
        arrival_us = array("d")
        chunks = self.video_arrivals(windows, ap.packets, arrival_us)
        # the AP's arrivals not yet handled are ap_times[a:], ending in an
        # inf sentinel; every arrival before `horizon` is among them
        ap_times, ap_ids, horizon = [inf], [], -inf
        # the client's arrivals, whose ids are their indices
        ul_arrive = ul_times.tolist()
        ul_arrive.append(inf)
        ul_ids = range(len(ul_times))
        ap_dropped = array("q")   # ids of AP arrivals tail-dropped
        enqueue = mac_mod.enqueue
        duration_us = self.duration_us
        a = u = 0   # arrivals handled so far, AP (from ap_times) and client
        now = self.now
        while True:
            wake = self.wake_us
            limit = wake if wake < duration_us else duration_us
            if self.in_flight is None:
                # an arrival that backlogs an empty station is admitted
                # alone, earliest first and video first at ties, and
                # resolved: it may bring the runtime event forward. The
                # AP's video is pulled here only until one arrival is held:
                # with nothing pending, `limit` is the run's end, and
                # pulling up to it would take the whole run's video at once
                if not ap.buffer and a == len(ap_ids) and horizon != inf:
                    ap_times, ap_ids, horizon = self.more_video(
                        chunks, ap_times, ap_ids, a, -inf)
                    a = 0
                t_ap = inf if ap.buffer else ap_times[a]
                t_ul = inf if client.buffer else ul_arrive[u]
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
            if limit >= horizon:
                ap_times, ap_ids, horizon = self.more_video(
                    chunks, ap_times, ap_ids, a, limit)
                a = 0
            end = bisect_right(ap_times, limit, a)
            if end > a:
                taken = enqueue(ap, ap_ids[a:end])
                if a + taken < end:
                    ap_dropped.fromlist(ap_ids[a + taken:end])
                a = end
            end = bisect_right(ul_arrive, limit, u)
            if end > u:
                enqueue(client, ul_ids[u:end])
                u = end
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

        self.draws.give_back()
        m = self.metrics
        m.generated_ul = u
        m.dropped_retx = ap.drops_retx + client.drops_retx
        m.dropped_buffer = ap.drops_buffer + client.drops_buffer
        in_flight_count = (len(self.in_flight[1].mpdus)
                           if isinstance(self.in_flight, tuple) else 0)
        m.residual = len(ap.buffer) + len(client.buffer) + in_flight_count
        retx_count = ap.packets.retx_count if self.keep_packets else None
        # the stations with their columns, and the loop state, go before
        # the numpy passes: the after-loop accounting must not raise a
        # run's peak memory
        self.ap = self.client = self.in_flight = self.draws = None
        del ap, client, chunks, ap_times, ap_ids, ul_arrive, ul_ids
        # the enqueue column: the arrival time of each admitted packet
        enqueue_us = np.frombuffer(arrival_us)
        del arrival_us
        enqueue_us[np.frombuffer(ap_dropped, dtype=np.int64)] = np.nan
        del ap_dropped
        self.queue_statistics(enqueue_us)
        m.delivered_video = len(self.ap_log.ids)
        m.delivered_ul = len(self.client_log.ids)
        delivery_us = np.full(len(enqueue_us), np.nan)
        m.record_delivery(self.ap_log, enqueue_us, delivery_us, False)
        del self.ap_log
        if not self.keep_packets:
            del enqueue_us
        m.record_delivery(self.client_log, ul_times,
                          np.full(len(ul_times), np.nan), True)
        del self.client_log, ul_times
        self.finalize_frames(windows.gen_us, delivery_us)
        kept = None
        if self.keep_packets:
            # the run's traffic, packetized again, whole, from its drawn frames
            ((frames, _),) = dataclasses.replace(windows, window_frames=None)
            kept = dataclasses.replace(
                frames, enqueue_us=enqueue_us, delivery_us=delivery_us,
                retx_count=np.frombuffer(retx_count, dtype=np.int64))
        return RunResult(config_echo=cfg, seed=self.seed, metrics=m,
                         frames=kept)

    def finalize_frames(self, frame_gen_us: np.ndarray,
                        delivery_us: np.ndarray) -> None:
        """Frame-level delays of every fully delivered post-warm-up frame,
        in frame order, from the per-frame columns (every frame has a
        packet) and each video packet's delivery time (NaN if none)."""
        n_pk = np.frombuffer(self.frame_packets, dtype=np.int64)
        starts = np.cumsum(n_pk) - n_pk
        last = np.maximum.reduceat(delivery_us, starts)
        first = np.minimum.reduceat(delivery_us, starts)
        measured = frame_gen_us >= self.warmup_us
        done = measured & ~np.isnan(last)
        m = self.metrics
        n_done = int(np.count_nonzero(done))
        m.incomplete_frames = int(np.count_nonzero(measured)) - n_done
        m.assembly_delays_us.frombytes((last - first)[done].view(np.uint8))
        # one row per frame: its first packet's time and its last delivery
        m.vf_delays_us.frombytes(vf_delay(
            np.frombuffer(self.first_gen_us)[done], last[done],
            np.arange(n_done)).view(np.uint8))


def run_simulation(cfg: SimConfig, seed: int,
                   keep_packets: bool = False) -> RunResult:
    """Simulate cfg.duration_s of virtual time under one seed."""
    validate_config(cfg)
    return _Sim(cfg, seed, keep_packets).run()


def run_seeds(cfg: SimConfig, jobs: int = 1) -> list[RunResult]:
    """cfg.runs independent runs; run i uses seed cfg.seed + i."""
    with run_tasks(run_simulation,
                   [(cfg, cfg.seed + i) for i in range(cfg.runs)],
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
    with run_tasks(run_simulation, [(cfgs[v], seed) for v, seed in keys],
                   jobs) as results:
        return dict(zip(keys, results))


@contextmanager
def run_tasks(fn, tasks: list, jobs: int):
    """Yield an iterator over fn(*task) for each task, in task order; fn
    is a module-level function, such as run_simulation.

    With jobs > 1 and more than one task, min(jobs, len(tasks)) worker
    processes start on entry and work through every task while the
    caller's block runs; leaving the block early cancels the tasks still
    waiting for a worker. Otherwise each task runs in this process as
    the iterator reaches it.
    """
    if jobs <= 1 or len(tasks) <= 1:
        yield starmap(fn, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        yield pool.map(fn, *zip(*tasks))
    finally:
        pool.shutdown(cancel_futures=True)
