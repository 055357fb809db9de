"""The benchmark's workloads: seeded inputs, the vrwifi command each one
runs, and the check of that command's outputs.

Every input (YAML configs and the synthetic capture) is generated here
from the workload seed; the program only ever sees those files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Input sizes. "full" is what the benchmark measures; "tiny" only proves
# that every code path of the benchmark runs (smoke test).
SIZES = {
    "full": {"sim_runs": 10, "sim_duration_s": 10.0,
             "sweep_runs": 2, "sweep_duration_s": 10.0,
             "capture_s": 30.0},
    "tiny": {"sim_runs": 2, "sim_duration_s": 1.0,
             "sweep_runs": 1, "sweep_duration_s": 1.0,
             "capture_s": 3.0},
}

SWEEP_VALUES = "0.0,0.1,0.2"

# ground-truth stream labels the analyzer must assign (vrwifi.traceio names)
VIDEO, AUDIO, STUN = "SRTP-video", "SRTP-audio", "STUN"
SRTCP, DTLS, GENERIC = "SRTCP", "DTLS", "generic-UDP"

TSHARK_HEADER = ["frame.time_epoch", "frame.len", "udp.srcport",
                 "udp.dstport", "rtp.p_type", "rtp.ssrc", "rtp.timestamp",
                 "rtp.marker", "_ws.col.protocol"]


@dataclass
class Prepared:
    """Generated inputs of one workload at one seed."""

    argv: list                  # vrwifi arguments before --output
    truth: dict                 # what check() compares the outputs with


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_yaml(path: Path, sections: dict) -> str:
    path.write_text(yaml.safe_dump(sections, sort_keys=False),
                    encoding="utf-8")
    return str(path)


# -- simulate-paper --------------------------------------------------------

def prepare_simulate(workdir: Path, seed: int, size: dict) -> Prepared:
    """The paper's operating point: 90 fps, 50 Mbps, tau 5.56 ms,
    MCS 11 / 80 MHz / 2 SS, PER 0.1."""
    cfg = _write_yaml(workdir / "simulate.yaml", {
        "phy": {"mcs_index": 11, "channel_width_mhz": 80,
                "spatial_streams": 2},
        "mac": {"per": 0.1},
        "traffic": {"fps": 90.0, "bitrate_bps": 50000000.0,
                    "inter_batch_time_ms": 5.56},
        "sim": {"duration_s": size["sim_duration_s"],
                "runs": size["sim_runs"], "seed": seed},
    })
    return Prepared(["simulate", "--config", cfg, "--jobs", "2"],
                    {"runs": size["sim_runs"], "seed": seed})


def check_simulate(out: Path, prep: Prepared) -> tuple[list, int, dict]:
    """Returns (errors, simulated packets, virtual-time statistics)."""
    errors = []
    summary = json.loads((out / "summary.json").read_text())
    runs, seed = prep.truth["runs"], prep.truth["seed"]
    if summary["seeds"] != list(range(seed, seed + runs)):
        errors.append(f"seeds {summary['seeds']} != {runs} from {seed}")
    generated = 0
    for i, run in enumerate(summary["per_run"]):
        cons = run["conservation"]
        if cons["generated"] != cons["accounted"]:
            errors.append(f"run {i}: generated {cons['generated']} != "
                          f"accounted {cons['accounted']}")
        generated += cons["generated"]
    for name in summary["outputs"]:
        if not (out / name).is_file():
            errors.append(f"missing output {name}")
    pooled = summary["pooled"]
    stats = _virtual_stats(pooled)
    stats["drops"] = sum(r["drops"]["buffer"] + r["drops"]["retx"]
                         for r in summary["per_run"])
    return errors, generated, stats


def _virtual_stats(pooled: dict) -> dict:
    dl, ampdu = pooled["dl_packet_delay_ms"], pooled["ampdu_size"]
    return {"dl_delay_mean_ms": dl["mean"] if dl else None,
            "dl_delay_p99_99_ms": dl["p99_99"] if dl else None,
            "ampdu_mean": ampdu["mean"] if ampdu else None,
            "airtime_fraction": pooled["airtime_fraction_mean"]}


# -- sweep-congested -------------------------------------------------------

def prepare_sweep(workdir: Path, seed: int, size: dict) -> Prepared:
    """MCS 0, otherwise defaults: the channel is 81-89% busy and PER 0.2
    tips the AP queue into tail-drop overload."""
    cfg = _write_yaml(workdir / "sweep.yaml", {
        "phy": {"mcs_index": 0},
        "sim": {"duration_s": size["sweep_duration_s"],
                "runs": size["sweep_runs"], "seed": seed},
    })
    return Prepared(["sweep", "--config", cfg, "--axis", "per",
                     "--values", SWEEP_VALUES, "--jobs", "1"],
                    {"runs": size["sweep_runs"], "seed": seed,
                     "duration_s": size["sweep_duration_s"]})


def generated_packets(duration_s: float, seed: int) -> int:
    """Packets one run at the default traffic config generates: video
    packets emitted before the end plus every uplink packet.

    sweep.json carries no conservation block, so the count is rebuilt
    from the traffic model with the run's RNG; the traced run checks it
    against the engine's own counters.
    """
    from vrwifi import traffic
    from vrwifi.config import TrafficConfig
    cfg = TrafficConfig()
    frames = traffic.generate_video_frames(cfg, np.random.default_rng(seed),
                                           duration_s)
    video = sum(1 for t, _ in traffic.video_packet_emissions(frames, cfg)
                if t < duration_s * 1e6)
    return video + len(traffic.ul_controller_stream(cfg, duration_s))


def check_sweep(out: Path, prep: Prepared) -> tuple[list, int, dict]:
    errors = []
    sweep = json.loads((out / "sweep.json").read_text())
    values = [float(v) for v in SWEEP_VALUES.split(",")]
    runs, seed = prep.truth["runs"], prep.truth["seed"]
    seeds = list(range(seed, seed + runs))
    if sweep["values"] != values:
        errors.append(f"sweep values {sweep['values']} != {values}")
    if sweep["seeds"] != seeds:
        errors.append(f"sweep seeds {sweep['seeds']} != {seeds}")
    stats = {}
    for v in values:
        block = sweep["per_value"].get(str(v))
        if block is None or block["dl_packet_delay_ms"] is None:
            errors.append(f"sweep value {v} missing or empty")
            continue
        stats[str(v)] = _virtual_stats(block)
        stats[str(v)]["loss_rate"] = block["loss_rate"]
    with open(out / "sweep_table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if sorted((float(r[0]), int(r[1])) for r in rows) != sorted(
            (v, s) for v in values for s in seeds):
        errors.append("sweep_table.csv rows do not cover values x seeds")
    generated = len(values) * sum(
        generated_packets(prep.truth["duration_s"], s) for s in seeds)
    return errors, generated, stats


# -- analyze-capture -------------------------------------------------------

def _periodic(rng, t0: float, end: float, gap_lo: float, gap_hi: float):
    t = t0
    while t < end:
        yield t
        t += rng.uniform(gap_lo, gap_hi)


def write_capture(path: Path, seed: int, capture_s: float) -> dict:
    """Synthetic tshark-named UDP capture of one WebRTC VR session.

    - one BUNDLE flow with an RTP video SSRC (90 fps, 50 Mbps, 1-2 paced
      batches 5.56 ms apart per frame) and an RTP audio SSRC (20 ms);
    - STUN, SRTCP, DTLS and a generic flow with empty RTP and protocol
      columns, so that the analyzer's size/periodicity heuristics label
      them.
    Returns the ground truth: rows per label, video frames, total rows.
    """
    rng = np.random.default_rng(seed)
    epoch = 1.7e9 + float(rng.integers(0, 10**6))
    rows = []   # (time, length, sport, dport, pt, ssrc, rtp_ts, marker, proto)
    counts = {VIDEO: 0, AUDIO: 0, STUN: 0, SRTCP: 0, DTLS: 0, GENERIC: 0}

    video_ssrc, audio_ssrc = (int(x) for x in rng.integers(1, 2**31, 2))
    ts0 = int(rng.integers(0, 2**31))
    period, frame_bytes, pkt = 1 / 90, math.ceil(50e6 / 90 / 8), 1243
    n_frames = int(capture_s * 90)
    for k in range(n_frames):
        gen = k * period + rng.uniform(0.0, 3e-4)
        n_batches = int(rng.integers(1, 3))
        base, rem = divmod(frame_bytes, n_batches)
        rtp_ts = ts0 + round(k * period * 90_000)
        for b in range(n_batches):
            batch_bytes = base + (1 if b >= n_batches - rem else 0)
            n_pk = math.ceil(batch_bytes / pkt)
            t = gen + b * 5.56e-3
            for j in range(n_pk):
                length = (pkt if j < n_pk - 1
                          else batch_bytes - (n_pk - 1) * pkt)
                last = b == n_batches - 1 and j == n_pk - 1
                rows.append((t, length, 50000, 5004, 96, video_ssrc, rtp_ts,
                             1 if last else 0, "RTP"))
                t += rng.uniform(10e-6, 16e-6)
    counts[VIDEO] = len(rows)

    audio_ts = int(rng.integers(0, 2**31))
    for i, t in enumerate(_periodic(rng, rng.uniform(0, 0.02), capture_s,
                                    0.0195, 0.0205)):
        rows.append((t, int(rng.integers(90, 161)), 50000, 5004, 111,
                     audio_ssrc, audio_ts + 960 * i, 0, "RTP"))
        counts[AUDIO] += 1
    for label, ports, gap, size in (
        (STUN, (50002, 3478), (0.95, 1.05), (80, 121)),
        (SRTCP, (50003, 5005), (0.050, 0.080), (300, 421)),
        (DTLS, (50001, 5006), (0.00416, 0.00516), (150, 201)),
        (GENERIC, (50004, 9000), (0.025, 0.035), (1000, 1401)),
    ):
        for t in _periodic(rng, rng.uniform(0, 0.2), capture_s, *gap):
            rows.append((t, int(rng.integers(*size)), *ports,
                         None, None, None, None, None))
            counts[label] += 1

    rows.sort(key=lambda r: r[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TSHARK_HEADER)
        for t, length, sport, dport, pt, ssrc, rtp_ts, marker, proto in rows:
            writer.writerow([f"{epoch + t:.6f}", length, sport, dport,
                             "" if pt is None else pt,
                             "" if ssrc is None else ssrc,
                             "" if rtp_ts is None else rtp_ts,
                             "" if marker is None else marker,
                             proto or ""])
    return {"streams": counts, "frames": n_frames, "rows": len(rows)}


def prepare_analyze(workdir: Path, seed: int, size: dict) -> Prepared:
    capture = workdir / "capture.csv"
    truth = write_capture(capture, seed, size["capture_s"])
    return Prepared(["analyze", str(capture), "--frames"], truth)


def check_analyze(out: Path, prep: Prepared) -> tuple[list, int, dict]:
    errors = []
    report = json.loads((out / "analysis.json").read_text())
    truth = prep.truth
    if report["records"] != truth["rows"] or report["skipped_rows"] != 0:
        errors.append(f"records {report['records']} (skipped "
                      f"{report['skipped_rows']}) != {truth['rows']}")
    streams = {label: s["packet_count"]
               for label, s in report["streams"].items()}
    if streams != truth["streams"]:
        errors.append(f"stream labels {streams} != {truth['streams']}")
    frames = (report["frames"] or {}).get("n_frames")
    if frames != truth["frames"]:
        errors.append(f"frames {frames} != {truth['frames']}")
    stats = {"n_frames": frames,
             "video_jitter_ms": report["trace_metrics"].get("video_jitter_ms")}
    return errors, report["records"], stats


@dataclass(frozen=True)
class Workload:
    prepare: object     # (workdir, seed, size) -> Prepared
    check: object       # (output dir, Prepared) -> (errors, work, stats)
    unit: str           # what check()'s work count counts


WORKLOADS = {
    "simulate-paper": Workload(prepare_simulate, check_simulate,
                               "simulated packets"),
    "sweep-congested": Workload(prepare_sweep, check_sweep,
                                "simulated packets"),
    "analyze-capture": Workload(prepare_analyze, check_analyze,
                                "trace rows"),
}


def single_process_argv(argv: list) -> list:
    """The same command with --jobs 1, so every span lands in one process."""
    if "--jobs" not in argv:
        return list(argv)
    i = argv.index("--jobs")
    return argv[:i + 1] + ["1"] + argv[i + 2:]
