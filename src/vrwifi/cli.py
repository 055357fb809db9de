"""Command-line front end: run simulations and sweeps, analyze traces,
and compare simulation output against trace analysis.

All outputs are machine-first (JSON summary + CSV dumps) and contain no
wall-clock timestamps, so identical inputs and seeds give byte-identical
files. Plot data is emitted for external tooling; nothing renders here.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from vrwifi import traceio
from vrwifi.config import (ConfigError, SimConfig, config_to_dict,
                           load_config, validate_config)
from vrwifi.engine import SWEEP_AXES, run_simulation, run_tasks, set_axis
from vrwifi.metrics import (RunMetrics, ecdf, metrics_summary, pooled_summary,
                            summarize)

OUTPUT_ENV = "VRWIFI_OUTPUT_DIR"
# skipped trace rows analyze names on stderr; the rest are only counted
MAX_SKIPPED_SHOWN = 20

# ITU-T style QoS thresholds for VR service verdicts
QOS_RTT_MS = 20.0
QOS_JITTER_MS = 15.0
QOS_LOSS_RATE = 1e-5


def _outdir(args) -> Path:
    out = args.output or os.environ.get(OUTPUT_ENV) or "vrwifi-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_cfg(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else validate_config(SimConfig())
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# sample dumps: RunMetrics attribute, file name, value column
SAMPLE_CSVS = (
    ("dl_packet_delays_us", "dl_delays.csv", "delay_us"),
    ("vf_delays_us", "vf_delays.csv", "delay_us"),
    ("ampdu_sizes", "ampdu_sizes.csv", "n_mpdus"),
)


def _run_task(task) -> tuple[RunMetrics, dict | None]:
    """One run of simulate or sweep, in a pool worker or in this process.
    Given a trace path, the run also writes its delivered trace there and
    returns the trace's metrics. Its metrics come back without the
    channel log."""
    cfg, seed, trace_path = task
    run = run_simulation(cfg, seed, keep_packets=trace_path is not None)
    m, trace_metrics = run.metrics, None
    if trace_path is not None:
        # delivered_trace rounds like the file, so analyze reads back this
        # very trace from sim_trace.csv; the packets are freed before both
        trace = traceio.delivered_trace(run.frames)
        del run
        traceio.write_trace(trace, trace_path)
        trace_metrics = traceio.analyze_video(trace).trace_metrics()
    return dataclasses.replace(m, tx_log=[]), trace_metrics


def cmd_simulate(args) -> int:
    try:
        cfg = _load_cfg(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = _outdir(args)
    seeds = [cfg.seed + i for i in range(cfg.runs)]
    runs, per_run, trace_metrics = [], [], None
    # the pool simulates every seed, the first exporting its trace, while
    # this process writes each run's samples as the run arrives
    tasks = [(cfg, s, outdir / "sim_trace.csv" if s == cfg.seed else None)
             for s in seeds]
    with (run_tasks(_run_task, tasks, args.jobs) as results,
          ExitStack() as files):
        dumps = []
        for attr, fname, header in SAMPLE_CSVS:
            fh = files.enter_context(
                open(outdir / fname, "w", newline="", encoding="utf-8"))
            fh.write(f"seed,{header}\r\n")
            dumps.append((attr, fh))
        for seed, (m, tm) in zip(seeds, results):
            # the bytes csv.writer writes (repr of a Python number, CRLF),
            # without its per-row cost
            for attr, fh in dumps:
                values = getattr(m, attr).tolist()
                if values:
                    fh.write(f"{seed}," + f"\r\n{seed},".join(
                        map(repr, values)) + "\r\n")
            per_run.append(metrics_summary(m))
            runs.append(m)
            if tm is not None:
                trace_metrics = tm

    pooled = pooled_summary(runs)
    loss_ok = pooled["loss_rate"] <= QOS_LOSS_RATE
    report = {
        "command": "simulate",
        "config": config_to_dict(cfg),
        "seeds": seeds,
        "per_run": per_run,
        "pooled": pooled,
        "trace_metrics": trace_metrics,
        "qos_verdicts": {
            "loss_rate": {"value": pooled["loss_rate"],
                          "threshold": QOS_LOSS_RATE, "pass": loss_ok},
        },
        "outputs": ["summary.json", "sim_trace.csv", "dl_delays.csv",
                    "vf_delays.csv", "ampdu_sizes.csv"],
    }
    _write_json(outdir / "summary.json", report)
    dl = pooled["dl_packet_delay_ms"]
    print(f"simulate: {cfg.runs} run(s) x {cfg.duration_s}s, "
          f"fps={cfg.traffic.fps:g}, tau={cfg.traffic.inter_batch_time_ms}ms")
    if dl:
        print(f"  mean DL packet delay {dl['mean']:.3f} ms "
              f"(p99.99 {dl['p99_99']:.3f} ms)")
    if pooled["vf_delay_ms"]:
        print(f"  mean VF delay {pooled['vf_delay_ms']['mean']:.3f} ms")
    if pooled["ampdu_size"]:
        print(f"  mean A-MPDU size {pooled['ampdu_size']['mean']:.2f} pkts")
    print(f"  airtime {pooled['airtime_fraction_mean']:.3f}, "
          f"buffer occupancy {pooled['buffer_occupancy_mean']:.3f}")
    print(f"  loss rate {pooled['loss_rate']:.2e} "
          f"({'PASS' if loss_ok else 'FAIL'} vs {QOS_LOSS_RATE:.0e})")
    print(f"  outputs in {outdir}")
    return 0


def _parse_value(axis: str, item: str):
    if axis == "mcs_index":
        try:
            return int(item)
        except ValueError:
            pass    # a float: config_errors' type rule names it
    return float(item)


def _parse_values(axis: str, text: str) -> list:
    if not text.strip():
        return []
    return [_parse_value(axis, item) for item in text.split(",")]


def cmd_sweep(args) -> int:
    try:
        cfg = _load_cfg(args)
        if args.axis not in SWEEP_AXES:
            raise ConfigError([f"unknown sweep axis '{args.axis}'"])
        values = _parse_values(args.axis, args.values)
        # every value's config is valid before any run; an equal value
        # listed again runs once, under the key listed first
        cfgs = {value: set_axis(cfg, args.axis, value) for value in values}
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = _outdir(args)
    seeds = [cfg.seed + i for i in range(cfg.runs)]
    keys = [(value, seed) for value in cfgs for seed in seeds]
    runs = {value: [] for value in cfgs}
    rows = []
    with run_tasks(_run_task, [(cfgs[v], seed, None) for v, seed in keys],
                   args.jobs) as results:
        for (value, seed), (m, _) in zip(keys, results):
            s = metrics_summary(m)
            dl, vf, ampdu = (s["dl_packet_delay_ms"], s["vf_delay_ms"],
                             s["ampdu_size"])
            rows.append([value, seed, dl["mean"] if dl else "",
                         dl["p99_99"] if dl else "", vf["mean"] if vf else "",
                         ampdu["mean"] if ampdu else "",
                         s["airtime_fraction"], s["buffer_occupancy"]])
            runs[value].append(m)
    per_value = {str(value): pooled_summary(runs[value]) for value in values}
    _write_csv(outdir / "sweep_table.csv",
               [args.axis, "seed", "dl_delay_mean_ms", "dl_delay_p99_99_ms",
                "vf_delay_mean_ms", "ampdu_mean", "airtime_fraction",
                "buffer_occupancy"], rows)
    report = {
        "command": "sweep",
        "axis": args.axis,
        "values": values,
        "seeds": seeds,
        "config": config_to_dict(cfg),
        "per_value": per_value,
        "outputs": ["sweep.json", "sweep_table.csv"],
    }
    _write_json(outdir / "sweep.json", report)
    print(f"sweep over {args.axis}: {values} x {len(seeds)} seed(s)")
    for value in values:
        p = per_value[str(value)]
        parts = [f"{args.axis}={value}:"]
        if p["dl_packet_delay_ms"]:
            parts.append(f"dl={p['dl_packet_delay_ms']['mean']:.3f} ms")
        if p["vf_delay_ms"]:
            parts.append(f"vf={p['vf_delay_ms']['mean']:.3f} ms")
        if p["ampdu_size"]:
            parts.append(f"ampdu={p['ampdu_size']['mean']:.2f}")
        parts.append(f"airtime={p['airtime_fraction_mean']:.3f}")
        print("  " + " ".join(parts))
    print(f"  outputs in {outdir}")
    return 0


def cmd_analyze(args) -> int:
    try:
        parsed = traceio.parse_trace(args.trace)
    except (traceio.TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = parsed.trace
    if not len(trace):
        print("error: trace contains no parseable records", file=sys.stderr)
        return 2
    outdir = _outdir(args)
    va = traceio.analyze_video(trace, args.gap_threshold)
    if args.frames and va.frames is None:
        print("error: --frames requires rtp_timestamp values on the video "
              "stream; this trace has none (batch-level analysis still "
              "available without --frames)", file=sys.stderr)
        return 2
    tm = va.metrics
    batch_block = frame_block = None
    if len(va.video):
        spacings = va.spacings_ms
        batch_block = {
            "n_batches": len(va.batches),
            "gap_threshold_ms": args.gap_threshold,
            "modal_spacing_ms": tm.batch_spacing_modal_ms,
            "spacing_mean_ms": (float(np.mean(spacings)) if len(spacings)
                                else None),
        }
    if va.frames is not None:
        delays = va.assembly_delays_ms
        frame_block = {
            "n_frames": len(va.frames),
            "frame_size_mean_bytes": tm.frame_size_mean_bytes,
            "inter_frame_time_mean_ms": tm.inter_frame_time_mean_ms,
            "fps_estimate": tm.fps_estimate,
            "batches_per_frame_mean": tm.batches_per_frame_mean,
            "assembly_delay_ms": summarize(delays) if delays else None,
        }

    jitter_ms = tm.video_jitter_ms
    qos = {}
    if jitter_ms is not None:
        qos["jitter_ms"] = {"value": jitter_ms, "threshold": QOS_JITTER_MS,
                            "pass": jitter_ms < QOS_JITTER_MS}
    qos["rtt_ms"] = {"value": None, "threshold": QOS_RTT_MS, "pass": None}
    qos["loss_rate"] = {"value": None, "threshold": QOS_LOSS_RATE,
                        "pass": None}

    groups = traceio.group_streams(trace, va.labels)
    summaries = traceio.stream_summaries(groups)
    for label, rows in groups.items():
        gaps = traceio.inter_packet_ms(rows)
        if len(gaps):
            safe = label.lower().replace("-", "_")
            xs, ps = ecdf(gaps)
            with open(outdir / f"ecdf_inter_packet_{safe}.csv", "w",
                      newline="", encoding="utf-8") as fh:
                # csv.writer's bytes (repr of a float, CRLF), without its
                # per-row cost
                fh.write("inter_packet_ms,probability\r\n")
                fh.writelines(f"{x!r},{p!r}\r\n"
                              for x, p in zip(xs.tolist(), ps.tolist()))

    report = {
        "command": "analyze",
        "trace": str(args.trace),
        "records": len(trace),
        "skipped_rows": len(parsed.skipped),
        "streams": {s.label: dataclasses.asdict(s) for s in summaries},
        "batches": batch_block,
        "frames": frame_block,
        "trace_metrics": va.trace_metrics(),
        "qos_verdicts": qos,
    }
    _write_json(outdir / "analysis.json", report)
    for line, reason in parsed.skipped[:MAX_SKIPPED_SHOWN]:
        print(f"line {line}: {reason}", file=sys.stderr)
    if len(parsed.skipped) > MAX_SKIPPED_SHOWN:
        print(f"... and {len(parsed.skipped) - MAX_SKIPPED_SHOWN} more",
              file=sys.stderr)
    print(f"analyze: {len(trace)} records "
          f"({len(parsed.skipped)} skipped rows)")
    for s in summaries:
        print(f"  {s.label:12s} n={s.packet_count:<7d} "
              f"mean {s.mean_packet_size:7.1f} B  "
              f"gap {s.mean_inter_packet_ms:8.2f} ms  "
              f"load {s.load_mbps:7.3f} Mbps")
    if batch_block and batch_block["modal_spacing_ms"] is not None:
        print(f"  modal batch spacing {batch_block['modal_spacing_ms']:.2f} ms")
    if frame_block:
        # one frame has no frame rate
        fps = "n/a" if tm.fps_estimate is None else f"{tm.fps_estimate:.2f}"
        print(f"  frames: {frame_block['n_frames']}, fps ~ {fps}, "
              f"mean size {frame_block['frame_size_mean_bytes']:.0f} B, "
              f"mean assembly {frame_block['assembly_delay_ms']['mean']:.2f} ms")
    if jitter_ms is not None:
        print(f"  video jitter {jitter_ms:.2f} ms "
              f"({'PASS' if jitter_ms < QOS_JITTER_MS else 'FAIL'} "
              f"vs {QOS_JITTER_MS:g} ms)")
    print(f"  outputs in {outdir}")
    return 0


COMPARE_KEYS = [f.name for f in dataclasses.fields(traceio.TraceMetrics)]


def _load_report(path: Path, fallback: str) -> tuple[Path, dict]:
    """The file read (path, or path/fallback for a directory) and the
    JSON object in it."""
    p = path / fallback if path.is_dir() else path
    with open(p, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p}: {exc}") from None
    if not isinstance(report, dict):
        raise ValueError(f"{p}: not a JSON object")
    return p, report


def _report_number(path: Path, report: dict, *keys: str) -> float | None:
    """report[keys[0]][keys[1]]... as a finite number; None when a key on
    the way is absent or null. path names the report in errors."""
    value = report
    for depth, key in enumerate(keys):
        if value is None:
            return None
        if not isinstance(value, dict):
            raise ValueError(
                f"{path}: {'.'.join(keys[:depth])} is not a JSON object")
        value = value.get(key)
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, (int, float))
                              or not math.isfinite(value)):
        raise ValueError(
            f"{path}: {'.'.join(keys)} must be a finite number, "
            f"not {value!r}")
    return value


def cmd_compare(args) -> int:
    try:
        sim_path, sim = _load_report(Path(args.sim), "summary.json")
        trace_path, trace = _load_report(Path(args.analysis), "analysis.json")
        pairs = [(key, _report_number(sim_path, sim, "trace_metrics", key),
                  _report_number(trace_path, trace, "trace_metrics", key))
                 for key in COMPARE_KEYS]
        pairs = [(key, a, b) for key, a, b in pairs
                 if a is not None or b is not None]
        # model-level vs trace-level frame completion delay
        a = _report_number(sim_path, sim, "pooled", "vf_delay_ms", "mean")
        b = _report_number(trace_path, trace, "trace_metrics",
                           "assembly_delay_mean_ms")
        if a is not None and b is not None:
            pairs.append(("vf_delay_mean_ms (sim) vs "
                          "assembly_delay_mean_ms (trace)", a, b))
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [{"metric": key, "sim": a, "trace": b,
             "rel_diff": (abs(a - b) / abs(b)
                          if a is not None and b not in (None, 0) else None)}
            for key, a, b in pairs]
    outdir = _outdir(args)
    report = {"command": "compare", "sim": str(args.sim),
              "analysis": str(args.analysis), "table": rows}
    _write_json(outdir / "compare.json", report)
    print(f"compare: {len(rows)} shared metric(s)")
    for row in rows:
        sim_v = "N/A" if row["sim"] is None else f"{row['sim']:.4g}"
        trace_v = "N/A" if row["trace"] is None else f"{row['trace']:.4g}"
        rel = ("N/A" if row["rel_diff"] is None
               else f"{100 * row['rel_diff']:.2f}%")
        print(f"  {row['metric']:<55s} sim={sim_v:>10s} "
              f"trace={trace_v:>10s} diff={rel}")
    print(f"  outputs in {outdir}")
    return 0


def _jobs(text: str) -> int:
    """--jobs: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, not {text!r}")
    return jobs


def _gap_threshold(text: str) -> float:
    """--gap-threshold: a finite, non-negative gap in ms."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of ms, at least 0, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrwifi",
        description="802.11ax VR-traffic link simulator and trace analyzer")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run one config across seeds")
    sim.add_argument("--config", help="YAML config path (defaults built in)")
    sim.add_argument("--seed", type=int, help="override base seed")
    sim.add_argument("--jobs", type=_jobs, default=1)
    sim.add_argument("--output", help=f"output dir (or ${OUTPUT_ENV})")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="sweep one parameter axis")
    swp.add_argument("--config", help="YAML config path")
    swp.add_argument("--seed", type=int)
    swp.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    swp.add_argument("--values", required=True,
                     help="comma-separated values, e.g. 30,60,90")
    swp.add_argument("--jobs", type=_jobs, default=1)
    swp.add_argument("--output")
    swp.set_defaults(func=cmd_sweep)

    ana = sub.add_parser("analyze", help="analyze a trace CSV")
    ana.add_argument("trace")
    ana.add_argument("--gap-threshold", type=_gap_threshold, default=1.0,
                     help="batch gap threshold in ms (default 1.0)")
    ana.add_argument("--frames", action="store_true",
                     help="require RTP frame reconstruction")
    ana.add_argument("--output")
    ana.set_defaults(func=cmd_analyze)

    cmp_ = sub.add_parser("compare",
                          help="compare simulate output vs analyze output")
    cmp_.add_argument("sim", help="simulate output dir or summary.json")
    cmp_.add_argument("analysis", help="analyze output dir or analysis.json")
    cmp_.add_argument("--output")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
