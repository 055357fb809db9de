import csv
import dataclasses
import hashlib
import io
import json
import pickle
import weakref
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from vrwifi import cli, traceio
from vrwifi.cli import main
from vrwifi.engine import run_simulation
from vrwifi.metrics import (SAMPLE_SETS, ecdf, metrics_summary,
                            pooled_summary)
from tests.conftest import (WRONGLY_TYPED, make_cfg, write_config,
                            write_wrongly_typed)


@pytest.fixture
def tiny_config(tmp_path):
    """0.5 s, 2 runs, warm-up off: fast enough for CLI round trips."""
    cfg = make_cfg(duration_s=0.5, runs=2, seed=7)
    return write_config(cfg, tmp_path / "tiny.yaml")


def read(path: Path):
    return json.loads(path.read_text())


def test_simulate_writes_outputs(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", tiny_config,
                 "--output", str(out)]) == 0
    for name in ("summary.json", "sim_trace.csv", "dl_delays.csv",
                 "vf_delays.csv", "ampdu_sizes.csv"):
        assert (out / name).exists()
    summary = read(out / "summary.json")
    assert summary["pooled"]["dl_packet_delay_ms"]["mean"] > 0
    assert summary["qos_verdicts"]["loss_rate"]["pass"] is True
    assert summary["config"]["traffic"]["fps"] == 90.0


def test_simulate_bad_config_path_exits_nonzero(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(tmp_path / "missing.yaml"),
               "--output", str(out)])
    assert rc != 0
    assert not (out / "summary.json").exists()


def test_simulate_invalid_config_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mac:\n  per: 5\n")
    rc = main(["simulate", "--config", str(bad),
               "--output", str(tmp_path / "out")])
    assert rc != 0


def test_simulate_deterministic_outputs(tiny_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", tiny_config, "--seed", "7",
                 "--output", str(out1)]) == 0
    assert main(["simulate", "--config", tiny_config, "--seed", "7",
                 "--output", str(out2)]) == 0
    for name in ("summary.json", "sim_trace.csv", "dl_delays.csv",
                 "vf_delays.csv", "ampdu_sizes.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_output_env_var(tiny_config, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("VRWIFI_OUTPUT_DIR", str(target))
    assert main(["simulate", "--config", tiny_config]) == 0
    assert (target / "summary.json").exists()


def test_simulate_serial_and_parallel_agree(tmp_path):
    # 3 runs: the pool gets two tasks while this process runs the first
    cfg = make_cfg(duration_s=0.5, runs=3, seed=7)
    write_config(cfg, tmp_path / "cfg.yaml")
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                     "--jobs", jobs, "--output", str(outs[jobs])]) == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    assert read(outs["1"] / "summary.json")["seeds"] == [7, 8, 9]
    for name in names:
        assert ((outs["1"] / name).read_bytes()
                == (outs["2"] / name).read_bytes()), name


def test_simulate_pool_runs_every_seed(tmp_path, pool_sizes):
    cfg = make_cfg(duration_s=0.2, runs=3)
    write_config(cfg, tmp_path / "cfg.yaml")
    assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                 "--jobs", "500", "--output", str(tmp_path / "out")]) == 0
    assert pool_sizes == [3]


def test_simulate_main_process_only_writes(tmp_path, monkeypatch):
    # with a pool, the workers simulate and export; a call made in a
    # worker lands in the worker's copy of `calls`, not in this one
    cfg = make_cfg(duration_s=0.2, runs=2)
    write_config(cfg, tmp_path / "cfg.yaml")
    calls = []

    def spy(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for module, name in ((cli, "run_simulation"),
                         (traceio, "delivered_trace")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                 "--jobs", "2", "--output", str(out)]) == 0
    assert calls == [] and (out / "sim_trace.csv").stat().st_size > 0
    # the same patches see both calls when the run is made here
    assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                 "--jobs", "1", "--output", str(tmp_path / "serial")]) == 0
    assert calls == ["run_simulation", "delivered_trace", "run_simulation"]


def test_simulate_one_run_on_two_jobs_matches_one_job(tmp_path):
    cfg = make_cfg(duration_s=0.5, runs=1, seed=4)
    write_config(cfg, tmp_path / "cfg.yaml")
    outs = [tmp_path / f"jobs{jobs}" for jobs in ("1", "2")]
    for jobs, out in zip(("1", "2"), outs):
        assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                     "--jobs", jobs, "--output", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_task_returns_lean_metrics(tmp_path):
    cfg = make_cfg(duration_s=0.5)
    full = run_simulation(cfg, 3).metrics
    for trace_path in (None, tmp_path / "trace.csv"):
        m, trace_metrics = cli._run_task(cfg, 3, trace_path)
        assert m.tx_log == [] and full.tx_log
        assert (trace_metrics is None) == (trace_path is None)
        # the task's metrics are the library's, less the channel log
        assert m == dataclasses.replace(full, tx_log=[])


def test_sample_sets_are_typed_arrays():
    cfg = make_cfg(duration_s=0.5)
    for m in (run_simulation(cfg, 3).metrics,
              cli._run_task(cfg, 3, None)[0]):
        assert [(type(getattr(m, attr)), getattr(m, attr).typecode)
                for _, attr, _ in SAMPLE_SETS] == [(array, "d")] * 4 + [
                    (array, "q")]
        assert pickle.loads(pickle.dumps(m)) == m


def test_summaries_leave_a_runs_samples_in_delivery_order():
    m, _ = cli._run_task(make_cfg(duration_s=0.5), 1, None)
    attrs = [attr for _, attr, _ in SAMPLE_SETS]
    before = [getattr(m, attr).tolist() for attr in attrs]
    assert all(v != sorted(v) for v in before if v)
    metrics_summary(m)
    pooled_summary([m])
    pooled_summary([m, m])
    assert [getattr(m, attr).tolist() for attr in attrs] == before


@pytest.mark.parametrize("ul_enabled", [True, False])
def test_task_metrics_summarize_as_run_metrics(ul_enabled):
    cfg = make_cfg(duration_s=0.5, traffic={"ul_enabled": ul_enabled})
    runs = [run_simulation(cfg, seed).metrics for seed in (1, 2, 3)]
    tasks = [cli._run_task(cfg, seed, None)[0] for seed in (1, 2, 3)]
    assert (len(tasks[0].ul_packet_delays_us) > 0) == ul_enabled
    # each run summarized first, then pooled, as simulate does
    assert ([metrics_summary(m) for m in tasks]
            == [metrics_summary(m) for m in runs])
    pooled = pooled_summary(tasks)
    assert pooled == pooled_summary(runs)
    assert (pooled["ul_packet_delay_ms"] is None) == (not ul_enabled)
    # A-MPDU sizes read as ints in either result
    assert {type(v) for m in (runs[0], tasks[0])
            for v in m.ampdu_sizes} == {int}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tiny_config, tmp_path, command, jobs,
                                capsys):
    out = tmp_path / "out"
    argv = [command, "--config", tiny_config, "--jobs", jobs,
            "--output", str(out)]
    if command == "sweep":
        argv += ["--axis", "fps", "--values", "60"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("traffic", [{}, {"inter_batch_time_ms": 0.01}],
                         ids=["defaults", "tau0.01"])
def test_simulate_analyzes_the_records_it_writes(traffic, tmp_path,
                                                 monkeypatch):
    # simulate analyses its trace export without reading the file back;
    # those records must be exactly what parse_trace reads from it
    cfg = make_cfg(duration_s=10.0, warmup_ms=500.0, runs=1,
                   traffic=traffic)
    write_config(cfg, tmp_path / "cfg.yaml")
    analysed = []
    analyze_video = traceio.analyze_video

    def spy(records, *args):
        analysed.append(list(records))  # analyze_video moves the rows out
        return analyze_video(records, *args)

    monkeypatch.setattr(traceio, "analyze_video", spy)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                 "--output", str(out)]) == 0
    parsed = traceio.parse_trace(str(out / "sim_trace.csv"))
    (records,) = analysed
    assert records and not parsed.skipped
    assert records == list(parsed.records)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("name", sorted(WRONGLY_TYPED))
def test_wrongly_typed_config_exits_2(tmp_path, command, name, capsys):
    path = write_wrongly_typed(tmp_path / "typed.yaml", name)
    argv = [command, "--config", path, "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "fps", "--values", "60"]
    assert main(argv) == 2
    assert WRONGLY_TYPED[name][1] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("where", ["yaml", "flag"])
def test_negative_seed_exits_2(tmp_path, command, where, capsys):
    # numpy's generators refuse a negative seed with a traceback
    cfg = make_cfg(duration_s=0.2, runs=1, seed=-1 if where == "yaml" else 1)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(cfg, tmp_path / "cfg.yaml"),
            "--output", str(out)]
    if where == "flag":
        argv += ["--seed", "-5"]
    if command == "sweep":
        argv += ["--axis", "fps", "--values", "60"]
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_table_and_summary(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--axis", "fps",
                 "--values", "60,90", "--output", str(out)]) == 0
    sweep = read(out / "sweep.json")
    assert sweep["values"] == [60.0, 90.0]
    assert set(sweep["per_value"]) == {"60.0", "90.0"}
    table = (out / "sweep_table.csv").read_text().strip().splitlines()
    assert len(table) == 1 + 2 * 2   # header + values x seeds


@pytest.mark.parametrize("axis, values, key", [
    ("fps", "30,-5", "fps must be positive"),
    ("fps", "30,nan", "traffic.fps"),
    ("mcs_index", "11.5,3.9", "phy.mcs_index"),
    ("mcs_index", "7,3.0", "phy.mcs_index"),
])
def test_sweep_invalid_value_exits_2_before_any_run(tiny_config, tmp_path,
                                                    monkeypatch, capsys,
                                                    axis, values, key):
    from vrwifi import engine
    runs = []
    monkeypatch.setattr(engine._Sim, "run", lambda sim: runs.append(sim))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--axis", axis,
                 "--values", values, "--output", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_sweep_pools_lean_metrics(tiny_config, tmp_path, monkeypatch):
    pooled = []

    def spy(runs):
        pooled.append(runs)
        return pooled_summary(runs)

    monkeypatch.setattr(cli, "pooled_summary", spy)
    assert main(["sweep", "--config", tiny_config, "--axis", "fps",
                 "--values", "60,90", "--jobs", "2",
                 "--output", str(tmp_path / "sweep")]) == 0
    assert [len(runs) for runs in pooled] == [2, 2]
    for m in (m for runs in pooled for m in runs):
        assert m.tx_log == []
        for _, attr, _ in SAMPLE_SETS:
            assert isinstance(getattr(m, attr), array)


def test_sweep_holds_one_values_runs(tiny_config, tmp_path, monkeypatch):
    # each lean result is watched from the moment it is made; when the
    # next one is made, at most a value's worth (runs: 2) is still alive
    made, peak = [], []

    def task(*t):
        peak.append(sum(ref() is not None for ref in made) + 1)
        result = run_task(*t)
        made.append(weakref.ref(result[0]))
        return result

    run_task = cli._run_task
    monkeypatch.setattr(cli, "_run_task", task)
    assert main(["sweep", "--config", tiny_config, "--axis", "per",
                 "--values", "0.0,0.1,0.2", "--jobs", "1",
                 "--output", str(tmp_path / "sweep")]) == 0
    assert len(peak) == 6 and max(peak) == 2


def test_sweep_runs_each_distinct_value_once(tiny_config, tmp_path,
                                             monkeypatch):
    from vrwifi import engine
    runs = []
    sim_run = engine._Sim.run

    def spy(sim):
        runs.append(sim.cfg.mac.per)
        return sim_run(sim)

    monkeypatch.setattr(engine._Sim, "run", spy)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--axis", "per",
                 "--values", "0.1,0.1,-0.0,0.0", "--jobs", "1",
                 "--output", str(out)]) == 0
    assert runs == [0.1, 0.1, 0.0, 0.0]    # two seeds of each value
    assert set(read(out / "sweep.json")["per_value"]) == {"0.1", "-0.0",
                                                          "0.0"}


def test_sweep_empty_values_ok(tiny_config, tmp_path):
    out = tmp_path / "sweep0"
    assert main(["sweep", "--config", tiny_config, "--axis", "fps",
                 "--values", "", "--output", str(out)]) == 0
    assert read(out / "sweep.json")["per_value"] == {}


def test_sweep_rejects_unknown_axis(tiny_config, tmp_path):
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "vrwifi.cli", "sweep", "--config", tiny_config,
         "--axis", "nope", "--values", "1"],
        capture_output=True, text=True)
    assert proc.returncode != 0


def test_analyze_sim_trace(tiny_config, tmp_path):
    simout = tmp_path / "sim"
    anaout = tmp_path / "ana"
    assert main(["simulate", "--config", tiny_config,
                 "--output", str(simout)]) == 0
    assert main(["analyze", str(simout / "sim_trace.csv"),
                 "--output", str(anaout)]) == 0
    analysis = read(anaout / "analysis.json")
    assert "SRTP-video" in analysis["streams"]
    assert (analysis["trace_metrics"]["video_mean_packet_size_bytes"]
            == analysis["streams"]["SRTP-video"]["mean_packet_size"])
    assert analysis["frames"]["fps_estimate"] == pytest.approx(90.0, rel=0.05)
    assert analysis["qos_verdicts"]["jitter_ms"]["pass"] is True
    ecdfs = list(Path(anaout).glob("ecdf_inter_packet_*.csv"))
    assert ecdfs


def test_analyze_missing_trace_exits_nonzero(tmp_path):
    assert main(["analyze", str(tmp_path / "none.csv"),
                 "--output", str(tmp_path / "o")]) != 0


def test_analyze_frames_flag_requires_rtp(tmp_path):
    trace = tmp_path / "plain.csv"
    rows = ["timestamp,length,src_port,dst_port"]
    rows += [f"{i * 0.0002},1243,1,2" for i in range(50)]
    trace.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main(["analyze", str(trace), "--frames",
                 "--output", str(out)]) != 0
    assert not out.exists()
    # without --frames the batch-level analysis succeeds
    assert main(["analyze", str(trace), "--output", str(out)]) == 0


def strict_json(path: Path):
    """The JSON object in path, which must hold no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_simulate_frames_at_one_instant_have_no_rate(tmp_path):
    # a valid config whose two frames leave in one A-MPDU: the trace's
    # frames all start at one instant, which once divided by zero
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "mac: {cw_min: 200, cw_max: 200, ampdu_snapshot: false}\n"
        "traffic: {fps: 1000.0, bitrate_bps: 8000000.0, ul_enabled: false}\n"
        "sim: {duration_s: 0.002, warmup_ms: 0.0, runs: 1, seed: 2}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    tm = strict_json(out / "summary.json")["trace_metrics"]
    assert tm["inter_frame_time_mean_ms"] == 0.0
    assert "fps_estimate" not in tm


@pytest.mark.parametrize("rows", ["1.0,1000,5,1\n1.0,1000,6,1\n",
                                  "0.0,1000,5,1\n5e-324,1000,6,1\n"],
                         ids=["one_instant", "one_subnormal_apart"])
def test_analyze_frames_too_close_to_divide_have_no_rate(tmp_path, capsys,
                                                         rows):
    # the first once divided by zero, the second wrote Infinity for the
    # frame rate and the load, which compare refuses
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp,length,rtp_timestamp,rtp_ssrc\n" + rows)
    out = tmp_path / "out"
    assert main(["analyze", str(trace), "--frames", "--output", str(out)]) == 0
    analysis = strict_json(out / "analysis.json")
    assert analysis["frames"]["fps_estimate"] is None
    assert "fps_estimate" not in analysis["trace_metrics"]
    assert analysis["streams"][traceio.SRTP_VIDEO]["load_mbps"] == 0.0
    assert "fps ~ n/a" in capsys.readouterr().out


def test_analyze_single_frame_trace(tmp_path):
    trace = tmp_path / "one.csv"
    trace.write_text("timestamp,length,rtp_ssrc,rtp_timestamp\n"
                     "0.0,1243,1,100\n0.0001,1243,1,100\n0.0002,1200,1,100\n")
    out = tmp_path / "o"
    assert main(["analyze", str(trace), "--frames", "--output", str(out)]) == 0
    analysis = read(out / "analysis.json")
    assert analysis["frames"]["n_frames"] == 1
    assert analysis["frames"]["fps_estimate"] is None
    assert analysis["frames"]["frame_size_mean_bytes"] == 3686.0
    # one frame is no frame statistic: only stream-level metrics remain
    assert set(analysis["trace_metrics"]) == {
        "video_mean_packet_size_bytes", "video_mean_inter_packet_ms",
        "video_jitter_ms"}


def test_compare_run_against_own_export(tiny_config, tmp_path):
    simout, anaout, cmpout = (tmp_path / d for d in ("sim", "ana", "cmp"))
    assert main(["simulate", "--config", tiny_config,
                 "--output", str(simout)]) == 0
    assert main(["analyze", str(simout / "sim_trace.csv"),
                 "--output", str(anaout)]) == 0
    assert main(["compare", str(simout), str(anaout),
                 "--output", str(cmpout)]) == 0
    table = read(cmpout / "compare.json")["table"]
    shared = [row for row in table
              if row["sim"] is not None and row["trace"] is not None
              and not row["metric"].startswith("vf_delay")]
    assert shared
    for row in shared:
        assert row["rel_diff"] == pytest.approx(0.0, abs=1e-12), row


def test_compare_disjoint_metrics_all_na(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"trace_metrics": {}}))
    b.write_text(json.dumps({"trace_metrics": {}}))
    out = tmp_path / "cmp"
    assert main(["compare", str(a), str(b), "--output", str(out)]) == 0
    assert read(out / "compare.json")["table"] == []


# malformed reports, and what the error must say besides the file name
MALFORMED_REPORTS = {
    "list": ([], "not a JSON object"),
    "not_json": ("no json", "Expecting value"),
    "metrics_list": ({"trace_metrics": [1.0]},
                     "trace_metrics is not a JSON object"),
    "str_value": ({"trace_metrics": {"fps_estimate": "x"}},
                  "trace_metrics.fps_estimate must be a finite number, "
                  "not 'x'"),
    "bool_value": ({"trace_metrics": {"fps_estimate": True}},
                   "trace_metrics.fps_estimate must be a finite number, "
                   "not True"),
    # json reads NaN, which would reach compare.json as invalid JSON
    "nan_value": ({"trace_metrics": {"video_jitter_ms": float("nan")}},
                  "trace_metrics.video_jitter_ms must be a finite number"),
    "pooled_mean": ({"pooled": {"vf_delay_ms": {"mean": [2]}}},
                    "pooled.vf_delay_ms.mean must be a finite number"),
    # an int json reads exactly, too large for a float
    "huge_int": ({"trace_metrics": {"fps_estimate": 10**400}},
                 "trace_metrics.fps_estimate must be a finite number"),
}


# compare reads pooled only from the simulation's report
@pytest.mark.parametrize("side,name", [
    (side, name) for side in ("sim", "analysis") for name in MALFORMED_REPORTS
    if side == "sim" or name != "pooled_mean"])
def test_compare_malformed_report_exits_2(tmp_path, capsys, side, name):
    report, named = MALFORMED_REPORTS[name]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"trace_metrics": {
        "fps_estimate": 90.0, "assembly_delay_mean_ms": 2.0}}))
    bad = tmp_path / "bad.json"
    bad.write_text(report if isinstance(report, str) else json.dumps(report))
    pair = [bad, good] if side == "sim" else [good, bad]
    out = tmp_path / "cmp"
    assert main(["compare", *map(str, pair), "--output", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and str(bad) in err and named in err
    assert not out.exists()


def test_compare_pairs_pooled_vf_delay_with_assembly_delay(tmp_path):
    sim, trace = tmp_path / "sim.json", tmp_path / "trace.json"
    sim.write_text(json.dumps({"trace_metrics": {"fps_estimate": 90.0},
                               "pooled": {"vf_delay_ms": {"mean": 3.0}}}))
    trace.write_text(json.dumps({"trace_metrics": {
        "fps_estimate": 45.0, "assembly_delay_mean_ms": 2.0}}))
    out = tmp_path / "cmp"
    assert main(["compare", str(sim), str(trace), "--output", str(out)]) == 0
    assert read(out / "compare.json")["table"] == [
        {"metric": "fps_estimate", "sim": 90.0, "trace": 45.0,
         "rel_diff": 1.0},
        {"metric": "assembly_delay_mean_ms", "sim": None, "trace": 2.0,
         "rel_diff": None},
        {"metric": "vf_delay_mean_ms (sim) vs assembly_delay_mean_ms (trace)",
         "sim": 3.0, "trace": 2.0, "rel_diff": 0.5},
    ]


def test_analyze_two_columns_for_one_field_exits_2(tmp_path, capsys):
    trace = tmp_path / "two_lengths.csv"
    trace.write_text("frame.time_epoch,frame.len,udp.length\n"
                     "0.0,100,80\n0.001,100,80\n")
    out = tmp_path / "o"
    assert main(["analyze", str(trace), "--output", str(out)]) == 2
    assert "'frame.len' and 'udp.length' both give length" in (
        capsys.readouterr().err)


def write_capture(path: Path) -> None:
    """A fixed 0.5 s capture: 45 paced video frames (one or two batches
    5.56 ms apart) with a second, audio SSRC on the same flow, a DTLS
    uplink and a generic UDP flow, so every stream label path is used."""
    rows = []
    for f in range(45):
        t0 = f / 90.0 + (f * 7 % 5) * 1e-5
        sizes = [1243] * (8 + f % 5) + [300 + 17 * f]
        n_batches = 1 + f % 2
        per_batch = -(-len(sizes) // n_batches)
        for i, size in enumerate(sizes):
            k, j = divmod(i, per_batch)
            t = t0 + k * 5.56e-3 + j * 4e-5 + (i * 3 % 7) * 1e-6
            rows.append((t, size, 50000, 5004, "DL", 96, 1, 3000 * f,
                         "true" if i == len(sizes) - 1 else "false", ""))
    for i in range(25):
        rows.append((i * 0.02 + 0.003, 110 + i % 4, 50000, 5004, "DL",
                     111, 2, 960 * i, "true", ""))
    for i in range(60):
        rows.append((i * 8.3e-3 + 0.001, 150 + (i * 5) % 40, 50001, 5006,
                     "UL", "", "", "", "", "DTLS"))
    for i in range(12):
        rows.append((i * 0.041 + 0.002, 420, 40000, 40001, "DL", "", "",
                     "", "", "UDP"))
    rows.sort()
    lines = ["timestamp,length,src_port,dst_port,direction,"
             "rtp_payload_type,rtp_ssrc,rtp_timestamp,rtp_marker,protocol"]
    lines += [f"{t:.6f}," + ",".join(str(v) for v in rest)
              for t, *rest in rows]
    path.write_text("\n".join(lines) + "\n")


def write_tshark_capture(path: Path) -> None:
    """A fixed capture with tshark column names, and the cases
    write_capture has none of: rows parse_trace skips; an RTP flow with
    a video SSRC, an audio SSRC and rows with neither RTP column; a flow
    with a payload type and no SSRC; flows labelled by their protocol
    column alone, one mixed and one unknown; and a video flow without
    RTP columns, so there are no frames. At a 6.0 ms threshold the
    batch spacings 11.12 and 11.10 ms tie for the mode, 11.12 seen
    first."""
    rows = []
    t0 = 0.001
    for f in range(21):          # frames 11.12 and 11.10 ms apart in turn
        sizes = [1243] * (6 + f % 3) + [400 + 11 * f]
        half = len(sizes) // 2
        for i, size in enumerate(sizes):
            t = t0 + (3e-3 if i >= half else 0.0) + (i % half) * 4e-5
            rows.append((t, size, 50000, 5004, "DL", 96, 11, 1000 * f,
                         ("1", "0", "true", "F", "yes", " ")[i % 6], ""))
        t0 += 11.12e-3 if f % 2 == 0 else 11.10e-3
    for i in range(12):          # audio SSRC on the video flow
        rows.append((0.004 + i * 0.02, 120 + i % 3, 50000, 5004, "dl", 111,
                     22, 960 * i, "", ""))
    for i in range(3):           # same flow, no RTP columns: flow majority
        rows.append((0.0105 + i * 0.07, 1243, 50000, 5004, "DL", "", "", "",
                     "", ""))
    for i in range(10):          # payload type without SSRC, and bare rows
        rows.append((0.002 + i * 0.02, 160, 50010, 5010, "",
                     0 if i % 3 else "", "", "", "", ""))
    for i in range(40):          # video without RTP; two rows share a time
        k, j = divmod(i, 8)
        rows.append((0.25 + k * 8e-3 + j * 1e-4 + (j == 7) * -1e-4, 1243,
                     40000, 40002, "DL", "", "", "", "", ""))
    for proto, ports, gap, size, direction, n in (
            ("DTLS", (50001, 5006), 8.3e-3, 170, "UL", 30),
            ("stun", (50002, 3478), 0.1, 100, "DL", 4),
            ("RTCP", (50003, 5005), 0.06, 420, "ul", 5),
            ("RTP", (50005, 5008), 0.02, 150, "DL", 10),
            ("UDP", (40010, 40011), 0.041, 420, "DL", 8),
            ("QUIC", (40020, 40021), 0.03, 1300, "UL", 6)):
        for i in range(n):
            rows.append((0.0013 + i * gap, size + i % 5, *ports, direction,
                         "", "", "", "", proto))
    for i in range(8):           # two protocols on one flow: heuristics
        rows.append((0.003 + i * 0.02, 83, 50006, 5009, "DL", "", "", "", "",
                     ("STUN", "DTLS")[i % 2]))
    rows.sort()
    lines = ["frame.time_epoch,frame.len,udp.srcport,udp.dstport,direction,"
             "rtp.p_type,rtp.ssrc,rtp.timestamp,rtp.marker,_ws.col.protocol"]
    lines += [f"{1.7e9 + t:.6f}," + ",".join(str(v) for v in rest)
              for t, *rest in rows]
    # rows parse_trace skips, among the others
    bad = ["abc,100,1,2,DL,,,,,", "1700000000.1,nan,1,2,DL,,,,,",
           "inf,100,1,2,DL,,,,,", "1700000000.2,0,1,2,DL,,,,,",
           "1700000000.2,100,1e400,2,DL,,,,,",
           "1700000000.2,100,1,2,DL,,nan,,,"]
    for k, row in enumerate(bad):
        lines.insert(5 + 17 * k, row)
    path.write_text("\n".join(lines) + "\n")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of every analyze output for the fixed capture above. The trace
# is passed by a relative name, since analysis.json echoes it.
PINNED_ANALYZE = {
    "analysis.json":
        "37cd397c7430abea2345df98e8b3f11f14ce1260fcb560fef87dcdb4a156917b",
    "ecdf_inter_packet_dtls.csv":
        "ecdbe6d3425fd1abeca245a432b888aa2414fbb4650fe015097de299d5fcdf82",
    "ecdf_inter_packet_generic_udp.csv":
        "404fc36dcdf8d5bc459eb72ef76d4ba1c13d27ae4ef15947518312c31cac07ef",
    "ecdf_inter_packet_srtp_audio.csv":
        "cabe8c885b8a2c1274d5764bbe84c487971975ebf712118fc411185742d7c103",
    "ecdf_inter_packet_srtp_video.csv":
        "0c6d4e6dadd3d421ad4ab8efd62788f2eb94023ab3dab8f55067ea9a964ebb1a",
}

# the same for the tshark-named capture, at two gap thresholds; only
# analysis.json depends on the threshold
TSHARK_ECDFS = {
    "ecdf_inter_packet_dtls.csv":
        "4c2a083a25b772f0bead84d5c272f58cb8218ac07fdf08a78365aaf837f516c7",
    "ecdf_inter_packet_generic_udp.csv":
        "55547ce234e68dd8957371f9e6553dbf80542173a5031b49993aed8fe7e7ef7f",
    "ecdf_inter_packet_srtcp.csv":
        "fc027cc9f74849e935faf9eab0443928aa67bb51c9485c127c713a9dabbc919f",
    "ecdf_inter_packet_srtp_audio.csv":
        "041aaae59fa840e1d5fa711075f8b34fb25e824e711b605b0259462eac7faab6",
    "ecdf_inter_packet_srtp_video.csv":
        "cae2a528a1cffc51f8133beb7b2114ed648a6a9a0491781234e23e412bd65edc",
    "ecdf_inter_packet_stun.csv":
        "f22e1b53a72c63265ce6a3e8800b9ff134f54e035d488066c6277f276107318b",
}
PINNED_ANALYZE_TSHARK = {
    "0": {"analysis.json":
          "3a4c549887c9b5e5c34dd12c2ca816869c2d3fc25430296f3e1543ef44aa8c97",
          **TSHARK_ECDFS},
    "6.0": {"analysis.json":
            "a344dd8d5f1e73891636a785714a694ccbe13231e5fb91835d3a390f4f0eb030",
            **TSHARK_ECDFS},
}

PINNED_SWEEP = {
    "sweep.json":
        "06dac2f27ea39de9ba60d76707e6e2818f12f6b2c115865ed5e1d65c93df9a59",
    "sweep_table.csv":
        "f0d9a030501ec2afd658dcaf8506815adf3e761495a85dd6bb34a96fd9c25da5",
}

# a sweep that lists equal values twice: rows keep the first-listed key,
# per_value one entry per listed value's text
PINNED_SWEEP_REPEATS = {
    "sweep.json":
        "96737bdd8f696ad74ae54305d57964eef7fd06c98c0dcc662276f9842b749244",
    "sweep_table.csv":
        "21f71a482c02470ac3b0c288cf10d32bea4160e596ebcf4613b51f947947abc0",
}


def test_pinned_analyze_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_capture(tmp_path / "capture.csv")
    assert main(["analyze", "capture.csv", "--frames",
                 "--output", "out"]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(PINNED_ANALYZE)
    assert {name: digest(out / name)
            for name in PINNED_ANALYZE} == PINNED_ANALYZE


@pytest.mark.parametrize("threshold", sorted(PINNED_ANALYZE_TSHARK))
def test_pinned_analyze_digest_tshark(tmp_path, monkeypatch, threshold):
    monkeypatch.chdir(tmp_path)
    write_tshark_capture(tmp_path / "capture.csv")
    assert main(["analyze", "capture.csv", "--gap-threshold", threshold,
                 "--output", "out"]) == 0
    out = tmp_path / "out"
    pinned = PINNED_ANALYZE_TSHARK[threshold]
    assert sorted(p.name for p in out.iterdir()) == sorted(pinned)
    assert {name: digest(out / name) for name in pinned} == pinned


@pytest.mark.parametrize("block", [1, 3])
def test_simulate_writes_each_dump_in_blocks(tmp_path, monkeypatch, block):
    # each sample dump is written a block of samples at a time, in the
    # bytes of one join over each run's whole array
    monkeypatch.setattr(traceio, "BLOCK_ROWS", block)
    cfg = make_cfg(duration_s=0.2, runs=2)
    write_config(cfg, tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
                 "--output", str(out)]) == 0
    runs = {seed: run_simulation(cfg, seed).metrics
            for seed in (cfg.seed, cfg.seed + 1)}
    for attr, name, header in cli.SAMPLE_CSVS:
        expected = f"seed,{header}\r\n"
        for seed, m in runs.items():
            values = getattr(m, attr).tolist()
            assert len(values) > block
            expected += f"{seed}," + f"\r\n{seed},".join(
                map(repr, values)) + "\r\n"
        assert (out / name).read_bytes() == expected.encode()


@pytest.mark.parametrize("length", [0, 1, traceio.BLOCK_ROWS - 1,
                                    traceio.BLOCK_ROWS + 1])
@pytest.mark.parametrize("typecode", ["d", "q"])
def test_sample_rows_are_the_per_row_writers_bytes(length, typecode):
    """The block formatter writes what one f"{seed},{v!r}\\r\\n" a value
    writes, on a column that starts with the special values and goes on
    with repeats of them and of ordinary ones: 0.0 and -0.0 in one block,
    NaN, both infinities, the smallest subnormal and 1e16 (repr in
    exponent form) for floats, and the int64 extremes for ints."""
    r = np.random.default_rng(length)
    if typecode == "d":
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]
        ordinary = np.round(r.exponential(900.0, 40), 1).tolist()
    else:
        special = [0, -1, 2**63 - 1, -2**63, 10**16]
        ordinary = r.integers(1, 257, 40).tolist()
    pool = special + ordinary
    picks = r.integers(len(pool), size=length).tolist()
    values = array(typecode, (special + [pool[i] for i in picks])[:length])
    fh = io.StringIO(newline="")
    cli._write_samples(fh, 17, np.asarray(values))
    # compared row by row: a failing diff of one long string takes minutes
    assert fh.getvalue().splitlines(keepends=True) == [
        f"17,{v!r}\r\n" for v in values.tolist()]
    assert cli._reprs(np.asarray(values)) == list(map(repr, values.tolist()))


@pytest.mark.parametrize("block", [1, 3])
def test_analyze_writes_each_ecdf_in_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(traceio, "BLOCK_ROWS", block)
    # binary fractions of a second, so that equal gaps tie exactly: a
    # video flow longer than a block with tied and zero gaps, and a
    # generic one of a single gap
    video = np.cumsum([0, 1, 1, 0, 2, 1, 1, 3, 1, 0, 1]) / 1024
    rows = sorted([(t, 1243, 1, 2) for t in video.tolist()]
                  + [(0.0, 555, 3, 4), (0.123, 555, 3, 4)])
    path = tmp_path / "capture.csv"
    path.write_text("timestamp,length,src_port,dst_port\n" + "".join(
        f"{t!r},{n},{s},{d}\n" for t, n, s, d in rows))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--output", str(out)]) == 0
    trace = traceio.parse_trace(str(path)).records
    labels = traceio.classify_streams(trace)
    assert set(labels.tolist()) == {traceio.SRTP_VIDEO, traceio.GENERIC}
    for label, name, n_gaps, n_distinct in (
            (traceio.SRTP_VIDEO, "srtp_video", 10, 4),
            (traceio.GENERIC, "generic_udp", 1, 1)):
        xs, ps = ecdf(np.diff(trace.timestamp_s[labels == label]) * 1e3)
        assert (len(xs), len(set(xs.tolist()))) == (n_gaps, n_distinct)
        expected = "inter_packet_ms,probability\r\n" + "".join(
            f"{x!r},{p!r}\r\n" for x, p in zip(xs.tolist(), ps.tolist()))
        assert (out / f"ecdf_inter_packet_{name}.csv").read_bytes() == (
            expected.encode())


def test_analyze_names_each_skipped_row_on_stderr(tmp_path, capsys):
    write_tshark_capture(tmp_path / "capture.csv")
    assert main(["analyze", str(tmp_path / "capture.csv"),
                 "--output", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "line 6: could not convert string to float: 'abc'",
        "line 23: non-finite timestamp 1700000000.1 or length nan",
        "line 40: non-finite timestamp inf or length 100.0",
        "line 57: non-positive length 0",
        "line 74: cannot convert float infinity to integer",
        "line 91: cannot convert float NaN to integer",
    ]
    assert "(6 skipped rows)" in out


def test_analyze_names_only_the_first_20_skipped_rows(tmp_path, capsys):
    rows = ["timestamp,length", "0.0,1243"] + [f"{i * 1e-3},{-i}"
                                               for i in range(1, 26)]
    (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
    assert main(["analyze", str(tmp_path / "trace.csv"),
                 "--output", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["line 3: non-positive length -1",
                       "line 4: non-positive length -2"]
    assert err[19] == "line 22: non-positive length -20"
    assert len(err) == 21 and err[-1] == "... and 5 more"


def test_analyze_names_the_skipped_rows_when_none_is_left(tmp_path, capsys):
    rows = ["timestamp,length", "abc,100"] + [f"1.0,{-i}"
                                              for i in range(1, 22)]
    (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(tmp_path / "trace.csv"),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["line 2: could not convert string to float: 'abc'",
                       "line 3: non-positive length -1"]
    assert err[19] == "line 21: non-positive length -19"
    assert err[20:] == ["... and 2 more",
                        "error: trace contains no parseable records"]
    assert not out.exists()


@pytest.mark.parametrize("capture,threshold", [(write_capture, 1.0),
                                               (write_tshark_capture, 6.0)],
                         ids=["canonical", "tshark"])
def test_record_lists_agree_with_the_columns(tmp_path, capture, threshold):
    # reconstruct_frames and interarrival_jitter take lists of TraceRecord,
    # and Trace.from_records converts one for the rest; each must give
    # what analyze_video finds on parsed columns
    capture(tmp_path / "capture.csv")
    parsed = traceio.parse_trace(str(tmp_path / "capture.csv"))
    records = list(parsed.records)  # analyze_video moves the rows out
    columns_labels = traceio.classify_streams(parsed.records).tolist()
    va = traceio.analyze_video(parsed.records, threshold)
    labels = traceio.classify_streams(traceio.Trace.from_records(records))
    assert labels.tolist() == columns_labels
    assert ({label: len(rows) for label, rows in va.groups.items()}
            == Counter(columns_labels))
    video = [r for r, label in zip(records, labels)
             if label == traceio.SRTP_VIDEO]
    assert video == list(va.groups[traceio.SRTP_VIDEO])
    assert (traceio.detect_batches(traceio.Trace.from_records(video),
                                   threshold).tolist()
            == va.batches.tolist())
    assert traceio.interarrival_jitter(video) == va.metrics.video_jitter_ms
    if va.frames is None:
        with pytest.raises(traceio.TraceError, match="rtp_timestamp"):
            traceio.reconstruct_frames(video, threshold)
    else:
        frames = traceio.reconstruct_frames(video, threshold)
        assert frames == va.frames
        assert traceio.assembly_delays(frames) == va.assembly_delays_ms
    assert (traceio.analyze_video(traceio.Trace.from_records(records),
                                  threshold).trace_metrics()
            == va.trace_metrics())


@pytest.mark.parametrize("capture", [write_capture, write_tshark_capture],
                         ids=["canonical", "tshark"])
def test_each_flow_alone_keeps_its_labels(tmp_path, capture):
    # a trace of one flow skips classify_streams' np.unique passes; it
    # must label each flow of a pinned capture as the full capture does
    capture(tmp_path / "capture.csv")
    trace = traceio.parse_trace(str(tmp_path / "capture.csv")).records
    labels = traceio.classify_streams(trace)
    keys = list(zip(trace.src_port.tolist(), trace.dst_port.tolist(),
                    trace.uplink.tolist()))
    assert len(set(keys)) > 1
    for key in set(keys):
        rows = np.array([k == key for k in keys])
        assert (traceio.classify_streams(trace.take(rows)).tolist()
                == labels[rows].tolist())


def test_simulate_export_labels_alone_and_among_other_flows():
    cfg = make_cfg(duration_s=1.0)
    export = traceio.delivered_trace(
        run_simulation(cfg, 1, keep_packets=True).frames)
    records = list(export)
    other = traceio.classify_streams(traceio.Trace.from_records(
        records + [dataclasses.replace(records[0], src_port=1)]))
    alone = traceio.classify_streams(export)
    assert alone.tolist() == other[:-1].tolist()
    assert set(alone.tolist()) == {traceio.SRTP_VIDEO}


def test_pinned_sweep_digest(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--axis", "fps",
                 "--values", "60,90", "--output", str(out)]) == 0
    assert {name: digest(out / name)
            for name in PINNED_SWEEP} == PINNED_SWEEP


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pinned_sweep_repeats_digest(tiny_config, tmp_path, jobs):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--axis", "per",
                 "--values", "0.1,0.1,-0.0,0.0", "--jobs", jobs,
                 "--output", str(out)]) == 0
    assert {name: digest(out / name)
            for name in PINNED_SWEEP_REPEATS} == PINNED_SWEEP_REPEATS


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "-0.5"])
def test_analyze_rejects_meaningless_gap_threshold(tmp_path, threshold,
                                                   capsys):
    trace = tmp_path / "capture.csv"
    write_capture(trace)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace), "--gap-threshold", threshold,
              "--output", str(out)])
    assert exc.value.code == 2
    assert "--gap-threshold" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_trace_metrics_follow_gap_threshold(tmp_path):
    trace = tmp_path / "capture.csv"
    write_capture(trace)
    out = tmp_path / "out"
    assert main(["analyze", str(trace), "--gap-threshold", "6.0",
                 "--output", str(out)]) == 0
    analysis = read(out / "analysis.json")
    tm = analysis["trace_metrics"]
    assert analysis["batches"]["gap_threshold_ms"] == 6.0
    assert (analysis["batches"]["modal_spacing_ms"]
            == tm["batch_spacing_modal_ms"])
    assert (analysis["frames"]["batches_per_frame_mean"]
            == tm["batches_per_frame_mean"])


# -- one error line for a problem with a command's inputs or paths ----------


def error_line(capsys) -> str:
    """The one line a command printed on stderr, which must be an error."""
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    return line


def good_argv(tmp_path) -> dict:
    """Each command's arguments, with inputs it reads without complaint."""
    cfg = write_config(make_cfg(duration_s=0.2, runs=2),
                       tmp_path / "cfg.yaml")
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp,length\n0.0,1243\n0.001,1243\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"trace_metrics": {"fps_estimate": 90.0}}))
    return {"simulate": ["simulate", "--config", cfg],
            "sweep": ["sweep", "--config", cfg, "--axis", "fps",
                      "--values", "60"],
            "analyze": ["analyze", str(trace)],
            "compare": ["compare", str(report), str(report)]}


def test_packet_size_int64_cannot_hold_exits_2(tmp_path, capsys):
    # 2**63 bytes once ended the run in OverflowError, in _packetize
    cfg = make_cfg(duration_s=0.2, runs=1,
                   traffic={"packet_size_bytes": 2**63})
    out = tmp_path / "out"
    assert main(["simulate", "--config",
                 write_config(cfg, tmp_path / "cfg.yaml"),
                 "--output", str(out)]) == 2
    assert "traffic.packet_size_bytes" in error_line(capsys)
    assert not out.exists()


# Known tracebacks, each raised before a run's event loop: valid configs
# that overflow a count or a time derived from them, and a capture whose
# lengths overflow a float when summed.
@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="stream_summaries sums lengths of 1e308 bytes")
def test_analyze_lengths_a_float_cannot_sum_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp,length\n0.0,1e308\n0.001,1e308\n"
                     "0.002,1e308\n")
    assert main(["analyze", str(trace),
                 "--output", str(tmp_path / "out")]) == 2
    error_line(capsys)


@pytest.mark.parametrize("field, overrides, raises", [
    pytest.param("traffic.fps", {"traffic": {"fps": 1.0e-300}}, ValueError,
                 id="fps"),
    pytest.param("sim.duration_s", {"duration_s": 1.0e+308}, OverflowError,
                 id="duration_s"),
    pytest.param("phy.control_rate_mbps",
                 {"phy": {"control_rate_mbps": 1.0e-308}}, OverflowError,
                 id="control_rate_mbps")])
def test_valid_config_beyond_what_a_run_can_count_exits_2(
        tmp_path, capsys, request, field, overrides, raises):
    request.applymarker(pytest.mark.xfail(
        strict=True, raises=raises,
        reason="no cost bound rejects the config before it runs"))
    cfg = make_cfg(**{"duration_s": 0.2, "runs": 1, **overrides})
    assert main(["simulate", "--config",
                 write_config(cfg, tmp_path / "cfg.yaml"),
                 "--output", str(tmp_path / "out")]) == 2
    assert field in error_line(capsys)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("text", [b"sim:\n  seed: 1  # caf\xe9\n",
                                  b"sim:\n  seed: 2001-13-01\n"],
                         ids=["not_utf8", "no_such_date"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, text):
    # simulate once ended both in a traceback, where sweep reported them
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    out = tmp_path / "out"
    argv = good_argv(tmp_path)[command] + ["--output", str(out)]
    argv[argv.index("--config") + 1] = str(path)
    assert main(argv) == 2
    assert error_line(capsys).startswith(f"error: cannot parse {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "analyze",
                                     "compare"])
def test_output_under_a_regular_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"
    assert main(good_argv(tmp_path)[command] + ["--output", str(out)]) == 2
    assert str(out) in error_line(capsys)


@pytest.mark.parametrize("command", ["simulate", "sweep", "analyze",
                                     "compare"])
def test_each_command_names_its_outputs_last_on_success_only(
        tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(good_argv(tmp_path)[command] + ["--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"  outputs in {out}"
    assert sum("outputs in" in line for line in lines) == 1
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(good_argv(tmp_path)[command]
                + ["--output", str(blocker / "out")]) == 2
    assert "outputs in" not in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_into_a_directory_named_like_its_trace_exits_2(
        tmp_path, capsys, jobs):
    # the run that exports the trace fails in a worker under --jobs 2
    out = tmp_path / "out"
    (out / "sim_trace.csv").mkdir(parents=True)
    argv = good_argv(tmp_path)["simulate"]
    assert main(argv + ["--jobs", jobs, "--output", str(out)]) == 2
    assert str(out / "sim_trace.csv") in error_line(capsys)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_fault_inside_a_run_still_raises(tmp_path, monkeypatch, command):
    from vrwifi import engine

    def run(sim):
        raise ValueError("a fault of the program")

    monkeypatch.setattr(engine._Sim, "run", run)
    argv = good_argv(tmp_path)[command] + ["--jobs", "1",
                                          "--output", str(tmp_path / "out")]
    with pytest.raises(ValueError, match="a fault of the program"):
        main(argv)


@pytest.mark.parametrize("data, named", [
    (b'{"trace_metrics": {"fps_estimate": 9\xff}}', "can't decode byte"),
    (b'{"trace_metrics": {"fps_estimate": ' + b"9" * 5000 + b"}}",
     "integer string conversion"),
], ids=["not_utf8", "too_many_digits"])
def test_compare_unreadable_report_exits_2(tmp_path, capsys, data, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = good_argv(tmp_path)["compare"]
    assert main(argv[:2] + [str(bad), "--output", str(tmp_path / "o")]) == 2
    line = error_line(capsys)
    assert str(bad) in line and named in line


CANONICAL_HEADER = ",".join(traceio.CANONICAL_COLUMNS).encode()
TSHARK_HEADER = (b"frame.time_epoch,frame.len,udp.srcport,udp.dstport,"
                 b"direction,rtp.p_type,rtp.ssrc,rtp.timestamp,rtp.marker,"
                 b"_ws.col.protocol")
# pieces of a capture that a reader finds hard, and some it reads well
HARD_PIECES = (
    b"\xef\xbb\xbf", b"\xff", b"caf\xe9", b"\x00", b'"', b'""', b",",
    b",,,,", b"\n", b"\r\n", b"\r", b" ", b"1.0", b"0.002", b"-1", b"0",
    b"1243", b"nan", b"DL", b"ul", b"96", b"true", b"RTP", b"DTLS",
    b"9" * (csv.field_size_limit() + 1), CANONICAL_HEADER, TSHARK_HEADER,
    b"1.0,1243,50000,5004,DL,96,7,3000,false,\n",
    b"1.0002,1243,50000,5004,DL,96,7,3000,true,RTP\n",
    b"1.011,1243,50000,5004,DL,96,7,4000,true,\n",
    b"1.0,1243,50000,5004,DL,96,7,4000,true,\n",
    b"-1e308,1243,50000,5004,DL,96,7,3000,true,\n",
    b"1e308,1243,50000,5004,DL,96,7,4000,true,\n",
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bom=st.booleans(),
       header=st.sampled_from([CANONICAL_HEADER + b"\n",
                               TSHARK_HEADER + b"\n",
                               b"timestamp,length\n", b""]),
       pieces=st.lists(st.sampled_from(HARD_PIECES), max_size=30),
       frames=st.booleans())
# two frames at one instant, which once divided by zero
@example(bom=False, header=CANONICAL_HEADER + b"\n",
         pieces=[b"1.0,1243,50000,5004,DL,96,7,3000,false,\n",
                 b"1.0,1243,50000,5004,DL,96,7,4000,true,\n"], frames=True)
def test_analyze_any_file_exits_0_or_2(tmp_path, capsys, bom, header,
                                       pieces, frames):
    # with no header given, the pieces make the header row too
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"\xef\xbb\xbf" * bom + header + b"".join(pieces))
    argv = ["analyze", str(trace), "--output", str(tmp_path / "out")]
    rc = main(argv + ["--frames"] * frames)
    err = capsys.readouterr().err.splitlines()
    assert rc == 0 or (rc == 2 and err[-1].startswith("error: "))
    if rc == 0:
        strict_json(tmp_path / "out" / "analysis.json")
