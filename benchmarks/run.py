"""vrwifi benchmark: run one workload's CLI command as users run it and
print every metric BENCHMARK.json names.

    python3 benchmarks/run.py --workload simulate-paper --seed 1 \
        --seconds 35 --trace 0

Run from the root of a vrwifi checkout. Commands run as a closed loop
from this one process: each starts after the previous one has ended, and
none uses more than 2 cores. All times are host times.

--trace 0  end-to-end metrics: set-up time (fresh interpreter, import,
           config load), then the workload's command repeated for
           --seconds seconds; medians over the repeats.
--trace 1  per-layer metrics: the command with --jobs 1, once untraced
           and once under layer_trace.py, repeated for --seconds seconds.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The line before it is the full report (quartiles, sample
counts, error rate, output fingerprint, machine), also written to
.bench_work/<workload>/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS, sha256, single_process_argv

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3          # quartiles and the byte-identity check need >= 2
SETUP_PER_ROUND = 2      # set-up probes before each repeat of the command
FINGERPRINTS = HERE / "fingerprints.json"

# set-up as a user pays it: a fresh interpreter imports the CLI, parses
# the command line and loads and validates the config, and stops there
SETUP_PROBE = (
    "import sys, vrwifi.cli as c\n"
    "a = c.build_parser().parse_args(sys.argv[1:])\n"
    "if getattr(a, 'config', None): c.load_config(a.config)\n"
)


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec(root: Path) -> dict:
    if not (root / "src" / "vrwifi" / "cli.py").is_file():
        fail("run from the root of a vrwifi checkout (no src/vrwifi here)")
    return json.loads((root / "BENCHMARK.json").read_text())


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, all CPUs, since
    boot; its growth over a run shows a noisy shared host."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(argv: list, env: dict, log: Path) -> dict:
    """Run one process to completion; host wall time, plus user+system
    CPU and peak RSS of it and every child it reaped (wait4)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def spread(values: list) -> dict:
    """Median with quartiles, sample count and the samples."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def fits(t_start: float, durations: list, seconds: float) -> bool:
    """Whether one more repeat, as long as the median so far, still ends
    within the measuring window."""
    elapsed = time.perf_counter() - t_start
    return elapsed + statistics.median(durations) <= seconds


def output_hashes(out: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def checked(wl, out: Path, prep) -> tuple[list, int, dict]:
    """The workload's output check; a malformed output is an error, not
    a crash of the benchmark."""
    try:
        return wl.check(out, prep)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output check raised {exc!r}"], 0, {}


class Bench:
    def __init__(self, args, root: Path, spec: dict):
        self.args = args
        self.spec = spec
        self.wl = WORKLOADS[args.workload]
        self.work = Path(".bench_work") / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.python = sys.executable
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.prep = self.wl.prepare(self.work, args.seed, SIZES[args.size])
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        # outputs of the first good repeat: digests, check result, work done
        self.hashes0: dict | None = None
        self.check_errors: list = []
        self.items, self.stats = 0, {}

    def cli(self, argv: list, out: Path, log: str) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        return run_child([self.python, "-m", "vrwifi.cli", *argv,
                          "--output", str(out)], self.env, self.work / log)

    def count(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(why)

    def check_repeat(self, out: Path) -> None:
        """The first good repeat's outputs are checked; every later one
        must be byte-identical to them."""
        hashes = output_hashes(out)
        if self.hashes0 is None:
            self.hashes0 = hashes
            self.check_errors, self.items, self.stats = checked(
                self.wl, out, self.prep)
            self.count(not self.check_errors, "; ".join(self.check_errors))
        elif hashes != self.hashes0:
            self.count(False, "outputs differ from the first repeat")
        else:
            self.count(not self.check_errors, "; ".join(self.check_errors))

    # -- end-to-end -----------------------------------------------------------

    def setup_time(self) -> float:
        argv = [self.python, "-c", SETUP_PROBE, *self.prep.argv,
                "--output", str(self.work / "setup-out")]
        r = run_child(argv, self.env, self.work / "setup.log")
        if r["rc"] != 0:
            fail(f"set-up probe exited {r['rc']}, see "
                 f"{self.work / 'setup.log'}")
        return r["wall_s"]

    def end_to_end(self) -> tuple[dict, dict]:
        self.setup_time()   # warm-up: byte-compiles vrwifi, fills caches
        first = self.work / "out-0"
        setup, runs, rounds = [], [], []
        t_loop = time.perf_counter()
        while len(runs) < MIN_REPEATS or fits(t_loop, rounds,
                                              self.args.seconds):
            t_round = time.perf_counter()
            # set-up probes spread over the window, not bunched at its start
            setup += [self.setup_time() for _ in range(SETUP_PER_ROUND)]
            out = first if not runs else self.work / "out-n"
            r = self.cli(self.prep.argv, out, f"cmd-{len(runs)}.log")
            runs.append(r)
            if r["rc"] != 0:
                self.count(False, f"repeat {len(runs)}: exit {r['rc']}")
            else:
                self.check_repeat(out)
            rounds.append(time.perf_counter() - t_round)
        shutil.rmtree(self.work / "out-n", ignore_errors=True)
        walls = [r["wall_s"] for r in runs]
        throughput = [self.items / w for w in walls]
        report = {
            "setup_s": spread(setup),
            "wall_s": spread(walls),
            "cpu_s": spread([r["cpu_s"] for r in runs]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
            "items_per_s": spread(throughput),
        }
        unit_metric = ("trace_rows_per_s" if self.wl.unit == "trace rows"
                       else "sim_packets_per_s")
        extra = {
            unit_metric: report["items_per_s"],
            "items": self.items,
            "item_unit": self.wl.unit,
            "fingerprint": {"files": self.hashes0 or {},
                            "virtual_time_stats": self.stats},
        }
        return report, extra

    # -- per-layer ------------------------------------------------------------

    def per_layer(self) -> tuple[dict, dict]:
        argv = single_process_argv(self.prep.argv)
        tracer = str(HERE / "layer_trace.py")
        samples, untraced_walls, counts0 = [], [], None
        t_loop, pair_walls = time.perf_counter(), []
        while not samples or fits(t_loop, pair_walls, self.args.seconds):
            i = len(samples)
            t_pair = time.perf_counter()
            plain_out, traced_out = self.work / "plain", self.work / "traced"
            tdir = self.work / "trace"
            shutil.rmtree(tdir, ignore_errors=True)
            tdir.mkdir()
            plain = self.cli(argv, plain_out, f"plain-{i}.log")
            shutil.rmtree(traced_out, ignore_errors=True)
            traced = run_child([self.python, tracer, str(tdir), "--", *argv,
                                "--output", str(traced_out)], self.env,
                               self.work / f"traced-{i}.log")
            self.count(plain["rc"] == 0, f"untraced exit {plain['rc']}")
            if plain["rc"] or traced["rc"]:
                self.count(False, f"traced exit {traced['rc']}")
                break
            layers = json.loads((tdir / "layers.json").read_text())
            errors, items, _ = checked(self.wl, traced_out, self.prep)
            if output_hashes(plain_out) != output_hashes(traced_out):
                errors.append("traced outputs differ from untraced outputs")
            errors += self.trace_consistency(layers, items)
            if counts0 is None:
                counts0 = layers["counts"]
            elif layers["counts"] != counts0:
                errors.append("exact counts differ between traced repeats")
            self.count(not errors, "; ".join(errors))
            overhead = traced["wall_s"] - layers["write_s"] - plain["wall_s"]
            samples.append(layer_values(layers, overhead, self.spec))
            untraced_walls.append(plain["wall_s"])
            pair_walls.append(time.perf_counter() - t_pair)
        if not samples:
            return {}, {}
        values = {name: statistics.median(s[name] for s in samples)
                  for name in samples[0]}
        extra = {"traced_repeats": len(samples),
                 "untraced_wall_s": spread(untraced_walls),
                 "spans": layers["spans"]}
        return values, extra

    def trace_consistency(self, layers: dict, items: int) -> list:
        c = layers["counts"]
        errors = []
        if c["engine.unbalanced_runs"]:
            errors.append(f"{c['engine.unbalanced_runs']} run(s) do not "
                          "conserve packets")
        expected = (c["engine.generated"] if self.wl.unit != "trace rows"
                    else c["traceio.records"])
        if items != expected:
            errors.append(f"benchmark counted {items} {self.wl.unit}, "
                          f"the program {expected}")
        return errors


def layer_values(layers: dict, overhead_s: float, spec: dict) -> dict:
    """Per-layer metric values from one traced run (layer_trace.py)."""
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    names = [m["name"] for m in spec["per_layer"]]
    layer_names = {n.split(".")[0] for n in self_s}
    v = {"trace.wall_s": layers["wall_s"], "trace.overhead_s": overhead_s}
    for layer in sorted(layer_names):
        v[f"{layer}.self_s"] = sum(t for n, t in self_s.items()
                                   if n.startswith(layer + "."))
    for span in self_s:
        v[f"{span}.s"] = self_s[span]
        v[f"{span}.self_s"] = self_s[span]
        v[f"{span}.calls"] = calls[span]
    for layer in layer_names:
        named = [n for n in names if n.startswith(layer + ".")
                 and n.rsplit(".", 1)[0] in self_s
                 and n.rsplit(".", 1)[1] in ("s", "self_s")]
        v[f"{layer}.other_s"] = v[f"{layer}.self_s"] - sum(v[n] for n in named)
    v["other_s"] = layers["wall_s"] - sum(v[f"{l}.self_s"]
                                          for l in layer_names)
    v.update(counts)
    virtual = counts["engine.virtual_s"]
    engine_s = layers["total_s"]["engine.run_simulation"]
    v["engine.host_s_per_virtual_s"] = engine_s / virtual if virtual else 0.0
    attempts = counts["mac.mpdu_attempts"]
    v["mac.delivered_per_attempt"] = (counts["mac.delivered"] / attempts
                                      if attempts else 0.0)
    missing = [n for n in names if n not in v]
    if missing:
        fail(f"per-layer metrics not computed: {missing}")
    return {n: v[n] for n in names}


def compare_fingerprint(workload: str, seed: int, size: str,
                        fingerprint: dict, record: bool) -> str:
    """Compare with (or record into) fingerprints.json. A change is
    reported, never counted as a failure."""
    if size != "full":
        return "not recorded at this size"
    book = (json.loads(FINGERPRINTS.read_text())
            if FINGERPRINTS.exists() else {})
    if record:
        book.setdefault(workload, {})[str(seed)] = fingerprint
        FINGERPRINTS.write_text(json.dumps(book, indent=1, sort_keys=True)
                                + "\n")
        return "recorded"
    ref = book.get(workload, {}).get(str(seed))
    if ref is None:
        return "no recorded fingerprint for this seed"
    changed = [f"files/{k}" for k in sorted(set(ref["files"])
                                            | set(fingerprint["files"]))
               if ref["files"].get(k) != fingerprint["files"].get(k)]
    changed += [f"stats/{k}" for k in sorted(ref["virtual_time_stats"])
                if ref["virtual_time_stats"][k]
                != fingerprint["virtual_time_stats"].get(k)]
    if changed:
        return "CHANGED: " + ", ".join(changed)
    return "matches recorded"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test input sizes")
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this run's output fingerprint")
    args = parser.parse_args()
    root = Path.cwd()
    spec = load_spec(root)
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")

    machine = {"python": platform.python_version(),
               "numpy": __import__("numpy").__version__,
               "nproc": len(os.sched_getaffinity(0)),
               "machine": platform.machine(),
               "loadavg_before": loadavg()}
    steal_before = steal_s()
    bench = Bench(args, root, spec)
    if args.trace:
        values, extra = bench.per_layer()
        wanted = spec["per_layer"]
    else:
        report, extra = bench.end_to_end()
        values = {name: s["median"] for name, s in report.items()}
        extra["spread"] = report
        extra["fingerprint_vs_recorded"] = compare_fingerprint(
            args.workload, args.seed, args.size, extra["fingerprint"],
            args.record_fingerprint)
        wanted = spec["end_to_end"]
    machine["loadavg_after"] = loadavg()
    steal_after = steal_s()
    machine["cpu_steal_s"] = (steal_after - steal_before
                              if None not in (steal_before, steal_after)
                              else None)

    correct = bench.failed == 0 and bench.attempted > 0 and bool(values)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "error_rate": bench.failed / max(1, bench.attempted),
            "errors": bench.errors, **extra, "machine": machine}
    (bench.work / "report.json").write_text(json.dumps(
        {**full, "metrics": metrics}, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
