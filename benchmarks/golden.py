"""Golden-digest matrix: sha256 of every file `vrwifi simulate` writes,
for a fixed set of configs and seeds with short runs.

    python3 benchmarks/golden.py            # check against golden_digest.json
    python3 benchmarks/golden.py --record   # rewrite golden_digest.json

Run from the root of a vrwifi checkout. A change meant to keep behaviour
(refactor, deletion, speed-up) must leave every digest identical; a change
that moves the digest on purpose re-records it in its own commit. Exit
status 1 lists each entry and file whose digest moved.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

from workloads import sha256

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "golden_digest.json"
SEED = 1

# name -> config sections over the defaults; the defaults already are
# fps 90 and tau 5.56 ms, so those two points are the "defaults" entry
MATRIX = {
    "defaults": {},
    "fps30": {"traffic": {"fps": 30.0}},
    "fps60": {"traffic": {"fps": 60.0}},
    "tau0.01": {"traffic": {"inter_batch_time_ms": 0.01}},
    "per0": {"mac": {"per": 0.0}},
    "per0.5": {"mac": {"per": 0.5}},
    "rts_off": {"mac": {"rts_cts_enabled": False,
                        "ul_rts_cts_enabled": False}},
    "collisions_off": {"mac": {"collisions_enabled": False}},
    "cw_exchange": {"mac": {"cw_policy": "exchange"}},
}
SHORT_RUN = {"duration_s": 2.0, "runs": 2, "seed": SEED}


def digests(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = {}
    for name, sections in MATRIX.items():
        cfg = work / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump({**sections, "sim": SHORT_RUN}),
                       encoding="utf-8")
        outdir = work / name
        proc = subprocess.run(
            [sys.executable, "-m", "vrwifi.cli", "simulate", "--config",
             str(cfg), "--jobs", "1", "--output", str(outdir)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"golden: {name} exited {proc.returncode}\n"
                     f"{proc.stderr}")
        out[name] = {p.name: sha256(p) for p in sorted(outdir.iterdir())}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite golden_digest.json")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "vrwifi" / "cli.py").is_file():
        sys.exit("golden: run from the root of a vrwifi checkout")
    work = Path(".bench_work") / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    got = digests(root, work)
    if args.record:
        DIGEST_FILE.write_text(json.dumps(got, indent=1, sort_keys=True)
                               + "\n")
        print(f"golden: recorded {len(got)} entries in {DIGEST_FILE.name}")
        return 0
    want = json.loads(DIGEST_FILE.read_text())
    moved = [f"{name}/{f}" for name in sorted(set(want) | set(got))
             for f in sorted(set(want.get(name, {})) | set(got.get(name, {})))
             if want.get(name, {}).get(f) != got.get(name, {}).get(f)]
    for item in moved:
        print(f"golden: digest moved: {item}")
    print(f"golden: {len(got)} entries, "
          f"{'all digests identical' if not moved else f'{len(moved)} moved'}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
