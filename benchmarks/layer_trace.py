"""Run one vrwifi CLI command with a span around every call that crosses
a module boundary, and write the per-layer totals.

    python3 benchmarks/layer_trace.py OUT_DIR -- simulate --config c.yaml ...

Each public function that another module calls is replaced, in every
vrwifi module that looks it up (``vrwifi.engine.traffic_mod``,
``vrwifi.cli.run_simulation``, ``vrwifi.engine.vf_delay``, ...), by a
wrapper that records a span (name, start, end, parent). Calls inside one
module (phy's helpers under ``exchange_airtime``, say) count toward the
boundary span that made them. Spans stay in memory and are written to
OUT_DIR/spans.npz once the command has ended; the totals the benchmark
reports go to OUT_DIR/layers.json.

Run it with ``--jobs 1`` so that every span lands in this process.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from array import array
from pathlib import Path

T_START = time.perf_counter()

# Boundary functions by layer, the module that defines them; each span is
# named "<layer>.<function>".
BOUNDARY = {
    "config": ["load_config", "validate_config", "config_to_dict"],
    "traffic": ["generate_video_frames", "video_packet_emissions",
                "ul_controller_stream"],
    "engine": ["run_simulation", "run_seeds", "run_sweep", "set_axis"],
    "mac": ["make_station", "enqueue", "cw_for_retry", "draw_backoff",
            "assemble_ampdu", "apply_per", "handle_back",
            "note_exchange_failure", "note_exchange_success"],
    "phy": ["exchange_airtime"],
    "metrics": ["vf_delay", "metrics_summary", "summarize", "ecdf"],
    "traceio": ["parse_trace", "write_trace", "delivered_trace",
                "classify_streams", "stream_summaries", "detect_batches",
                "batch_spacings_ms", "modal_spacing_ms",
                "reconstruct_frames", "inter_frame_times_ms",
                "assembly_delays", "interarrival_jitter"],
    "cli": ["main", "cmd_simulate", "cmd_sweep", "cmd_analyze",
            "cmd_compare"],
}
METHODS = {("metrics", "RunMetrics"): ["record_attempt", "record_delivery"]}


class Tracer:
    """In-memory span store with self time kept per span name.

    A span's self time is its duration minus the time its direct child
    spans cover; children end before their parent, so one stack of
    [span index, child time] frames computes it as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.stack: list[list] = []
        self.hooks = {}     # span name -> callback(result)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        clock, stack = time.perf_counter, self.stack
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                total_s[nid] += dur
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        import vrwifi.cli  # noqa: F401  (loads every vrwifi module)
        modules = [m for n, m in sys.modules.items()
                   if n == "vrwifi" or n.startswith("vrwifi.")]
        for layer, funcs in BOUNDARY.items():
            home = sys.modules[f"vrwifi.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"vrwifi.{layer}"], cls_name)
            for meth in methods:
                setattr(cls, meth,
                        self.wrap(f"{layer}.{meth}", getattr(cls, meth)))

    def save(self, path: Path) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def run_counts(results: list) -> dict:
    """Exact counts read off the engine's results after the command."""
    exchanges = collisions = attempts = delivered = 0
    drops_buffer = drops_retx = generated = 0
    unbalanced = 0
    for r in results:
        m = r.metrics
        exchanges += len(m.tx_log)
        for rec in m.tx_log:
            if rec.role == "collision":
                collisions += 1
            attempts += rec.n_mpdus
        delivered += m.delivered_video + m.delivered_ul
        drops_buffer += m.dropped_buffer
        drops_retx += m.dropped_retx
        gen = m.generated_video + m.generated_ul
        generated += gen
        accounted = (m.delivered_video + m.delivered_ul + m.dropped_buffer
                     + m.dropped_retx + m.residual)
        unbalanced += gen != accounted
    pooled = [r for r in results if r.frames is None]
    return {
        "engine.runs": len(results),
        "engine.virtual_s": sum(r.config_echo.duration_s for r in results),
        "engine.exchanges": exchanges,
        "engine.collisions": collisions,
        "engine.result_pickle_bytes": (
            sum(len(pickle.dumps(r)) for r in pooled) // len(pooled)
            if pooled else 0),
        "engine.generated": generated,
        "engine.unbalanced_runs": unbalanced,
        "mac.mpdu_attempts": attempts,
        "mac.delivered": delivered,
        "mac.drops_buffer": drops_buffer,
        "mac.drops_retx": drops_retx,
    }


def main(argv: list) -> int:
    out = Path(argv[0])
    cli_argv = argv[2:] if argv[1:2] == ["--"] else argv[1:]
    tracer = Tracer()
    results = []
    counts = {"traffic.packets": 0, "traceio.records": 0,
              "traceio.skipped_rows": 0}

    def on_packets(packets):
        counts["traffic.packets"] += len(packets)

    def on_parse(parsed):
        counts["traceio.records"] += len(parsed.records)
        counts["traceio.skipped_rows"] += len(parsed.skipped)

    tracer.hooks.update({
        "engine.run_simulation": results.append,
        "traffic.video_packet_emissions": on_packets,
        "traffic.ul_controller_stream": on_packets,
        "traceio.parse_trace": on_parse,
    })
    tracer.install()
    import vrwifi.cli
    rc = vrwifi.cli.main(cli_argv)
    wall = time.perf_counter() - T_START

    t_write = time.perf_counter()
    tracer.save(out / "spans.npz")
    counts.update(run_counts(results))
    layers = {
        "rc": rc,
        "wall_s": wall,
        "self_s": dict(zip(tracer.names, tracer.self_s)),
        "total_s": dict(zip(tracer.names, tracer.total_s)),
        "calls": dict(zip(tracer.names, tracer.calls)),
        "counts": counts,
        "spans": len(tracer.start),
    }
    layers["write_s"] = time.perf_counter() - t_write
    (out / "layers.json").write_text(json.dumps(layers, indent=1))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
