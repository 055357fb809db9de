import dataclasses

import pytest
import yaml

from vrwifi.config import (MacConfig, PhyConfig, SimConfig, TrafficConfig,
                           config_to_dict)


# config sections with one wrongly typed or non-finite value each, and
# the key that config_errors must name
WRONGLY_TYPED = {
    "float_runs": ({"sim": {"runs": 2.0}}, "sim.runs"),
    "str_runs": ({"sim": {"runs": "3"}}, "sim.runs"),
    "str_per": ({"mac": {"per": "high"}}, "mac.per"),
    "str_bool": ({"traffic": {"ul_enabled": "no"}}, "traffic.ul_enabled"),
    # a float, but no finite one: it passed every range check
    "nan_fps": ({"traffic": {"fps": float("nan")}}, "traffic.fps"),
    "inf_duration": ({"sim": {"duration_s": float("inf")}}, "sim.duration_s"),
}


def write_wrongly_typed(path, name: str) -> str:
    """Write WRONGLY_TYPED[name] as a YAML config of short runs, in case
    it is accepted; returns the path."""
    sections = dict(WRONGLY_TYPED[name][0])
    sections["sim"] = {"duration_s": 0.2, "warmup_ms": 0.0,
                       **sections.get("sim", {})}
    path.write_text(yaml.safe_dump(sections))
    return str(path)


def write_config(cfg: SimConfig, path) -> str:
    """Write cfg as a YAML config that load_config reads back as cfg;
    returns the path."""
    path.write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
    return str(path)


def make_cfg(duration_s=1.0, warmup_ms=0.0, phy=None, mac=None,
             traffic=None, **top) -> SimConfig:
    """SimConfig with per-section overrides given as dicts."""
    cfg = SimConfig(duration_s=duration_s, warmup_ms=warmup_ms, **top)
    if phy:
        cfg = dataclasses.replace(cfg, phy=dataclasses.replace(cfg.phy, **phy))
    if mac:
        cfg = dataclasses.replace(cfg, mac=dataclasses.replace(cfg.mac, **mac))
    if traffic:
        cfg = dataclasses.replace(
            cfg, traffic=dataclasses.replace(cfg.traffic, **traffic))
    return cfg


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Replace the engine's process pool by one that runs every task in
    this process and records the max_workers it was asked for."""
    from vrwifi import engine

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def defaults() -> SimConfig:
    return SimConfig()


@pytest.fixture
def phy() -> PhyConfig:
    return PhyConfig()


@pytest.fixture
def mac() -> MacConfig:
    return MacConfig()


@pytest.fixture
def traffic_cfg() -> TrafficConfig:
    return TrafficConfig()
