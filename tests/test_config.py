import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from vrwifi.config import (ConfigError, MacConfig, SimConfig, TrafficConfig,
                           config_errors, load_config, validate_config)
from tests.conftest import (WRONGLY_TYPED, make_cfg, write_config,
                            write_wrongly_typed)

ROOT = Path(__file__).resolve().parent.parent


def test_default_config_is_valid():
    cfg = SimConfig()
    assert validate_config(cfg) is cfg
    assert cfg.mac.cw_min == 31 and cfg.mac.cw_max == 1023
    assert cfg.mac.max_ampdu == 256 and cfg.mac.max_retx == 7
    assert cfg.mac.per == 0.1
    assert cfg.mac.ap_buffer == 1000 and cfg.mac.client_buffer == 150
    assert cfg.phy.mcs_index == 11 and cfg.phy.channel_width_mhz == 80
    assert cfg.phy.spatial_streams == 2
    assert cfg.duration_s == 10.0 and cfg.runs == 10


def test_aifs_is_sifs_plus_two_slots():
    mac = MacConfig()
    assert mac.aifs_us == mac.sifs_us + 2 * mac.slot_us == 34.0


def test_per_out_of_range():
    cfg = make_cfg(mac={"per": 1.5})
    assert "per out of range" in config_errors(cfg)
    with pytest.raises(ConfigError, match="per out of range"):
        validate_config(cfg)


def test_cw_min_exceeds_cw_max():
    cfg = make_cfg(mac={"cw_min": 1023, "cw_max": 31})
    assert "cw_min exceeds cw_max" in config_errors(cfg)


@pytest.mark.parametrize("warmup_ms", [100.0, 500.0])
def test_warmup_covering_whole_run_rejected(warmup_ms):
    # no measured window is left, so the run could not be summarized
    cfg = make_cfg(duration_s=0.1, warmup_ms=warmup_ms)
    assert "warmup_ms must be shorter than duration_s" in config_errors(cfg)
    assert config_errors(make_cfg(duration_s=0.1, warmup_ms=99.0)) == []


def test_all_violations_reported_not_only_first():
    cfg = make_cfg(mac={"per": -2.0, "cw_min": 99, "cw_max": 31},
                   traffic={"fps": 0.0})
    errs = config_errors(cfg)
    assert "per out of range" in errs
    assert "cw_min exceeds cw_max" in errs
    assert "fps must be positive" in errs


def test_every_range_rule_in_order():
    # one config that breaks every range rule: each message, in the
    # order config_errors states the rules
    cfg = make_cfg(
        duration_s=0.0, runs=0, seed=-1, warmup_ms=-1.0,
        phy={"mcs_index": 12, "channel_width_mhz": 30, "spatial_streams": 0,
             "guard_interval_ns": 100, "control_rate_mbps": 0.0},
        mac={"per": 2.0, "cw_min": -1, "cw_max": -2, "max_ampdu": 0,
             "max_ampdu_bytes": 0, "max_retx": -1, "ap_buffer": 0,
             "client_buffer": 0, "aifs_us": 0.0, "sifs_us": 0.0,
             "slot_us": 0.0, "delivery_stamp": "x", "cw_policy": "x"},
        traffic={"fps": 0.0, "bitrate_bps": 0.0, "packet_size_bytes": 0,
                 "inter_batch_time_ms": 0.0, "batch_count_interval_ms": 0.0,
                 "intra_batch_gap_us": -1.0, "ul_period_ms": 0.0,
                 "ul_packet_size_bytes": 0, "pacer_anchor": "x"})
    assert config_errors(cfg) == [
        "mcs_index out of range (0-11)",
        "channel_width_mhz not one of 20/40/80/160",
        "spatial_streams out of range (1-8)",
        "guard_interval_ns not one of 800/1600/3200",
        "control_rate_mbps must be positive",
        "per out of range",
        "cw_min exceeds cw_max",
        "cw_min negative",
        "max_ampdu must be >= 1",
        "max_ampdu_bytes must be >= 1 or null",
        "max_retx negative",
        "ap_buffer must be >= 1",
        "client_buffer must be >= 1",
        "aifs_us must be positive",
        "sifs_us must be positive",
        "slot_us must be positive",
        "delivery_stamp must be back_end or data_end",
        "cw_policy must be retry, exchange, or exchange_any",
        "fps must be positive",
        "bitrate_bps must be positive",
        "packet_size_bytes must be positive",
        "inter_batch_time_ms must be positive",
        "batch_count_interval_ms must be positive",
        "intra_batch_gap_us negative",
        "ul_period_ms must be positive",
        "ul_packet_size_bytes must be positive",
        "pacer_anchor must be frame or global",
        "duration_s must be positive",
        "runs must be >= 1",
        "seed must be >= 0",
        "warmup_ms negative",
    ]


def test_validate_is_idempotent():
    cfg = validate_config(SimConfig())
    assert validate_config(cfg) == cfg


def test_load_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == SimConfig()


def test_load_partial_override(tmp_path):
    path = tmp_path / "fps.yaml"
    path.write_text("traffic:\n  fps: 60\n")
    cfg = load_config(str(path))
    assert cfg.traffic.fps == 60
    assert cfg.traffic.bitrate_bps == SimConfig().traffic.bitrate_bps
    assert cfg.mac == SimConfig().mac


def test_load_malformed_document(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("traffic: [unterminated\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(str(path))


def test_load_unknown_key_rejected(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("traffic:\n  fsp: 60\n")
    with pytest.raises(ConfigError, match="unknown key 'traffic.fsp'"):
        load_config(str(path))


# one YAML document per rejection, and the one message it gives; of two
# faulty sections, the first in the order phy, mac, traffic, sim is
# named, whatever order the file writes them in
LOADER_REJECTIONS = {
    "list_top_level": ("- phy\n- mac\n",
                       "{path}: top level must be a mapping"),
    "unknown_section": ("phyy:\n  mcs_index: 3\n", "unknown section 'phyy'"),
    "phy_not_mapping": ("phy: [1]\n", "section 'phy' must be a mapping"),
    "sim_not_mapping": ("sim: 5\n", "section 'sim' must be a mapping"),
    "unknown_sim_key": ("sim: {durations: 3}\n",
                        "unknown key 'sim.durations'"),
    "mac_and_sim_keys": ("mac: {cw: 3}\nsim: {durations: 3}\n",
                         "unknown key 'mac.cw'"),
    "sim_written_first": ("sim: {durations: 3}\nphy: {mcs: 3}\n",
                          "unknown key 'phy.mcs'"),
}


@pytest.mark.parametrize("name", sorted(LOADER_REJECTIONS))
def test_load_rejection_message(tmp_path, name):
    document, message = LOADER_REJECTIONS[name]
    path = tmp_path / "rejected.yaml"
    path.write_text(document)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert info.value.errors == [message.format(path=path)]


def test_load_invalid_value_rejected(tmp_path):
    path = tmp_path / "badval.yaml"
    path.write_text("mac:\n  per: 3.0\n")
    with pytest.raises(ConfigError, match="per out of range"):
        load_config(str(path))


@given(
    fps=st.sampled_from([24.0, 30.0, 60.0, 90.0, 120.0]),
    mcs=st.integers(min_value=0, max_value=11),
    per=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tau=st.sampled_from([0.01, 1.0, 2.0, 5.56, 10.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_save_load_round_trip(tmp_path_factory, fps, mcs, per, tau, seed):
    cfg = make_cfg(duration_s=3.5, phy={"mcs_index": mcs},
                   mac={"per": per},
                   traffic={"fps": fps, "inter_batch_time_ms": tau},
                   seed=seed)
    path = write_config(cfg, tmp_path_factory.mktemp("cfg") / "rt.yaml")
    assert load_config(path) == cfg


def test_traffic_defaults_match_observed_streams():
    tr = TrafficConfig()
    assert tr.packet_size_bytes == 1243
    assert tr.bitrate_bps == 50e6
    assert tr.inter_batch_time_ms == 5.56
    assert tr.intra_batch_gap_us == 5.0
    assert tr.ul_period_ms == 4.16 and tr.ul_packet_size_bytes == 175


@pytest.mark.parametrize("name", sorted(WRONGLY_TYPED))
def test_wrongly_typed_value_named(tmp_path, name):
    key = WRONGLY_TYPED[name][1]
    path = write_wrongly_typed(tmp_path / "typed.yaml", name)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert [e.split(" ")[0] for e in info.value.errors] == [key]


def test_null_byte_bound_accepted_bool_int_rejected():
    assert config_errors(make_cfg(mac={"max_ampdu_bytes": None})) == []
    errs = config_errors(make_cfg(mac={"max_ampdu": True},
                                  traffic={"fps": False}))
    assert [e.split(" ")[0] for e in errs] == ["mac.max_ampdu",
                                               "traffic.fps"]


@pytest.mark.parametrize("overrides, expected", [
    ({"traffic": {"packet_size_bytes": 2**63}},
     ["traffic.packet_size_bytes must be below 2**63"]),
    ({"traffic": {"ul_packet_size_bytes": 2**63}},
     ["traffic.ul_packet_size_bytes must be below 2**63"]),
    ({"mac": {"cw_min": 2**63, "cw_max": 2**63}},
     ["mac.cw_min must be below 2**63", "mac.cw_max must be below 2**63"]),
    ({"mac": {"ap_buffer": 10**400}}, ["mac.ap_buffer must be below 2**63"]),
    ({"phy": {"rts_bytes": 10**400}}, ["phy.rts_bytes must be below 2**63"]),
    ({"phy": {"mcs_index": 2**63}},
     ["mcs_index out of range (0-11)", "phy.mcs_index must be below 2**63"]),
    ({"traffic": {"packet_size_bytes": 2**63 - 1,
                  "ul_packet_size_bytes": 2**63 - 1}}, []),
    ({"seed": 2**64}, []),
], ids=["packet_size", "ul_packet_size", "cw", "ap_buffer", "rts_bytes",
        "mcs_index_after_its_range", "packet_sizes_2_63_less_1",
        "seed_2_64"])
def test_integers_must_be_below_2_63_but_the_seed(overrides, expected):
    # each rejected value once ended a run in a traceback: int64 holds
    # none of them, and a 400-digit int does not convert to float
    assert config_errors(make_cfg(**overrides)) == expected


def test_sample_config_and_readme_block_are_the_defaults(tmp_path):
    assert load_config(str(ROOT / "config.sample.yaml")) == SimConfig()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Configuration file"):]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert load_config(str(path)) == SimConfig()
