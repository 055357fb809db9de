"""Configuration types for the link simulator.

All durations carry their unit in the field name. Instances are frozen:
once validated, a config can be shared freely across concurrent runs.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import yaml

VALID_CHANNEL_WIDTHS_MHZ = (20, 40, 80, 160)
VALID_GUARD_INTERVALS_NS = (800, 1600, 3200)
MAX_MCS_INDEX = 11


class ConfigError(ValueError):
    """Raised when a config fails validation; carries every violation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class PhyConfig:
    """PHY link parameters plus the frame-timing constants used to build
    control/data PPDU durations.

    Control frames (RTS/CTS/BACK) go out at a legacy basic rate with a
    legacy preamble; data PPDUs use the HE SU preamble. Both are exposed
    here so the 0.374 ms single-packet anchor can be recalibrated without
    touching code.
    """

    mcs_index: int = 11
    channel_width_mhz: int = 80
    spatial_streams: int = 2
    guard_interval_ns: int = 800
    band_ghz: str = "5"
    # frame/timing constants
    control_rate_mbps: float = 12.0
    legacy_preamble_us: float = 20.0
    he_preamble_us: float = 44.0
    rts_bytes: int = 20
    cts_bytes: int = 14
    back_bytes: int = 32
    mpdu_delimiter_bytes: int = 4


@dataclass(frozen=True)
class MacConfig:
    """EDCA/CSMA-CA parameters for both stations.

    AIFS 34 us equals SIFS + 2 slots with the 5 GHz OFDM values
    (16 + 2 x 9), which is why those are the defaults.
    """

    aifs_us: float = 34.0
    sifs_us: float = 16.0
    slot_us: float = 9.0
    cw_min: int = 31
    cw_max: int = 1023
    max_ampdu: int = 256
    # aggregate byte bound applied on top of the packet-count bound; the
    # classic 64 KB A-MPDU limit, which caps full-size video packets at
    # ~52 per aggregate while leaving small-packet aggregation alone
    max_ampdu_bytes: int | None = 65535
    max_retx: int = 7
    per: float = 0.1
    ap_buffer: int = 1000
    client_buffer: int = 150
    rts_cts_enabled: bool = True
    ul_rts_cts_enabled: bool = True
    collisions_enabled: bool = True
    # contention-window policy:
    #   "retry"        - CW tracks the head-of-line packet's retry count
    #                    (per-frame DCF semantics)
    #   "exchange"     - CW doubles only when an entire A-MPDU is lost,
    #                    any delivered MPDU resets it
    #   "exchange_any" - CW doubles when any MPDU of the A-MPDU is lost
    cw_policy: str = "retry"
    # when True, an access attempt transmits only the packets that were
    # buffered when its backoff was armed; later arrivals wait for the
    # next attempt
    ampdu_snapshot: bool = True
    # timestamp for a delivered packet: end of the BACK ("back_end") or
    # end of the data PPDU ("data_end")
    delivery_stamp: str = "back_end"


@dataclass(frozen=True)
class TrafficConfig:
    """Generated-traffic parameters: paced downlink video plus the
    periodic uplink controller stream."""

    fps: float = 90.0
    bitrate_bps: float = 50e6
    packet_size_bytes: int = 1243
    inter_batch_time_ms: float = 5.56
    # the per-frame batch count is drawn from [1, ceil(T / this)], which
    # stays pinned to the structural 5.56 ms burst interval even when the
    # release spacing above is swept
    batch_count_interval_ms: float = 5.56
    intra_batch_gap_us: float = 5.0
    ul_period_ms: float = 4.16
    ul_packet_size_bytes: int = 175
    ul_enabled: bool = True
    # "frame": batch k of a frame is released at gen + k*tau.
    # "global": releases snap to the global k*tau grid.
    pacer_anchor: str = "frame"


@dataclass(frozen=True)
class SimConfig:
    phy: PhyConfig = field(default_factory=PhyConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    duration_s: float = 10.0
    runs: int = 10
    seed: int = 1
    warmup_ms: float = 500.0


# what each field annotation admits; bool is an int subtype, so the
# numeric types exclude it; a real must be finite, as nan and inf slip
# past the range checks below
_ADMITS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: (isinstance(v, numbers.Integral)
                      and not isinstance(v, bool)),
    "float": lambda v: (isinstance(v, numbers.Real)
                        and not isinstance(v, bool) and math.isfinite(v)),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


# the YAML's sections, in the order load_config checks them: SimConfig's
# nested configs, then "sim" for SimConfig's own fields
_SECTIONS = ("phy", "mac", "traffic", "sim")


def _sections(cfg: SimConfig):
    """Each section's name, the object in cfg holding it, and its fields."""
    for name in _SECTIONS:
        obj = cfg if name == "sim" else getattr(cfg, name)
        yield name, obj, [f for f in dataclasses.fields(obj)
                          if f.name not in _SECTIONS]


def _type_errors(cfg: SimConfig) -> list[str]:
    """One message per field whose value its annotation does not admit."""
    errs = []
    for section, obj, fields in _sections(cfg):
        for f in fields:
            types = f.type.split(" | ")
            value = getattr(obj, f.name)
            if not any(_ADMITS[t](value) for t in types):
                errs.append(f"{section}.{f.name} must be "
                            f"{' or '.join(types)}, not {value!r}")
    return errs


def config_errors(cfg: SimConfig) -> list[str]:
    """Collect every violated invariant; empty list means valid.

    Wrongly typed and non-finite values are reported first and alone:
    the range checks below compare values as numbers."""
    errs = _type_errors(cfg)
    if errs:
        return errs
    phy, mac, tr = cfg.phy, cfg.mac, cfg.traffic

    def positive(obj, *names):
        errs.extend(f"{n} must be positive" for n in names
                    if getattr(obj, n) <= 0)

    def at_least_one(obj, *names):
        errs.extend(f"{n} must be >= 1" for n in names if getattr(obj, n) < 1)

    if not 0 <= phy.mcs_index <= MAX_MCS_INDEX:
        errs.append("mcs_index out of range (0-11)")
    if phy.channel_width_mhz not in VALID_CHANNEL_WIDTHS_MHZ:
        errs.append("channel_width_mhz not one of 20/40/80/160")
    if not 1 <= phy.spatial_streams <= 8:
        errs.append("spatial_streams out of range (1-8)")
    if phy.guard_interval_ns not in VALID_GUARD_INTERVALS_NS:
        errs.append("guard_interval_ns not one of 800/1600/3200")
    positive(phy, "control_rate_mbps")

    if not 0.0 <= mac.per <= 1.0:
        errs.append("per out of range")
    if mac.cw_min > mac.cw_max:
        errs.append("cw_min exceeds cw_max")
    if mac.cw_min < 0:
        errs.append("cw_min negative")
    at_least_one(mac, "max_ampdu")
    if mac.max_ampdu_bytes is not None and mac.max_ampdu_bytes < 1:
        errs.append("max_ampdu_bytes must be >= 1 or null")
    if mac.max_retx < 0:
        errs.append("max_retx negative")
    at_least_one(mac, "ap_buffer", "client_buffer")
    positive(mac, "aifs_us", "sifs_us", "slot_us")
    if mac.delivery_stamp not in ("back_end", "data_end"):
        errs.append("delivery_stamp must be back_end or data_end")
    if mac.cw_policy not in ("retry", "exchange", "exchange_any"):
        errs.append("cw_policy must be retry, exchange, or exchange_any")

    positive(tr, "fps", "bitrate_bps", "packet_size_bytes",
             "inter_batch_time_ms", "batch_count_interval_ms")
    if tr.intra_batch_gap_us < 0:
        errs.append("intra_batch_gap_us negative")
    positive(tr, "ul_period_ms", "ul_packet_size_bytes")
    if tr.pacer_anchor not in ("frame", "global"):
        errs.append("pacer_anchor must be frame or global")

    positive(cfg, "duration_s")
    at_least_one(cfg, "runs")
    if cfg.seed < 0:
        errs.append("seed must be >= 0")
    if cfg.warmup_ms < 0:
        errs.append("warmup_ms negative")
    elif cfg.duration_s > 0 and cfg.warmup_ms * 1e3 >= cfg.duration_s * 1e6:
        # the measured window (duration minus warm-up) would be empty
        errs.append("warmup_ms must be shorter than duration_s")
    # a run holds these in int64 or as floats; numpy takes any seed
    for section, obj, fields in _sections(cfg):
        errs += [f"{section}.{f.name} must be below 2**63" for f in fields
                 if "int" in f.type.split(" | ") and f.name != "seed"
                 and (getattr(obj, f.name) or 0) >= 2**63]
    return errs


def validate_config(cfg: SimConfig) -> SimConfig:
    """Return cfg unchanged if every invariant holds, else raise
    ConfigError listing all violations (not only the first)."""
    errs = config_errors(cfg)
    if errs:
        raise ConfigError(errs)
    return cfg


def load_config(path: str) -> SimConfig:
    """Load a YAML config; unspecified fields take the defaults above.

    The result always passes validate_config. Parse problems raise
    ConfigError with line context; nothing partial is ever returned.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: a byte not UTF-8, or a date such as 2001-13-01
            where = ""
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                where = f" (line {mark.line + 1}, column {mark.column + 1})"
            raise ConfigError([f"cannot parse {path}{where}: {exc}"]) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError([f"unknown section '{k}'" for k in sorted(unknown)])

    kwargs = {}
    for section, default, fields in _sections(SimConfig()):
        values = raw.get(section, {}) or {}
        if not isinstance(values, dict):
            raise ConfigError([f"section '{section}' must be a mapping"])
        unknown = set(values) - {f.name for f in fields}
        if unknown:
            raise ConfigError(
                [f"unknown key '{section}.{k}'" for k in sorted(unknown)])
        kwargs[section] = dataclasses.replace(default, **values)
    return validate_config(dataclasses.replace(kwargs.pop("sim"), **kwargs))


def config_to_dict(cfg: SimConfig) -> dict:
    return {section: {f.name: getattr(obj, f.name) for f in fields}
            for section, obj, fields in _sections(cfg)}

