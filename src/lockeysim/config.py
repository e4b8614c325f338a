"""Experiment configuration: defaults, file loading, and validation.

Config files are flat key/value mappings with dotted section names
(``ris.n_units: 30``), parsed as YAML; nested sections are accepted and
flattened.  Every key has a default, so an empty file is a complete
configuration.  Validation failures name the offending key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import yaml

from .fading import DEFAULT_PROFILES, TapProfile
from .ofdm import OfdmConfig
from .protocol import Scheme


class ConfigError(ValueError):
    """A configuration file violated an invariant; the message names the key."""


_LINK_KEYS = ("alice_bob", "alice_ris", "ris_bob", "alice_hf", "bob_hf")

#: Default value of every recognized configuration key.
DEFAULTS = {
    "ofdm.symbol_length": 64,
    "ofdm.subcarrier_spacing_khz": 15.0,
    "ofdm.pilot_interval": 5,
    "ofdm.noise_ref": "link",            # link | pilot | measured | number
    "ris.n_units": 30,
    "ris.attacked_units": 5,
    "fading.max_doppler_hz": 5.0,
    "protocol.gamma_mode": "round",      # round | window
    "protocol.gamma_window": 200,
    "protocol.tau_ms": 1.0,
    "keygen.metric": "both",             # bit_rate | information | both
    "harness.snr_grid_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "harness.trials": 1000,
    "harness.schemes": ["non_loopback", "loopback", "lockey"],
    "harness.n_units_grid": None,        # defaults to [ris.n_units]
    "harness.attacked_grid": None,       # defaults to [ris.attacked_units]
    "harness.master_seed": 0,
    "harness.jobs": 1,
}

#: Largest SNR magnitude of the sweep axis, in dB.  Beyond about 3000 dB the
#: noise variance ``10**(-snr/10)`` is no longer a finite non-zero double;
#: the cap sits far inside that and far outside any physical link.
MAX_SNR_DB = 300.0

for _link in _LINK_KEYS:
    DEFAULTS[f"channel.{_link}.delays_us"] = None   # None: bundled profile
    DEFAULTS[f"channel.{_link}.powers_db"] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    The rules that tie fields together are checked here, so a configuration
    built from a file, from `with_overrides` or from a preset obeys them;
    a violation raises `ConfigError` naming the dotted key.
    """

    ofdm: OfdmConfig
    noise_ref_mode: str
    n_units: int
    attacked_units: int
    max_doppler_hz: float
    profiles: dict
    gamma_mode: str
    gamma_window: int
    tau_s: float
    metric: str
    snr_grid_db: tuple
    trials: int
    schemes: tuple
    n_units_grid: tuple
    attacked_grid: tuple
    master_seed: int
    jobs: int

    def __post_init__(self):
        if self.attacked_units > self.n_units:
            raise ConfigError(
                f"ris.attacked_units ({self.attacked_units}) exceeds ris.n_units ({self.n_units})"
            )
        if max(self.attacked_grid) > min(self.n_units_grid):
            raise ConfigError(
                f"harness.attacked_grid (max {max(self.attacked_grid)}) exceeds "
                f"harness.n_units_grid (min {min(self.n_units_grid)}); every sweep cell "
                "needs attacked units <= surface units"
            )
        # four samples per subcarrier column are the fewest the quartile
        # quantizer can place its thresholds in
        if self.trials < 4:
            raise ConfigError(f"harness.trials: must be >= 4, got {self.trials}")

    @property
    def noise_ref(self) -> Optional[float]:
        """Reference power the probe SNR is measured against.

        ``link``: the nominal per-unit link budget, the mean direction
        filter power times direct-path power plus the cascade of a single
        reflecting unit.  This keeps the noise floor independent of the
        surface size, so SNR axes stay comparable across sweeps over the
        unit count and larger surfaces genuinely raise the received SNR.
        ``pilot``: unit reference (noise variance exactly
        ``10**(-snr/10)``).  ``measured``: the mean received power of each
        probe.  A number is used as-is.
        """
        if self.noise_ref_mode == "pilot":
            return 1.0
        if self.noise_ref_mode == "measured":
            return None
        if self.noise_ref_mode == "link":
            direct = self.profiles["alice_bob"].total_power
            cascade = self.profiles["alice_ris"].total_power * self.profiles["ris_bob"].total_power
            filters = 0.5 * (self.profiles["alice_hf"].total_power + self.profiles["bob_hf"].total_power)
            return filters * (direct + cascade)
        return float(self.noise_ref_mode)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def _flatten(mapping, prefix=""):
    flat = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _require_int(raw, key, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {raw}")
    return raw


def _require_number(raw, key, minimum=None, maximum=None):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {raw}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key}: must be <= {maximum}, got {raw}")
    return value


def _require_choice(raw, key, choices):
    if raw not in choices:
        raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {raw!r}")
    return raw


def _require_list(raw, key):
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        raise ConfigError(f"{key}: expected a non-empty list, got {raw!r}")
    return list(raw)


def _profile_for(link, values, defaults=DEFAULT_PROFILES):
    delays_us = values[f"channel.{link}.delays_us"]
    powers = values[f"channel.{link}.powers_db"]
    if delays_us is None and powers is None:
        return defaults[link]
    if delays_us is None or powers is None:
        raise ConfigError(
            f"channel.{link}: a custom profile needs both delays_us and powers_db"
        )
    try:
        return TapProfile(tuple(d * 1e-3 for d in delays_us), tuple(powers))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"channel.{link}: {exc}") from exc


def build_config(overrides: Optional[dict] = None) -> ExperimentConfig:
    """Materialize a validated configuration from dotted-key overrides."""
    values = dict(DEFAULTS)
    unknown = [key for key in (overrides or {}) if key not in DEFAULTS]
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    values.update(overrides or {})

    ofdm = OfdmConfig(
        symbol_length=_require_int(values["ofdm.symbol_length"], "ofdm.symbol_length", 1),
        subcarrier_spacing_hz=_require_number(
            values["ofdm.subcarrier_spacing_khz"], "ofdm.subcarrier_spacing_khz", 0.0) * 1e3,
        pilot_interval=_require_int(values["ofdm.pilot_interval"], "ofdm.pilot_interval", 1),
    )

    noise_ref_raw = values["ofdm.noise_ref"]
    if isinstance(noise_ref_raw, (int, float)) and not isinstance(noise_ref_raw, bool):
        if not math.isfinite(float(noise_ref_raw)) or float(noise_ref_raw) <= 0:
            raise ConfigError(f"ofdm.noise_ref: a numeric reference power must be > 0, got {noise_ref_raw!r}")
        noise_ref_mode = float(noise_ref_raw)
    else:
        noise_ref_mode = _require_choice(noise_ref_raw, "ofdm.noise_ref", {"link", "pilot", "measured"})

    n_units = _require_int(values["ris.n_units"], "ris.n_units", 1)
    attacked = _require_int(values["ris.attacked_units"], "ris.attacked_units", 0)

    profiles = {link: _profile_for(link, values) for link in _LINK_KEYS}

    gamma_mode = _require_choice(values["protocol.gamma_mode"], "protocol.gamma_mode", {"round", "window"})
    gamma_window = _require_int(values["protocol.gamma_window"], "protocol.gamma_window", 1)
    tau_s = _require_number(values["protocol.tau_ms"], "protocol.tau_ms", 0.0) * 1e-3
    if tau_s <= 0:
        raise ConfigError("protocol.tau_ms: must be > 0")

    metric = _require_choice(values["keygen.metric"], "keygen.metric", {"bit_rate", "information", "both"})

    snr_grid = tuple(
        _require_number(v, "harness.snr_grid_db", -MAX_SNR_DB, MAX_SNR_DB)
        for v in _require_list(values["harness.snr_grid_db"], "harness.snr_grid_db")
    )
    trials = _require_int(values["harness.trials"], "harness.trials")
    schemes = tuple(
        Scheme(_require_choice(v, "harness.schemes", {s.value for s in Scheme}))
        for v in _require_list(values["harness.schemes"], "harness.schemes")
    )
    n_grid_raw = values["harness.n_units_grid"]
    n_units_grid = tuple(
        _require_int(v, "harness.n_units_grid", 1)
        for v in (_require_list(n_grid_raw, "harness.n_units_grid") if n_grid_raw is not None else [n_units])
    )
    attacked_raw = values["harness.attacked_grid"]
    attacked_grid = tuple(
        _require_int(v, "harness.attacked_grid", 0)
        for v in (_require_list(attacked_raw, "harness.attacked_grid") if attacked_raw is not None else [attacked])
    )
    master_seed = _require_int(values["harness.master_seed"], "harness.master_seed", 0)
    jobs = _require_int(values["harness.jobs"], "harness.jobs", 1)

    return ExperimentConfig(
        ofdm=ofdm,
        noise_ref_mode=noise_ref_mode,
        n_units=n_units,
        attacked_units=attacked,
        max_doppler_hz=_require_number(values["fading.max_doppler_hz"], "fading.max_doppler_hz", 0.0),
        profiles=profiles,
        gamma_mode=gamma_mode,
        gamma_window=gamma_window,
        tau_s=tau_s,
        metric=metric,
        snr_grid_db=snr_grid,
        trials=trials,
        schemes=schemes,
        n_units_grid=n_units_grid,
        attacked_grid=attacked_grid,
        master_seed=master_seed,
        jobs=jobs,
    )


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> ExperimentConfig:
    """Load and validate a configuration file.

    ``None`` or an empty file yields the full default configuration.
    `overrides` are dotted keys applied over the file's values before
    validation, so they are checked like any key in the file.
    """
    if path is None:
        return build_config(overrides)
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a key/value mapping at the top level")
    return build_config({**_flatten(raw), **(overrides or {})})
