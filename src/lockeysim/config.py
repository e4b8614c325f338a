"""Experiment configuration: defaults, file loading, and validation.

Config files are flat key/value mappings with dotted section names
(``harness.trials: 1000``), parsed as YAML; nested sections are accepted and
flattened.  Every key has a default, so an empty file is a complete
configuration.  Validation failures name the offending key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

from .fading import DEFAULT_PROFILES, TapProfile, _us
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
    "protocol.gamma_mode": "round",      # round | window
    "protocol.gamma_window": 200,
    "harness.snr_grid_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "harness.trials": 1000,
    "harness.schemes": ["non_loopback", "loopback", "lockey"],
    "harness.n_units_grid": [30],
    "harness.attacked_grid": [5],
    "harness.master_seed": 0,
    "harness.jobs": 1,
}

#: Accepted values of ``protocol.gamma_mode``.
GAMMA_MODES = ("round", "window")

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

    The ranges and choices of the scalar and grid fields, and the rules that
    tie fields together, are checked here, so a configuration built from a
    file, from `with_overrides` or from a preset obeys them; a violation
    raises `ConfigError` naming the dotted key.  The waveform checks its own
    ranges (`OfdmConfig` raises the same error); the tap profiles, noise
    reference and schemes are checked where `build_config` parses them.
    """

    ofdm: OfdmConfig
    noise_ref_mode: str
    profiles: dict
    gamma_mode: str
    gamma_window: int
    snr_grid_db: tuple
    trials: int
    schemes: tuple
    n_units_grid: tuple
    attacked_grid: tuple
    master_seed: int
    jobs: int

    def __post_init__(self):
        for key, grid in (("harness.snr_grid_db", self.snr_grid_db), ("harness.schemes", self.schemes),
                          ("harness.n_units_grid", self.n_units_grid),
                          ("harness.attacked_grid", self.attacked_grid)):
            if len(grid) == 0:
                raise ConfigError(f"{key}: expected a non-empty list")
        for key, values, minimum in (
            ("protocol.gamma_window", (self.gamma_window,), 1),
            # four samples per subcarrier column are the fewest the quartile
            # quantizer can place its thresholds in
            ("harness.trials", (self.trials,), 4),
            ("harness.n_units_grid", self.n_units_grid, 1),
            ("harness.attacked_grid", self.attacked_grid, 0),
            ("harness.master_seed", (self.master_seed,), 0),
            ("harness.jobs", (self.jobs,), 1),
        ):
            for value in values:
                if not value >= minimum:
                    raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        if self.gamma_mode not in GAMMA_MODES:
            raise ConfigError(
                f"protocol.gamma_mode: expected one of {list(GAMMA_MODES)}, got {self.gamma_mode!r}")
        for snr_db in self.snr_grid_db:
            if not -MAX_SNR_DB <= snr_db <= MAX_SNR_DB:
                raise ConfigError(
                    f"harness.snr_grid_db: must lie within +-{MAX_SNR_DB:g} dB, got {snr_db}")
        if max(self.attacked_grid) > min(self.n_units_grid):
            raise ConfigError(
                f"harness.attacked_grid (max {max(self.attacked_grid)}) exceeds "
                f"harness.n_units_grid (min {min(self.n_units_grid)}); every sweep cell "
                "needs attacked units <= surface units"
            )

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
        probe over the pilot subcarriers.  A number is used as-is.
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


def _require_int(raw, key):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    return raw


def _require_number(raw, key):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _require_choice(raw, key, choices):
    if raw not in choices:
        raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {raw!r}")
    return raw


def _require_list(raw, key):
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {raw!r}")
    return list(raw)


def _profile_for(link, values):
    delays_us = values[f"channel.{link}.delays_us"]
    powers = values[f"channel.{link}.powers_db"]
    if delays_us is None and powers is None:
        return DEFAULT_PROFILES[link]
    if delays_us is None or powers is None:
        raise ConfigError(
            f"channel.{link}: a custom profile needs both delays_us and powers_db"
        )
    try:
        return TapProfile(_us(delays_us), tuple(powers))
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
        symbol_length=_require_int(values["ofdm.symbol_length"], "ofdm.symbol_length"),
        subcarrier_spacing_hz=_require_number(
            values["ofdm.subcarrier_spacing_khz"], "ofdm.subcarrier_spacing_khz") * 1e3,
        pilot_interval=_require_int(values["ofdm.pilot_interval"], "ofdm.pilot_interval"),
    )

    noise_ref_raw = values["ofdm.noise_ref"]
    if isinstance(noise_ref_raw, (int, float)) and not isinstance(noise_ref_raw, bool):
        if not math.isfinite(float(noise_ref_raw)) or float(noise_ref_raw) <= 0:
            raise ConfigError(f"ofdm.noise_ref: a numeric reference power must be > 0, got {noise_ref_raw!r}")
        noise_ref_mode = float(noise_ref_raw)
    else:
        noise_ref_mode = _require_choice(noise_ref_raw, "ofdm.noise_ref", {"link", "pilot", "measured"})

    profiles = {link: _profile_for(link, values) for link in _LINK_KEYS}

    snr_grid = tuple(
        _require_number(v, "harness.snr_grid_db")
        for v in _require_list(values["harness.snr_grid_db"], "harness.snr_grid_db")
    )
    trials = _require_int(values["harness.trials"], "harness.trials")
    schemes = tuple(
        Scheme(_require_choice(v, "harness.schemes", {s.value for s in Scheme}))
        for v in _require_list(values["harness.schemes"], "harness.schemes")
    )
    n_units_grid, attacked_grid = (
        tuple(_require_int(v, key) for v in _require_list(values[key], key))
        for key in ("harness.n_units_grid", "harness.attacked_grid")
    )

    return ExperimentConfig(
        ofdm=ofdm,
        noise_ref_mode=noise_ref_mode,
        profiles=profiles,
        gamma_mode=values["protocol.gamma_mode"],
        gamma_window=_require_int(values["protocol.gamma_window"], "protocol.gamma_window"),
        snr_grid_db=snr_grid,
        trials=trials,
        schemes=schemes,
        n_units_grid=n_units_grid,
        attacked_grid=attacked_grid,
        master_seed=_require_int(values["harness.master_seed"], "harness.master_seed"),
        jobs=_require_int(values["harness.jobs"], "harness.jobs"),
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
    import yaml

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
