"""Experiment configuration: defaults, file loading, and validation.

Config files are flat key/value mappings with dotted section names
(``harness.trials: 1000``), parsed as YAML; nested sections are accepted and
flattened.  Every key has a default, so an empty file is a complete
configuration.  Validation failures name the offending key.
"""

from __future__ import annotations

import math
import numbers
import os
import types
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial
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


def _integer(value, key, minimum):
    """`value` as an int >= `minimum`; a bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _choice(value, key, choices):
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {list(choices)}, got {value!r}")
    return value


def _snr(value, key):
    if not (_is_number(value) and -MAX_SNR_DB <= value <= MAX_SNR_DB):
        raise ConfigError(f"{key}: expected a number within +-{MAX_SNR_DB:g} dB, got {value!r}")
    return float(value)


def _scheme(value, key):
    try:
        return Scheme(value)
    except ValueError:
        raise ConfigError(f"{key}: expected one of {[s.value for s in Scheme]}, got {value!r}") from None


def _noise_ref(value, key):
    if not _is_number(value):
        return _choice(value, key, ("link", "pilot", "measured"))
    if not 0 < value < math.inf:
        raise ConfigError(f"{key}: a numeric reference power must be finite and > 0, got {value!r}")
    return float(value)


#: Field, configuration key and check of each single-valued field; a check
#: returns the value normalized or raises `ConfigError` naming the key.
_SCALARS = (
    ("noise_ref_mode", "ofdm.noise_ref", _noise_ref),
    ("gamma_mode", "protocol.gamma_mode", partial(_choice, choices=GAMMA_MODES)),
    ("gamma_window", "protocol.gamma_window", partial(_integer, minimum=1)),
    # four samples per subcarrier column are the fewest the quartile
    # quantizer can place its thresholds in
    ("trials", "harness.trials", partial(_integer, minimum=4)),
    ("master_seed", "harness.master_seed", partial(_integer, minimum=0)),
    ("jobs", "harness.jobs", partial(_integer, minimum=1)),
)

#: The same for each list field; the check applies to every entry.
_LISTS = (
    ("snr_grid_db", "harness.snr_grid_db", _snr),
    ("schemes", "harness.schemes", _scheme),
    ("n_units_grid", "harness.n_units_grid", partial(_integer, minimum=1)),
    ("attacked_grid", "harness.attacked_grid", partial(_integer, minimum=0)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    Every field is checked and normalized here, so a configuration built
    from a file, from CLI overrides, from `with_overrides` or from a preset
    obeys the same rules; a violation raises `ConfigError` naming the dotted
    key.  Integers are ints and not bools; each list field is a non-empty
    list or tuple of distinct entries and is stored as a tuple; a scheme may
    be given by name and is stored as a `Scheme`; a numeric noise reference
    is stored as a float.  `profiles`, stored as a read-only copy, maps the
    five links to `TapProfile`s (which check their own taps), and `ofdm` is
    an `OfdmConfig` (which checks its own fields and raises the same error).
    """

    ofdm: OfdmConfig
    noise_ref_mode: str | float
    profiles: Mapping
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
        if not isinstance(self.ofdm, OfdmConfig):
            raise ConfigError(f"ofdm: expected an OfdmConfig, got {self.ofdm!r}")
        for link in _LINK_KEYS:
            profile = self.profiles.get(link) if isinstance(self.profiles, Mapping) else None
            if not isinstance(profile, TapProfile):
                raise ConfigError(f"channel.{link}: expected a TapProfile, got {profile!r}")
        object.__setattr__(self, "profiles", types.MappingProxyType(dict(self.profiles)))
        for field, key, check in _SCALARS:
            object.__setattr__(self, field, check(getattr(self, field), key))
        for field, key, check in _LISTS:
            raw = getattr(self, field)
            if not isinstance(raw, (list, tuple)) or len(raw) == 0:
                raise ConfigError(f"{key}: expected a non-empty list, got {raw!r}")
            values = tuple(check(value, key) for value in raw)
            if len(set(values)) < len(values):
                raise ConfigError(f"{key}: entries must be distinct, got {list(raw)!r}")
            object.__setattr__(self, field, values)
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
        return self.noise_ref_mode

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def _flatten(mapping, prefix=""):
    """Dotted keys of a nested mapping; a key given both nested and dotted is an error."""
    flat = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        entries = _flatten(value, f"{name}.") if isinstance(value, dict) else {name: value}
        for dotted, leaf in entries.items():
            if dotted in flat:
                raise ConfigError(f"{dotted}: given both nested and dotted")
            flat[dotted] = leaf
    return flat


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

    spacing = values["ofdm.subcarrier_spacing_khz"]
    return ExperimentConfig(
        ofdm=OfdmConfig(
            symbol_length=values["ofdm.symbol_length"],
            # a non-number goes on unscaled, for OfdmConfig to reject
            subcarrier_spacing_hz=spacing * 1e3 if _is_number(spacing) else spacing,
            pilot_interval=values["ofdm.pilot_interval"],
        ),
        profiles={link: _profile_for(link, values) for link in _LINK_KEYS},
        **{field: values[key] for field, key, _ in (*_SCALARS, *_LISTS)},
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

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a key/value mapping at the top level")
    return build_config({**_flatten(raw), **(overrides or {})})
