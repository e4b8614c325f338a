"""One validation path: `ExperimentConfig` and `OfdmConfig` check and
normalize their own fields, so a configuration file, CLI overrides,
`with_overrides` and the presets are held to the same rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim.config import DEFAULTS, ConfigError, build_config, load_config
from lockeysim.harness import run_cell
from lockeysim.ofdm import OfdmConfig
from lockeysim.protocol import Scheme

#: ``ExperimentConfig`` field of each configuration key that maps to one
#: field unchanged.
PLAIN_FIELDS = {
    "ofdm.noise_ref": "noise_ref_mode",
    "protocol.gamma_mode": "gamma_mode",
    "protocol.gamma_window": "gamma_window",
    "harness.snr_grid_db": "snr_grid_db",
    "harness.trials": "trials",
    "harness.schemes": "schemes",
    "harness.n_units_grid": "n_units_grid",
    "harness.attacked_grid": "attacked_grid",
    "harness.master_seed": "master_seed",
    "harness.jobs": "jobs",
}

LIST_KEYS = ("harness.snr_grid_db", "harness.schemes", "harness.n_units_grid", "harness.attacked_grid")

_scalars = st.one_of(
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "round", "window", "link", "pilot", "measured", "lockey", "loopback"]),
    st.none(),
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=4), _scalars.map(lambda v: [v, v]))


def _outcome(make):
    try:
        return make()
    except ConfigError as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(PLAIN_FIELDS)), value=_values)
def test_file_keys_and_with_overrides_agree(key, value):
    from_file = _outcome(lambda: build_config({key: value}))
    from_field = _outcome(lambda: build_config({}).with_overrides(**{PLAIN_FIELDS[key]: value}))
    if isinstance(from_file, ConfigError) or isinstance(from_field, ConfigError):
        assert isinstance(from_file, ConfigError) and isinstance(from_field, ConfigError)
        assert key in str(from_file) and key in str(from_field)
    else:
        assert from_file == from_field


@pytest.mark.parametrize("field, value, key", [
    ("trials", 5.5, "harness.trials"),
    ("profiles", {}, "channel.alice_bob"),
    ("noise_ref_mode", -1.0, "ofdm.noise_ref"),
    ("noise_ref_mode", math.inf, "ofdm.noise_ref"),
    ("noise_ref_mode", "loud", "ofdm.noise_ref"),
    ("jobs", 1.5, "harness.jobs"),
    ("master_seed", True, "harness.master_seed"),
    ("gamma_window", None, "protocol.gamma_window"),
    ("snr_grid_db", ("x",), "harness.snr_grid_db"),
    ("snr_grid_db", 10.0, "harness.snr_grid_db"),
    ("schemes", (), "harness.schemes"),
    ("schemes", ("telepathy",), "harness.schemes"),
    ("n_units_grid", (10.0,), "harness.n_units_grid"),
    ("attacked_grid", (False,), "harness.attacked_grid"),
])
def test_with_overrides_rejects_what_a_file_would(field, value, key):
    with pytest.raises(ConfigError, match=key):
        build_config({}).with_overrides(**{field: value})


def test_ofdm_and_profiles_must_be_their_types():
    config = build_config({})
    with pytest.raises(ConfigError, match="^ofdm: "):
        config.with_overrides(ofdm={"symbol_length": 64})
    profiles = dict(config.profiles, ris_bob=None)
    with pytest.raises(ConfigError, match="channel.ris_bob"):
        config.with_overrides(profiles=profiles)


def test_profiles_are_a_read_only_copy():
    # the checks ran on these profiles, so neither the config's mapping nor
    # the caller's dict it was built from may change them afterwards
    profiles = dict(build_config({}).profiles)
    config = build_config({"harness.trials": 8}).with_overrides(profiles=profiles)
    with pytest.raises(TypeError):
        config.profiles["alice_bob"] = config.profiles["ris_bob"]
    with pytest.raises(AttributeError):
        config.profiles.clear()
    profiles.clear()
    assert config.profiles["alice_bob"] == build_config({}).profiles["alice_bob"]
    assert config.with_overrides(trials=9).profiles == config.profiles
    assert len(run_cell(config, 10.0, 30, 5)) == 3


def test_values_are_normalized():
    config = build_config({}).with_overrides(
        schemes=["lockey", Scheme.LOOPBACK], snr_grid_db=[10], n_units_grid=[30], noise_ref_mode=2)
    assert config.schemes == (Scheme.LOCKEY, Scheme.LOOPBACK)
    assert config.snr_grid_db == (10.0,) and type(config.snr_grid_db[0]) is float
    assert config.n_units_grid == (30,)
    assert config.noise_ref_mode == 2.0 and type(config.noise_ref_mode) is float
    assert config == build_config({"harness.schemes": ["lockey", "loopback"], "harness.snr_grid_db": [10.0],
                                   "ofdm.noise_ref": 2.0})


@pytest.mark.parametrize("key", LIST_KEYS)
def test_repeated_list_entries_rejected(key, tmp_path):
    value = {"harness.snr_grid_db": [10, 10.0], "harness.schemes": ["lockey", "lockey"],
             "harness.n_units_grid": [30, 30], "harness.attacked_grid": [5, 5]}[key]
    path = tmp_path / "repeat.yaml"
    path.write_text(f"{key}: {value}\n".replace("'", ""))
    with pytest.raises(ConfigError, match=f"{key}: entries must be distinct"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=f"{key}: entries must be distinct"):
        build_config({}).with_overrides(**{PLAIN_FIELDS[key]: tuple(value)})


def test_scheme_given_by_name_and_as_scheme_is_a_repeat():
    with pytest.raises(ConfigError, match="harness.schemes: entries must be distinct"):
        build_config({}).with_overrides(schemes=("lockey", Scheme.LOCKEY))


@pytest.mark.parametrize("field, value, key", [
    ("symbol_length", 64.5, "ofdm.symbol_length"),
    ("symbol_length", True, "ofdm.symbol_length"),
    ("pilot_interval", "5", "ofdm.pilot_interval"),
    ("pilot_interval", 5.0, "ofdm.pilot_interval"),
    ("subcarrier_spacing_hz", "15e3", "ofdm.subcarrier_spacing_khz"),
    ("subcarrier_spacing_hz", math.inf, "ofdm.subcarrier_spacing_khz"),
    ("subcarrier_spacing_hz", None, "ofdm.subcarrier_spacing_khz"),
])
def test_ofdm_field_types_named(field, value, key):
    with pytest.raises(ConfigError, match=key):
        OfdmConfig(**{field: value})


@pytest.mark.parametrize("key, value", [
    ("ofdm.symbol_length", 64.5),
    ("ofdm.pilot_interval", True),
    ("ofdm.subcarrier_spacing_khz", True),
    ("ofdm.subcarrier_spacing_khz", "15"),
])
def test_ofdm_file_keys_typed(key, value):
    with pytest.raises(ConfigError, match=key):
        build_config({key: value})


def test_ofdm_fields_normalized():
    ofdm = OfdmConfig(subcarrier_spacing_hz=15000)
    assert type(ofdm.subcarrier_spacing_hz) is float and ofdm == OfdmConfig()


#: A valid non-default value of each key; a custom tap profile needs both of
#: its keys, so each link's pair is one case.
NON_DEFAULT = [
    {"ofdm.symbol_length": 32},
    {"ofdm.subcarrier_spacing_khz": 30.0},
    {"ofdm.pilot_interval": 4},
    {"ofdm.noise_ref": "pilot"},
    {"protocol.gamma_mode": "window"},
    {"protocol.gamma_window": 50},
    {"harness.snr_grid_db": [10.0]},
    {"harness.trials": 8},
    {"harness.schemes": ["lockey"]},
    {"harness.n_units_grid": [10]},
    {"harness.attacked_grid": [2]},
    {"harness.master_seed": 7},
    {"harness.jobs": 2},
] + [
    {f"{link}.delays_us": [0.0, 1.0], f"{link}.powers_db": [0.0, -3.0]}
    for link in sorted({key.rsplit(".", 1)[0] for key in DEFAULTS if key.startswith("channel.")})
]


def test_non_default_cases_cover_every_key():
    assert sorted(key for case in NON_DEFAULT for key in case) == sorted(DEFAULTS)


@pytest.mark.parametrize("overrides", NON_DEFAULT, ids=lambda case: min(case))
def test_every_key_is_read(overrides):
    assert build_config(overrides) != build_config({})


def test_snr_beyond_the_stream_key_raises_on_a_direct_call():
    # the config caps |SNR| at 300 dB; a direct call far beyond it cannot
    # encode a non-negative stream key
    with pytest.raises(ValueError, match="non-negative"):
        run_cell(build_config({"harness.trials": 8}), -2e6, 30, 5)
