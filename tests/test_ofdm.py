import numpy as np
import pytest

from lockeysim.ofdm import OfdmConfig

#: Pilot subcarriers of the default waveform: every estimate has this many entries.
PILOTS = OfdmConfig().pilot_positions.size


@pytest.fixture
def config():
    return OfdmConfig()


class TestOfdmConfig:
    def test_defaults(self, config):
        assert config.symbol_length == 64
        assert config.pilot_interval == 5
        np.testing.assert_array_equal(config.pilot_positions[:3], [0, 5, 10])
        assert config.pilot_positions[-1] == 60

    def test_rejects_bad_pilot_interval(self):
        with pytest.raises(ValueError):
            OfdmConfig(pilot_interval=0)

    def test_subcarrier_freqs(self, config):
        freqs = config.subcarrier_freqs
        assert freqs[0] == 0.0
        assert freqs[1] == 15e3
        assert len(freqs) == 64

    def test_pilot_freqs(self, config):
        np.testing.assert_array_equal(config.pilot_freqs, config.subcarrier_freqs[config.pilot_positions])
        assert len(config.pilot_freqs) == PILOTS == 13
        assert config.pilot_freqs[1] == 75e3

    def test_pilot_grid_built_once_and_read_only(self, config):
        # the grid is a constant of the frozen waveform, shared by every probe
        freqs = config.pilot_freqs
        assert config.pilot_freqs is freqs and not freqs.flags.writeable
        assert config._pilot_grid is config._pilot_grid
        assert config._pilot_grid == tuple(freqs.tolist())
        other = OfdmConfig(pilot_interval=4)
        assert len(other.pilot_freqs) == 16 and other == OfdmConfig(pilot_interval=4)
