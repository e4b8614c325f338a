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
