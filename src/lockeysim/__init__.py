"""Monte-Carlo simulator for RIS-assisted physical-layer key generation.

The package models a two-party TDD probing protocol over tapped-delay-line
fading channels with a jammable reflecting surface, implements a loop-back
retransmission scheme with prediction-scalar compensation, verifies the
closed-form correlation and error-power predictions of the underlying
Gaussian model against Monte-Carlo estimates, and extracts Gray-coded keys
with rate and disagreement metrics.
"""

from .analysis import (
    DegenerateSampleError,
    ModelStats,
    PredictionError,
    correlation,
    empirical_mse,
    gamma_analytic,
    mse_prediction,
    rho1_analytic,
    rho2_analytic,
    sample_first_round_pairs,
    sample_loopback_pairs,
)
from .config import ConfigError, ExperimentConfig, build_config, load_config
from .fading import (
    DEFAULT_PROFILES,
    FadingProcess,
    TapProfile,
    add_awgn,
    fingerprint_response,
    frequency_response,
    make_fading_process,
)
from .harness import ResultRow, emit_csv, preset_config, run_cell, run_sweep
from .keygen import KeyMetrics, compute_thresholds, csk, kdr, quantize_gray2
from .ofdm import OfdmConfig
from .protocol import (
    Environment,
    Scheme,
    apply_compensation,
    estimate_gamma,
    estimate_round_gamma,
    loopback_combine,
    measure_round,
    run_round,
)
from .ris import surface_aggregates

__version__ = "0.1.0"
