"""Seeded Monte-Carlo sweeps over SNR, scheme, surface size and attack level.

Each sweep cell runs all of its trials as one batched round (and its
gamma-training window, if any, as another).  Each block draws its random
streams from the master seed and the cell's own parameters, never from its
position in the sweep, so results are reproducible bit-for-bit regardless
of worker count and unaffected by adding or removing other cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import analysis, keygen
from ._rng import substream
from .config import ExperimentConfig, build_config
from .fading import fingerprint_response
from .ofdm import pilot_values
from .protocol import GAMMA_PER_ROUND, RoundResult, Scheme, build_environment, estimate_gamma, run_round

#: Tags separating the measurement block from the training block in the
#: per-cell stream derivation.
_MEASURE_TAG = 0
_TRAIN_TAG = 1

#: Offset making the millidB SNR component of a stream key non-negative.
_SNR_KEY_OFFSET = 1 << 30

_SCHEME_ORDER = {scheme: i for i, scheme in enumerate(Scheme)}


@dataclass(frozen=True)
class ResultRow:
    """Aggregated metrics of one sweep cell."""

    scheme: str
    snr_db: float
    n_units: int
    attacked_units: int
    rho_empirical: float
    rho_analytic: float
    gamma: float
    mse_empirical: float
    mse_analytic: float
    csk_bits: float
    csk_info: float
    kdr: float
    trials: int
    flag: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _cell_stream(config: ExperimentConfig, scheme: Scheme, snr_db: float, n_units: int, attacked: int, tag: int):
    """Stream key of one block of rounds, a function of the cell parameters only."""
    snr_key = int(round(snr_db * 1000.0)) + _SNR_KEY_OFFSET
    if snr_key < 0:
        raise ValueError("snr_db out of the encodable range")
    return (
        int(config.master_seed),
        _SCHEME_ORDER[scheme],
        snr_key,
        int(n_units),
        int(attacked),
        int(tag),
    )


def _run_block(config: ExperimentConfig, scheme: Scheme, snr_db, n_units, attacked, gamma, tag, trials) -> RoundResult:
    """`trials` rounds of one cell as one batched round."""
    stream = _cell_stream(config, scheme, snr_db, n_units, attacked, tag)
    env = build_environment(
        config.ofdm,
        config.profiles,
        n_units,
        attacked,
        snr_db,
        substream(stream, 0),
        noise_ref=config.noise_ref,
        trials=trials,
    )
    return run_round(scheme, env, gamma, substream(stream, 1))


def _train_gamma(config: ExperimentConfig, snr_db, n_units, attacked):
    """Per-subcarrier prediction scalar fitted on a separate training window."""
    window = config.gamma_window
    history = _run_block(config, Scheme.LOOPBACK, snr_db, n_units, attacked, None, _TRAIN_TAG, window)
    return estimate_gamma(history.key_source_alice, history.key_source_bob, min_rounds=window)


def model_stats_for_cell(config: ExperimentConfig, snr_db: float, n_units: int) -> analysis.ModelStats:
    """Model statistics implied by the environment of one sweep cell.

    Link variances are read off the tap profiles and rescaled to the
    unit-noise convention of the closed forms.  The surface aggregate means
    are zero because the generator draws phases uniformly at random, which
    the surface module's invariants pin down.
    """
    freqs = config.ofdm.subcarrier_freqs[config.ofdm.pilot_positions]
    g_a = float(np.mean(np.abs(fingerprint_response(config.profiles["alice_hf"], freqs)) ** 2))
    g_b = float(np.mean(np.abs(fingerprint_response(config.profiles["bob_hf"], freqs)) ** 2))
    var_ab = config.profiles["alice_bob"].total_power
    var_arb = config.profiles["alice_ris"].total_power * config.profiles["ris_bob"].total_power
    ref = config.noise_ref
    if ref is None:  # measured: SNR tracks the mean received power
        ref = 0.5 * (g_a + g_b) * (var_ab + n_units * var_arb)
    noise_var = ref * 10.0 ** (-snr_db / 10.0)
    return analysis.ModelStats(
        g_a=g_a, g_b=g_b, a=0.0, b=0.0,
        var_arb=var_arb / noise_var, var_ab=var_ab / noise_var,
    )


def _quantize_block(values: np.ndarray) -> np.ndarray:
    """Gray-coded bits of a (trials, subcarriers) block of estimates.

    Each subcarrier column is one measurement block: it is quantized against
    its own quartile thresholds, so fixed per-subcarrier gains (hardware
    filters) cannot misalign the two parties' quantization cells.
    """
    magnitudes = np.abs(values)
    return keygen.quantize_gray2(magnitudes, keygen.compute_thresholds(magnitudes)).bits


def run_cell(config: ExperimentConfig, scheme: Scheme, snr_db: float, n_units: int, attacked: int) -> ResultRow:
    """Run all trials of one sweep cell and aggregate its metrics.

    A degenerate sample block becomes a row flagged ``error: ...``; any
    other exception is a fault of the program and propagates.
    """
    try:
        return _run_cell(config, scheme, snr_db, n_units, attacked)
    except analysis.DegenerateSampleError as exc:  # record, never drop silently
        nan = float("nan")
        return ResultRow(
            scheme.value, float(snr_db), n_units, attacked,
            nan, nan, nan, nan, nan, nan, nan, nan, config.trials,
            flag=f"error: {exc}",
        )


def _run_cell(config, scheme, snr_db, n_units, attacked):
    if scheme is not Scheme.LOCKEY:
        gamma = None
    elif config.gamma_mode == "round":
        gamma = GAMMA_PER_ROUND
    else:
        gamma = _train_gamma(config, snr_db, n_units, attacked)

    result = _run_block(config, scheme, snr_db, n_units, attacked, gamma, _MEASURE_TAG, config.trials)
    alice = pilot_values(result.key_source_alice, config.ofdm)
    bob = pilot_values(result.key_source_bob, config.ofdm)

    alice_flat = alice.ravel()
    bob_flat = bob.ravel()
    rho = abs(analysis.correlation(alice_flat, bob_flat))
    # Normalized error power: the raw squared error of loop-back products is
    # dominated by a few heavy-tailed rounds, normalizing by the reference
    # power makes the column comparable across cells and stable at the
    # configured trial counts.
    bob_power = float(np.mean(np.abs(bob_flat) ** 2))
    mse = analysis.empirical_mse(alice_flat, bob_flat).mse / bob_power

    bits_a = _quantize_block(alice)
    bits_b = _quantize_block(bob)
    metrics = keygen.csk(rho, bits_a, bits_b, subcarriers_used=alice_flat.size)

    stats = model_stats_for_cell(config, snr_db, n_units)
    if scheme is Scheme.NON_LOOPBACK:
        rho_analytic = analysis.rho1_analytic(stats)
    elif scheme is Scheme.LOOPBACK:
        rho_analytic = analysis.rho2_analytic(stats)
    else:
        rho_analytic = math.nan
    if scheme is Scheme.LOCKEY:
        # Same normalization as the empirical column: reference side power.
        ref_power = stats.g_b * (stats.b ** 2 * stats.s4_arb + stats.s4_ab) + analysis.NOISE_VAR
        mse_analytic = analysis.mse_prediction(analysis.gamma_analytic(stats), stats) / ref_power
        gamma_mean = float(np.mean(np.abs(result.gamma_used)))
    else:
        mse_analytic = math.nan
        gamma_mean = math.nan

    return ResultRow(
        scheme=scheme.value,
        snr_db=float(snr_db),
        n_units=int(n_units),
        attacked_units=int(attacked),
        rho_empirical=rho,
        rho_analytic=rho_analytic,
        gamma=gamma_mean,
        mse_empirical=mse,
        mse_analytic=mse_analytic,
        csk_bits=metrics.csk_bit_rate,
        csk_info=metrics.csk_information,
        kdr=metrics.kdr,
        trials=config.trials,
    )


def sweep_cells(config: ExperimentConfig):
    """The (scheme, snr, n_units, attacked) grid of a sweep, in row order."""
    return [
        (scheme, snr, n, k)
        for scheme in config.schemes
        for n in config.n_units_grid
        for k in config.attacked_grid
        for snr in config.snr_grid_db
    ]


def _cell_worker(args):
    config, scheme, snr, n, k = args
    return run_cell(config, scheme, snr, n, k)


def run_sweep(config: ExperimentConfig, jobs: Optional[int] = None) -> list:
    """Run every cell of the configured sweep.

    The worker count affects scheduling only: per-cell seed derivation makes
    the result rows identical for any `jobs` value.
    """
    jobs = config.jobs if jobs is None else jobs
    cells = sweep_cells(config)
    args = [(config, scheme, snr, n, k) for scheme, snr, n, k in cells]
    if jobs <= 1 or len(cells) <= 1:
        return [_cell_worker(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_cell_worker, args))


def _format_value(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".6g")
    return str(value)


def emit_csv(rows, path: str) -> None:
    """Write result rows as CSV with reproducible 6-significant-digit floats."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, name)) for name in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Sweep presets for the six standard experiment panels.
# ---------------------------------------------------------------------------

#: The distinct sweeps of the panels, as `ExperimentConfig` field values.
_PRESETS = {
    # correlation, key rate and disagreement of the three schemes at a fixed
    # attack level (panels a, c and f)
    "fig5a": {"schemes": tuple(Scheme), "attacked_grid": (5,)},
    # prediction error and key rate of the compensated scheme by attack
    # level (panels b and e)
    "fig5b": {"schemes": (Scheme.LOCKEY,), "attacked_grid": (2, 10, 20)},
    # key rate of the compensated scheme by surface size
    "fig5d": {"schemes": (Scheme.LOCKEY,), "n_units_grid": (10, 20, 30), "attacked_grid": (5,)},
    # sweep axes straight from the config
    "custom": {},
}

#: Panels that plot another column of an already listed sweep.
_PRESET_ALIASES = {"fig5c": "fig5a", "fig5e": "fig5b", "fig5f": "fig5a"}

PRESET_NAMES = tuple(sorted({*_PRESETS, *_PRESET_ALIASES}))


def preset_config(name: str, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Configuration of a named sweep preset, layered over `base` (the
    defaults if None) and validated like any other configuration."""
    preset = _PRESET_ALIASES.get(name, name)
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {list(PRESET_NAMES)}")
    return (build_config() if base is None else base).with_overrides(**_PRESETS[preset])
