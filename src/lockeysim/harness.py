"""Seeded Monte-Carlo sweeps over SNR, surface size and attack level.

The unit of work is a sweep point (SNR, surface size, attack level).  Each
point runs all of its trials as one batched two-slot round (and its
gamma-training window, if any, as another), and every configured scheme
reads its key sources from that one round.  Each block draws its random
streams from the master seed and the point's own parameters, never from its
position in the sweep or from the schemes configured, so results are
reproducible bit-for-bit regardless of worker count and unaffected by
adding or removing other points or schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional

import numpy as np

from . import analysis, keygen
from .config import ExperimentConfig, build_config
from .fading import fingerprint_response
from .protocol import Environment, Scheme, estimate_gamma, loopback_combine, measure_round, run_round

#: (lead, tag) stream-key parts of the measured block and the training window.
#: They are the keys the lockey cell and its training window had when each
#: scheme ran its own round, so the lockey rows stay as they were.
_MEASURE_BLOCK = (2, 0)
_TRAIN_BLOCK = (1, 1)

#: Offset making the millidB SNR component of a stream key non-negative.
_SNR_KEY_OFFSET = 1 << 30


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


def _environment(config: ExperimentConfig, snr_db, n_units, attacked, block, trials) -> Environment:
    """`trials` rounds of one point as one batched environment, keyed by the
    point parameters only."""
    snr_key = int(round(snr_db * 1000.0)) + _SNR_KEY_OFFSET
    if snr_key < 0:
        raise ValueError("snr_db out of the encodable range")
    lead, tag = block
    stream = (int(config.master_seed), lead, snr_key, int(n_units), int(attacked), tag)
    return Environment(config.ofdm, config.profiles, n_units, attacked, snr_db, stream,
                       noise_ref=config.noise_ref, trials=trials)


def _train_gamma(config: ExperimentConfig, snr_db, n_units, attacked):
    """Per-subcarrier prediction scalar fitted on a separate training window."""
    window = config.gamma_window
    env = _environment(config, snr_db, n_units, attacked, _TRAIN_BLOCK, window)
    return estimate_gamma(*loopback_combine(measure_round(env), env), min_rounds=window)


def model_stats_for_cell(config: ExperimentConfig, snr_db: float, n_units: int) -> analysis.ModelStats:
    """Model statistics implied by the environment of one sweep cell.

    Link variances are read off the tap profiles and rescaled to the
    unit-noise convention of the closed forms.  The surface aggregate means
    are zero because the generator draws phases uniformly at random, which
    the surface module's invariants pin down.
    """
    freqs = config.ofdm.pilot_freqs
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
    return keygen.quantize_gray2(magnitudes, keygen.compute_thresholds(magnitudes))


def run_cell(config: ExperimentConfig, snr_db: float, n_units: int, attacked: int) -> list:
    """Run all trials of one sweep point and aggregate each configured
    scheme's metrics: one row per scheme, in ``config.schemes`` order.

    All schemes read one shared round.  A degenerate sample block becomes a
    row flagged ``error: ...``: every row of the point when the shared round
    raised it (a gamma fit), only the scheme's own row when its metrics did.
    Any other exception is a fault of the program and propagates.  A row
    whose ``csk_info`` sits at `keygen.INFO_RATE_CAP` keeps its values and
    is flagged ``capped: ...``.
    """
    try:
        gamma = None
        if config.gamma_mode == "window" and Scheme.LOCKEY in config.schemes:
            gamma = _train_gamma(config, snr_db, n_units, attacked)
        env = _environment(config, snr_db, n_units, attacked, _MEASURE_BLOCK, config.trials)
        sources, gamma = run_round(env, gamma)
    except analysis.DegenerateSampleError as exc:  # record, never drop silently
        return [_flagged_row(config, scheme, snr_db, n_units, attacked, exc) for scheme in config.schemes]
    stats = model_stats_for_cell(config, snr_db, n_units)
    rows = []
    for scheme in config.schemes:
        try:
            rows.append(_scheme_row(config, scheme, snr_db, n_units, attacked, *sources[scheme], gamma, stats))
        except analysis.DegenerateSampleError as exc:
            rows.append(_flagged_row(config, scheme, snr_db, n_units, attacked, exc))
    return rows


def _flagged_row(config, scheme, snr_db, n_units, attacked, exc):
    nan = float("nan")
    return ResultRow(
        scheme.value, float(snr_db), n_units, attacked,
        nan, nan, nan, nan, nan, nan, nan, nan, config.trials,
        flag=f"error: {exc}",
    )


def _scheme_row(config, scheme, snr_db, n_units, attacked, alice, bob, gamma, stats):
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
        gamma_mean = float(np.mean(np.abs(gamma)))
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
        flag=f"capped: csk_info held at {keygen.INFO_RATE_CAP:g} bits" if metrics.information_capped else "",
    )


def sweep_cells(config: ExperimentConfig):
    """The (snr, n_units, attacked) points of a sweep, in row order within
    each scheme."""
    return [(snr, n, k) for n in config.n_units_grid for k in config.attacked_grid for snr in config.snr_grid_db]


def run_sweep(config: ExperimentConfig, jobs: Optional[int] = None) -> list:
    """Run every point of the configured sweep and return its rows in
    (scheme, n_units, attacked, snr) order.

    The worker count affects scheduling only: per-point seed derivation makes
    the result rows identical for any `jobs` value.
    """
    jobs = config.jobs if jobs is None else jobs
    points = sweep_cells(config)
    if jobs <= 1 or len(points) <= 1:
        per_point = [run_cell(config, *point) for point in points]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_point = list(pool.map(run_cell, repeat(config), *zip(*points)))
    return [rows[i] for i in range(len(config.schemes)) for rows in per_point]


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
