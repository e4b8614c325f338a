"""Seeded Monte-Carlo sweeps over SNR, surface size and attack level.

The unit of work is a sweep point (SNR, surface size, attack level).  Each
point runs all of its trials as one batched two-slot round (and its
gamma-training window, if any, as another), and every configured scheme
reads its key sources from that one round.  Each block draws its random
streams from the master seed and the point's own parameters, never from its
position in the sweep or from the schemes configured, so results are
reproducible bit-for-bit regardless of worker count and unaffected by
adding or removing other points or schemes.

A point's rows are scored in one quantization pass.  The configured schemes
read at most five distinct key-source blocks: the first-slot pair, Alice's
loop-back product, Alice's compensated product, and Bob's loop-back
product, which the loopback and lockey rows share.  Their magnitudes form
one ``(trials, blocks, pilots)`` stack, quantized by one `compute_thresholds`
and one `quantize_gray2` call, column by column as each block alone would
be; each row takes its two blocks' bits, and its error-power normaliser
from Bob's magnitudes.  Correlation and error power are computed per row
from the row's own pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import analysis, keygen
from ._rng import run_indexed
from .config import ExperimentConfig, build_config
from .fading import TapProfile, fingerprint_response
from .ofdm import OfdmConfig
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


@functools.lru_cache(maxsize=64)
def _filter_power(profile: TapProfile, ofdm: OfdmConfig) -> float:
    """Mean squared magnitude of a hardware filter's response over the pilot
    subcarriers: a constant of the configuration, cached by value like the
    response itself."""
    return float(np.mean(np.abs(fingerprint_response(profile, ofdm.pilot_freqs)) ** 2))


def model_stats_for_cell(config: ExperimentConfig, snr_db: float, n_units: int) -> analysis.ModelStats:
    """Model statistics implied by the environment of one sweep cell.

    Link variances are read off the tap profiles and rescaled to the
    unit-noise convention of the closed forms.  The surface aggregate means
    are zero because the generator draws phases uniformly at random, which
    the surface module's invariants pin down.
    """
    g_a = _filter_power(config.profiles["alice_hf"], config.ofdm)
    g_b = _filter_power(config.profiles["bob_hf"], config.ofdm)
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


def _quantize_blocks(magnitudes: np.ndarray):
    """Gray-coded bits of a ``(trials, blocks, subcarriers)`` stack of
    estimate magnitudes, as a ``(trials, blocks, 2 * subcarriers)`` array,
    and the `DegenerateSampleError` of each block whose quartiles tie, by
    block index.

    Each subcarrier column of each block is quantized against its own
    quartile thresholds, so fixed per-subcarrier gains (hardware filters)
    cannot misalign the two parties' quantization cells.  The stack takes
    one threshold call and one quantizer call; only if that threshold call
    finds a tie is each block quantized on its own, to tell which blocks
    hold it.
    """
    trials, count = magnitudes.shape[:2]
    try:
        thresholds = keygen.compute_thresholds(magnitudes)
    except analysis.DegenerateSampleError:
        pass
    else:
        return keygen.quantize_gray2(magnitudes, thresholds).reshape(trials, count, -1), {}
    bits = np.zeros((trials, count, 2 * magnitudes.shape[2]), dtype=np.uint8)
    errors = {}
    for i in range(count):
        try:
            thresholds = keygen.compute_thresholds(magnitudes[:, i])
        except analysis.DegenerateSampleError as exc:
            errors[i] = exc
        else:
            bits[:, i] = keygen.quantize_gray2(magnitudes[:, i], thresholds).reshape(trials, -1)
    return bits, errors


def run_cell(config: ExperimentConfig, snr_db: float, n_units: int, attacked: int) -> list:
    """Run all trials of one sweep point and aggregate each configured
    scheme's metrics: one row per scheme, in ``config.schemes`` order.

    All schemes read one shared round, and the distinct key-source blocks
    they read are quantized together (see the module docstring).  A
    degenerate sample block becomes a row flagged ``error: ...``: every row
    of the point when the shared round raised it (a gamma fit), only the
    rows that read a block when that block's quartiles tie, and only the
    scheme's own row when its other metrics did.  Any other exception is a
    fault of the program and propagates.  A row whose ``csk_info`` sits at
    `keygen.INFO_RATE_CAP` keeps its values and is flagged ``capped: ...``.
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
    pairs = [sources[scheme] for scheme in config.schemes]
    # one entry per array: the loopback and lockey pairs share Bob's block
    blocks = list({id(block): block for pair in pairs for block in pair}.values())
    index = {id(block): i for i, block in enumerate(blocks)}
    magnitudes = np.abs(np.stack(blocks, axis=1))
    bits, errors = _quantize_blocks(magnitudes)
    rows = []
    for scheme, (alice, bob) in zip(config.schemes, pairs):
        a, b = index[id(alice)], index[id(bob)]
        try:
            if a in errors or b in errors:
                raise errors.get(a) or errors[b]
            rows.append(_scheme_row(config, scheme, snr_db, n_units, attacked, alice, bob,
                                    bits[:, a], bits[:, b], magnitudes[:, b], gamma, stats))
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


def _scheme_row(config, scheme, snr_db, n_units, attacked, alice, bob, bits_a, bits_b, bob_magnitudes, gamma, stats):
    rho = abs(analysis.correlation(alice, bob))
    # Normalized error power: the raw squared error of loop-back products is
    # dominated by a few heavy-tailed rounds, normalizing by the reference
    # power makes the column comparable across cells and stable at the
    # configured trial counts.
    bob_power = float(np.mean(bob_magnitudes ** 2))
    mse = analysis.empirical_mse(alice, bob).mse / bob_power
    metrics = keygen.csk(rho, bits_a, bits_b)

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


def run_sweep(config: ExperimentConfig) -> list:
    """Run every point of the configured sweep and return its rows in
    (scheme, n_units, attacked, snr) order.

    `config.jobs` threads run the points.  The worker count affects
    scheduling only: per-point seed derivation makes the result rows
    identical for any worker count.
    """
    points = sweep_cells(config)
    per_point = run_indexed(lambda i: run_cell(config, *points[i]), len(points), config.jobs)
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
