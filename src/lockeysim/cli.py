"""Command line front end: run sweeps, validate configs, check the oracles."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis
from .config import ConfigError, load_config
from .harness import PRESET_NAMES, emit_csv, preset_config, run_sweep, sweep_cells
from .protocol import estimate_gamma


def _cmd_simulate(args) -> int:
    overrides = {
        key: value
        for key, value in (("harness.master_seed", args.seed), ("harness.trials", args.trials),
                           ("harness.jobs", args.jobs))
        if value is not None
    }
    config = preset_config(args.preset, base=load_config(args.config, overrides))
    rows = run_sweep(config)
    emit_csv(rows, args.output)
    flagged = [row for row in rows if row.flag]
    print(f"wrote {len(rows)} rows to {args.output}" + (f" ({len(flagged)} flagged)" if flagged else ""))
    for row in flagged:
        print(f"  flagged cell {row.scheme}, {row.snr_db} dB, {row.n_units} units, "
              f"{row.attacked_units} attacked: {row.flag}", file=sys.stderr)
    # a capped row holds valid values; only an error row fails the run
    return 1 if any(row.flag.startswith("error:") for row in flagged) else 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    cells = len(config.schemes) * len(sweep_cells(config))
    print(f"ok: {cells} sweep cells, {config.trials} trials each, master seed {config.master_seed}")
    return 0


def _output_path(text: str) -> str:
    """``--output``: a file in an existing directory, checked before the sweep runs."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"directory {os.path.dirname(text)} does not exist")
    return text


def _sample_count(text: str) -> int:
    """``--samples``: a correlation and a gamma estimate need two samples."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def oracle_checks(n: int, key_prefix=()) -> list:
    """``[(name, got, want, tol)]``: each closed form against its grid or
    `n`-sample estimate.  Stream keys are ``(*key_prefix, <check key>)``, and
    each check's samples are freed before the next check draws."""
    s = analysis.ModelStats
    stats = s(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
    gamma_star = analysis.gamma_analytic(stats)
    grid = np.arange(0.0, 3.0 * gamma_star, 1e-3)
    checks = [("argmin over gamma grid", grid[np.argmin(analysis.mse_prediction(grid, stats))], gamma_star, 1e-3)]
    for i, stats in enumerate([s(2.0, 3.0, 0.5, 0.5, 1.0, 1.0), s(0.9, 0.8, 0.6, 0.4, 1.2, 0.9),
                               s(0.7, 1.2, 0.2, 0.6, 1.0, 1.5)]):
        x, y = analysis.sample_loopback_pairs(stats, n, (*key_prefix, 7100, i),
                                              match_second_moment=stats.g_a * stats.g_b <= 1.0)
        gamma_hat = abs(estimate_gamma(x[:, None], y[:, None], min_rounds=1)[0])
        del x, y
        checks.append((f"set {i}: gamma", gamma_hat, analysis.gamma_analytic(stats), 0.02))
    for i, stats in enumerate([s(1.0, 1.0, 0.0, 0.0, 2.0, 1.0), s(0.8, 0.9, 0.6, 0.4, 1.5, 1.0),
                               s(1.0, 1.0, 0.8, 0.8, 2.0, 1.0)]):
        x, y = analysis.sample_first_round_pairs(stats, n, (*key_prefix, 7200, i))
        rho_hat = analysis.correlation(x, y).real
        del x, y
        checks.append((f"regime {i}: rho1", rho_hat, analysis.rho1_analytic(stats), 0.02))
    stats = s(0.9, 0.9, 0.5, 0.5, 1.2, 0.9)
    x, y = analysis.sample_loopback_pairs(stats, n, (*key_prefix, 7300))
    checks.append(("rho2", analysis.correlation(x, y).real, analysis.rho2_analytic(stats), 0.03))
    gamma_star = analysis.gamma_analytic(stats)
    x *= gamma_star  # the prediction, in place: the same bits as the product gamma_star * x
    want = analysis.mse_prediction(gamma_star, stats)
    checks.append(("error power at the optimum", analysis.empirical_mse(x, y).mse, want, 0.03 * want))
    return checks


def _cmd_oracle(args) -> int:
    """Print `oracle_checks` and the overall verdict."""
    ok = True
    for name, got, want, tol in oracle_checks(args.samples):
        passed = abs(got - want) <= tol
        ok &= passed
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}: got {got:.5f}, expected {want:.5f} (tol {tol:g})")
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lockeysim",
        description="Monte-Carlo simulator for surface-assisted physical-layer key generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a sweep preset and write a CSV")
    sim.add_argument("--config", default=None, help="configuration file (defaults apply if omitted)")
    sim.add_argument("--preset", default="custom", choices=PRESET_NAMES)
    sim.add_argument("--output", type=_output_path, required=True, help="CSV output path")
    sim.add_argument("--seed", type=int, default=None, help="master seed override")
    sim.add_argument("--trials", type=int, default=None, help="trials per cell override")
    sim.add_argument("--jobs", type=int, default=None, help="worker thread count")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="check a configuration file's invariants")
    val.add_argument("--config", default=None)
    val.set_defaults(func=_cmd_validate)

    orc = sub.add_parser("oracle", help="check analytic formulas against Monte-Carlo estimates")
    orc.add_argument("--samples", type=_sample_count, default=100_000,
                     help="samples per Monte-Carlo check (at least 2)")
    orc.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
