"""Command-line front end.

Subcommands:
  sweep     run an antenna-count sweep and write the per-(M, scheme, precoder)
            CSV; optionally emit a standalone plotting script.
  verify    run the Monte Carlo oracle against the closed forms and write the
            verification report CSV.
  scenario  dump one drop's geometry (positions and per-BS gains) as CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import NoReturn

import numpy as np

from .estimation import compute_alpha
from .geometry import ScenarioConfig, build_scenario, scenario_to_csv
from .harness import (SweepConfig, emit_plot_script, load_sweep_config,
                      parse_antenna_count, run_sweep, with_seed,
                      write_sweep_csv)
from .mc_oracle import MIN_TRIALS, verification_rows, write_report_csv
from .rate_core import Precoder, decode_sets


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    parser.add_argument("--out", help="output CSV path")


def _fail(msg: str) -> NoReturn:
    """End the run with exit status 2 and the one-line message `msg`."""
    print(f"pcdl: error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load_config(path: str) -> SweepConfig:
    """The config file at `path`; exit with status 2 and a one-line message
    if the config classes reject it (`main` reports a file it cannot open)."""
    try:
        return load_sweep_config(path)
    except ValueError as exc:
        msg = str(exc)
        _fail(msg if msg.startswith(f"{path}:") else f"{path}: {msg}")


def _verify_m_values(text: str, K: int) -> list[int]:
    """The --m antenna counts. Each must exceed K + 1: ZF needs M > K, and at
    M = K + 1 its noise and power rows have infinite variance, so their
    batch-means z-scores mean nothing. Exit with status 2 otherwise."""
    values = []
    for entry in text.split(","):
        try:
            M = parse_antenna_count(entry)
        except ValueError as exc:
            _fail(f"--m: {exc}")
        if M <= K + 1:
            _fail(f"--m: M = {M} must exceed K + 1 = {K + 1} (ZF's noise and "
                  f"power rows have infinite variance at M <= K + 1)")
        values.append(M)
    return values


def _scenario_config(args) -> ScenarioConfig:
    # sweep config files (with m_values etc.) are accepted here too
    cfg = _load_config(args.config).scenario if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config) if args.config else SweepConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    out = args.out or "sweep.csv"
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    write_sweep_csv(result, out)
    print(f"wrote {out} ({len(result.rows)} rows, "
          f"{cfg.scenario.n_drops} drops, {time.perf_counter() - t0:.1f}s)")
    if args.plot_script:
        script = os.path.splitext(out)[0] + "_plot.py"
        emit_plot_script(out, script)
        print(f"wrote {script}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _scenario_config(args)
    m_values = _verify_m_values(args.m, cfg.K)
    omegas = decode_sets(cfg.L)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0xC0FFEE)))
    rows = []
    for _ in range(args.combos):
        drop = int(rng.integers(cfg.n_drops))
        scenario = build_scenario(cfg, drop)
        stats = compute_alpha(scenario)
        receiver = (int(rng.integers(cfg.K)), int(rng.integers(cfg.L)))
        precoder = Precoder.MRT if rng.integers(2) == 0 else Precoder.ZF
        omega = omegas[int(rng.integers(len(omegas)))]
        M = m_values[int(rng.integers(len(m_values)))]
        rows.extend(verification_rows(scenario, stats, M, precoder, receiver,
                                      omega, args.trials, rng))
    out = args.out or "verify.csv"
    write_report_csv(rows, out)
    n_fail = sum(not r.passed for r in rows)
    for r in rows:
        status = "ok " if r.passed else "FAIL"
        print(f"{status} {r.quantity}: closed={r.closed_form:.6g} "
              f"emp={r.empirical:.6g} z={r.z_score:+.2f}")
    print(f"wrote {out} ({len(rows)} checks, {n_fail} failures)")
    return 1 if n_fail else 0


def _cmd_scenario(args) -> int:
    cfg = _scenario_config(args)
    scenario = build_scenario(cfg, args.drop)
    out = args.out or "scenario.csv"
    scenario_to_csv(scenario, out)
    print(f"wrote {out} ({cfg.L} cells x {cfg.K} users, drop {args.drop})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcdl",
        description="pilot-contaminated downlink: symmetric-rate sweeps and "
                    "Monte Carlo verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the antenna-count sweep")
    _add_common(p)
    p.add_argument("--plot-script", action="store_true",
                   help="also emit a standalone matplotlib script")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="Monte Carlo oracle report")
    _add_common(p)
    p.add_argument("--trials", type=_int_at_least(MIN_TRIALS), default=10_000,
                   help=f"trials per combo (>= {MIN_TRIALS})")
    p.add_argument("--m", default="64,256", help="comma list of antenna counts")
    p.add_argument("--combos", type=_int_at_least(1), default=6,
                   help="random (drop, receiver, omega, precoder, M) draws")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scenario", help="dump one drop's geometry CSV")
    _add_common(p)
    p.add_argument("--drop", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_scenario)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a config file or an output the run cannot open
        _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))


if __name__ == "__main__":
    sys.exit(main())
