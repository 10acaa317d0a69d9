"""Experiment orchestration: antenna-count sweeps averaged over user drops.

Each drop d rebuilds the scenario from a seed derived as
SeedSequence(entropy=(master_seed, d)), evaluates every requested
(M, precoder, scheme) combination with the closed forms, one link budget per
precoder over all M, and its rates go into one column of a (key, drop)
table. The harness aggregates means and sample standard deviations across
drops from that table's rows, in drop order, so results do not depend on how
the drops were scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .estimation import compute_alpha
from .geometry import (ScenarioConfig, build_scenario, parse_key_values,
                       scenario_config_from_dict)
from .rate_core import Precoder
from .schemes import Budgets, rate_pd, rate_sd, rate_snd, rate_tin

SCHEMES = ("TIN", "SD", "SND", "PD")
PRACTICAL_M_VALUES = (32, 64, 128, 256, 512, 1024)
ASYMPTOTIC_M_VALUES = (10_000, 100_000, 400_000, 1_000_000)
DEFAULT_M_VALUES = PRACTICAL_M_VALUES + ASYMPTOTIC_M_VALUES


@dataclass(frozen=True)
class SweepConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    schemes: tuple[str, ...] = SCHEMES
    precoders: tuple[str, ...] = ("MRT", "ZF")
    pilot_index: int = 1        # 1-based pilot-sharing set
    mu_grid: int = 21

    def __post_init__(self):
        for name in ("m_values", "schemes", "precoders"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if list(self.m_values) != sorted(set(self.m_values)):
            raise ValueError("m_values must be strictly ascending")
        L = self.scenario.L
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme: {s}")
            if s == "SD" and L < 2:
                raise ValueError(f"scheme SD needs L >= 2 cells, got L = {L}")
            if s in ("SND", "PD") and L != 2:
                raise ValueError(f"scheme {s} covers L = 2 cells only, got L = {L}")
        parsed = [Precoder.parse(p) for p in self.precoders]
        if Precoder.ZF in parsed and self.m_values[0] <= self.scenario.K:
            raise ValueError("ZF sweeps need every M > K")
        if not 1 <= self.pilot_index <= self.scenario.K:
            raise ValueError("pilot_index must lie in [1, K]")
        if self.mu_grid < 2:
            raise ValueError("mu_grid must be >= 2")


@dataclass(frozen=True)
class SweepRow:
    M: int
    scheme: str
    precoder: str
    mean_se: float
    std_se: float
    n_drops: int
    mean_mu1: float | None = None
    mean_mu2: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    per_drop: dict  # (M, precoder, scheme) -> read-only (n_drops,) row, kept for analysis

    def row(self, M: int, scheme: str, precoder: str) -> SweepRow:
        for r in self.rows:
            if (r.M, r.scheme, r.precoder) == (M, scheme, precoder.upper()):
                return r
        raise KeyError((M, scheme, precoder))


_RATES = {"TIN": rate_tin, "SD": rate_sd, "SND": rate_snd}


def _columns(schemes: tuple[str, ...]) -> tuple[str, ...]:
    """The per-drop table's columns for each (precoder, M): one rate per
    scheme, then PD's split (mu1, mu2) if PD runs."""
    return tuple(schemes) + (("PD mu1", "PD mu2") if "PD" in schemes else ())


def _evaluate_drop(config: SweepConfig, drop: int) -> np.ndarray:
    """All symmetric rates of one drop, shape (precoder, column, M) with the
    columns of `_columns`. Each precoder builds its link budgets once,
    over every M, and every scheme reads them."""
    scenario = build_scenario(config.scenario, drop)
    stats = compute_alpha(scenario)
    i = config.pilot_index - 1
    columns = _columns(config.schemes)
    out = np.empty((len(config.precoders), len(columns), len(config.m_values)))
    for p, prec_name in enumerate(config.precoders):
        budgets = Budgets.of(scenario, stats, config.m_values, Precoder.parse(prec_name), i)
        for c, scheme in enumerate(config.schemes):
            if scheme == "PD":
                out[p, c], out[p, -2], out[p, -1] = rate_pd(budgets, grid=config.mu_grid)
            else:
                out[p, c] = _RATES[scheme](budgets)
    return out


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    n = config.scenario.n_drops
    n_p, n_s, n_m = len(config.precoders), len(config.schemes), len(config.m_values)
    # the rates, a (precoder, scheme, M, drop) table: each row holds one value
    # per drop, contiguous, as the aggregates read it; the result keeps it.
    # PD's splits go to a table of their own that only their means outlive.
    rates = np.empty((n_p, n_s, n_m, n))
    splits = np.empty((n_p, len(_columns(config.schemes)) - n_s, n_m, n))

    def fill(drops):
        for d, values in enumerate(drops):
            rates[..., d], splits[..., d] = values[:, :n_s], values[:, n_s:]

    if threads > 1:
        # imported here: it costs every start-up of pcdl about 2 MB and 20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            fill(pool.map(_evaluate_drop, [config] * n, range(n), chunksize=4))
    else:
        fill(_evaluate_drop(config, d) for d in range(n))
    rates.flags.writeable = False

    rows = []
    per_drop = {}
    for p, prec_name in enumerate(config.precoders):
        prec = prec_name.upper()
        for m, M in enumerate(config.m_values):
            for c, scheme in enumerate(config.schemes):
                se = rates[p, c, m]
                if scheme == "PD":
                    mu1 = float(np.mean(splits[p, 0, m]))
                    mu2 = float(np.mean(splits[p, 1, m]))
                else:
                    mu1 = mu2 = None
                std = float(se.std(ddof=1)) if n > 1 else 0.0
                rows.append(SweepRow(M=M, scheme=scheme, precoder=prec,
                                     mean_se=float(se.mean()), std_se=std,
                                     n_drops=n, mean_mu1=mu1, mean_mu2=mu2))
                per_drop[(M, prec, scheme)] = se
    return SweepResult(rows=tuple(rows), per_drop=per_drop)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("M,scheme,precoder,mean_se,std_se,n_drops,mean_mu1,mean_mu2\n")
        for r in result.rows:
            mu1 = "" if r.mean_mu1 is None else repr(r.mean_mu1)
            mu2 = "" if r.mean_mu2 is None else repr(r.mean_mu2)
            fh.write(f"{r.M},{r.scheme},{r.precoder},{r.mean_se!r},"
                     f"{r.std_se!r},{r.n_drops},{mu1},{mu2}\n")


_SWEEP_KEYS = {"m_values", "schemes", "precoders", "pilot_index", "mu_grid"}


def parse_antenna_count(text: str) -> int:
    """An antenna count written as an integer ("1000000") or as a float with
    an integral value ("1e6"); anything else raises ValueError."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ValueError(f"antenna count {text.strip()!r} is not an integer")
    return int(value)


def sweep_config_from_dict(kv: dict) -> SweepConfig:
    scen_names = {f.name for f in fields(ScenarioConfig)}
    scen_kv = {k: v for k, v in kv.items() if k in scen_names}
    extra = {k: v for k, v in kv.items() if k not in scen_names}
    kwargs = {"scenario": scenario_config_from_dict(scen_kv)}
    for key, val in extra.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown sweep key: {key}")
        if key == "m_values":
            kwargs[key] = tuple(parse_antenna_count(v) for v in val.split(","))
        elif key in ("schemes", "precoders"):
            kwargs[key] = tuple(v.strip().upper() for v in val.split(","))
        else:
            kwargs[key] = int(val)
    return SweepConfig(**kwargs)


def load_sweep_config(path: str) -> SweepConfig:
    return sweep_config_from_dict(parse_key_values(path))


def with_seed(config: SweepConfig, seed: int) -> SweepConfig:
    return replace(config, scenario=replace(config.scenario, seed=seed))


PLOT_TEMPLATE = '''"""Plot symmetric spectral efficiencies from {csv!r} (auto-generated)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open({csv!r}, "r", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        curves[(row["precoder"], row["scheme"])].append(
            (int(row["M"]), float(row["mean_se"])))

precoders = sorted({{p for p, _ in curves}})
fig, axes = plt.subplots(1, len(precoders), figsize=(6 * len(precoders), 4.5),
                         squeeze=False)
for ax, prec in zip(axes[0], precoders):
    for scheme in ("TIN", "SD", "SND", "PD"):
        pts = sorted(curves.get((prec, scheme), []))
        if pts:
            ax.semilogx(*zip(*pts), marker="o", label=scheme)
    ax.set_title(prec)
    ax.set_xlabel("BS antennas M")
    ax.set_ylabel("symmetric SE (bits/s/Hz)")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
fig.tight_layout()
fig.savefig({png!r}, dpi=150)
print("wrote", {png!r})
'''


def emit_plot_script(csv_path: str, script_path: str) -> None:
    png = csv_path.rsplit(".", 1)[0] + ".png"
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PLOT_TEMPLATE.format(csv=csv_path, png=png))
