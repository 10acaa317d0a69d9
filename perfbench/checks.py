"""Output checks for the benchmark workloads.

The link budget is derived here again from beta, rho_d and rho_p, without
calling pcdl's rate code, so a fault in rate_core or schemes shows up as a
disagreement instead of being copied into the reference:

  MMSE:  alpha_jkl = sqrt(rho_p) beta_jkl / (1 + rho_p sum_l' beta_jkl'),
         gamma_jk  = sqrt(rho_p) beta_jkj alpha_jkj
  MRT:   lam_j = (M/K) sum_k gamma_jk,
         theta_j = sqrt(rho_d/lam_j) M sqrt(rho_p) beta_jil alpha_jij,
         N = 1 + rho_d K sum_j beta_jil        (all transmitted power lands)
  ZF:    lam_j = sum_k (1/gamma_jk) / (K (M - K)),
         theta_j = sqrt(rho_d/lam_j) beta_jil / beta_jij,
         N = 1 + rho_d K sum_j beta_jil (1 - sqrt(rho_p) alpha_jil)
                                               (only the estimation error leaks)

at receiver (i, l), with S_j = theta_j^2 the coherent powers. Each check
returns a list of problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from pcdl.estimation import compute_alpha
from pcdl.geometry import build_scenario
from pcdl.rate_core import Precoder
from pcdl.schemes import sym_rate_pd

REL_TOL = 1e-9      # own closed forms against the program's
ROUND_TOL = 1e-12   # rounding only: summation order, and the fine mu grid
                    # holds the 21-point grid's values up to one ulp
FINE_GRID = 101     # holds every point of an n-point grid when n - 1 divides 100
Z_GATE = 5.0        # the program's oracle gate


def snr_levels(config) -> tuple[float, float]:
    """(rho_d, rho_p) from the configured powers: per-user downlink power and
    pilot power over the thermal noise, all linear."""
    noise_w = 10.0 ** ((config.noise_power_dbm - 30.0) / 10.0)
    return (config.bs_total_power_w / config.K) / noise_w, config.ue_pilot_power_w / noise_w


def link_budgets(beta, rho_d, rho_p, m_values, precoder: str, i: int):
    """theta[m, l, j] and N[m, l] at receivers (i, l) for every M in m_values."""
    L, K, _ = beta.shape
    M = np.asarray(m_values, dtype=float)[:, None]
    srp = math.sqrt(rho_p)
    own = np.arange(L)
    alpha = srp * beta / (1.0 + rho_p * beta.sum(axis=2, keepdims=True))
    gamma = srp * beta[own, :, own] * alpha[own, :, own]              # (L, K)
    b = beta[:, i, :]                                                 # (j, l)
    if precoder == "MRT":
        lam = M / K * gamma.sum(axis=1)                               # (m, j)
        amp = M[:, :, None] * srp * b[None, :, :] * alpha[own, i, own][None, :, None]
        noise = 1.0 + rho_d * K * b.sum(axis=0)                       # (l,)
    elif precoder == "ZF":
        lam = (1.0 / gamma).sum(axis=1) / (K * (M - K))
        amp = np.broadcast_to((b / beta[own, i, own][:, None])[None], (len(M), L, L))
        noise = 1.0 + rho_d * K * (b * (1.0 - srp * alpha[:, i, :])).sum(axis=0)
    else:
        raise ValueError(f"unknown precoder {precoder}")
    theta = np.sqrt(rho_d / lam)[:, :, None] * amp                   # (m, j, l)
    return theta.transpose(0, 2, 1), np.broadcast_to(noise, (len(M), L))


def tin_sd(theta, noise):
    """Symmetric TIN and SD rates per M from link budgets."""
    S = theta ** 2
    n_m, L, _ = S.shape
    tin = np.full(n_m, np.inf)
    sd = np.full(n_m, np.inf)
    for l in range(L):
        interference = S[:, l, :].sum(axis=1) - S[:, l, l]
        tin = np.minimum(tin, np.log2(1.0 + S[:, l, l] / (noise[:, l] + interference)))
        for size in range(1, L + 1):
            for omega in itertools.combinations(range(L), size):
                p1 = S[:, l, list(omega)].sum(axis=1)
                sd = np.minimum(sd, np.log2(1.0 + p1 / noise[:, l]) / size)
    return tin, sd


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_sweep(config, csv_bytes: bytes, result) -> list[str]:
    """CSV against the per-drop table, TIN/SD against the recomputation,
    per-drop orderings and PD against PD on a finer grid that holds the
    configured one."""
    problems = []
    scen = config.scenario
    n = scen.n_drops
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    expect = len(config.m_values) * len(config.precoders) * len(config.schemes)
    if len(rows) != expect:
        problems.append(f"CSV has {len(rows)} rows, expected {expect}")
    for r in rows:
        key = (int(r["M"]), r["precoder"], r["scheme"])
        vals = result.per_drop[key]
        mean = math.fsum(vals) / n
        if int(r["n_drops"]) != n or _rel_err(float(r["mean_se"]), mean) > ROUND_TOL:
            problems.append(f"CSV row {key} disagrees with its per-drop rates")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            problems.append(f"{key}: rates not finite and non-negative")

    rho_d, rho_p = snr_levels(scen)
    i = config.pilot_index - 1
    fine = "PD" in config.schemes and (FINE_GRID - 1) % (config.mu_grid - 1) == 0
    for d in range(n):
        scenario = build_scenario(scen, d)
        if _rel_err(scenario.rho_d, rho_d) > REL_TOL or _rel_err(scenario.rho_p, rho_p) > REL_TOL:
            problems.append(f"drop {d}: rho_d/rho_p differ from the configured powers")
        stats = compute_alpha(scenario) if fine else None
        for prec in config.precoders:
            prec = prec.upper()
            theta, noise = link_budgets(scenario.beta, rho_d, rho_p, config.m_values, prec, i)
            tin, sd = tin_sd(theta, noise)
            own = np.arange(theta.shape[1])
            free = np.log2(1.0 + theta[:, own, own] ** 2 / noise).min(axis=1)
            for m, M in enumerate(config.m_values):
                got = {s: float(result.per_drop[(M, prec, s)][d]) for s in config.schemes}
                tin_m, sd_m, free_m = float(tin[m]), float(sd[m]), float(free[m])
                tag = f"drop {d}, M={M}, {prec}"
                for s, ref in (("TIN", tin_m), ("SD", sd_m)):
                    if s in got and _rel_err(got[s], ref) > REL_TOL:
                        problems.append(f"{tag}: {s} {got[s]!r} vs recomputed {ref!r}")
                if "PD" in got and got["PD"] < tin_m * (1.0 - REL_TOL):
                    problems.append(f"{tag}: PD {got['PD']!r} below TIN {tin_m!r}")
                if "PD" in got and got["PD"] > free_m * (1.0 + REL_TOL):
                    problems.append(f"{tag}: PD {got['PD']!r} above the "
                                    f"interference-free rate {free_m!r}")
                if "PD" in got and "TIN" in got and got["PD"] < got["TIN"]:
                    problems.append(f"{tag}: PD below the program's own TIN")
                if "SND" in got and got["SND"] < max(got.get("TIN", 0.0), got.get("SD", 0.0)):
                    problems.append(f"{tag}: SND below max(TIN, SD)")
                if fine:
                    finer = sym_rate_pd(scenario, stats, M, Precoder.parse(prec), i,
                                        grid=FINE_GRID)[0]
                    if finer < got["PD"] * (1.0 - ROUND_TOL):
                        problems.append(f"{tag}: PD on the {FINE_GRID}-point grid {finer!r} "
                                        f"below the {config.mu_grid}-point grid {got['PD']!r}")
    return problems


def check_oracle(scen_config, drop, combos, rows_per_combo) -> list[str]:
    """Every oracle row against the own closed forms with the |z| <= 5 gate;
    the per-user radiated power against the configured rho_d."""
    problems = []
    rho_d, rho_p = snr_levels(scen_config)
    for combo, rows in zip(combos, rows_per_combo):
        prec, M, (i, l), omega = combo
        scenario = build_scenario(scen_config, drop)
        theta, noise = link_budgets(scenario.beta, rho_d, rho_p, [M], prec, i)
        theta, noise = theta[0, l].tolist(), float(noise[0, l])
        expected = {f"theta_cell{j + 1}": theta[j] for j in range(len(theta))}
        expected["noise_var"] = noise
        expected.update({f"power_cell{j + 1}": rho_d for j in range(len(theta))})
        expected["p1_omega" + "".join(str(j + 1) for j in sorted(omega))] = \
            math.fsum(theta[j] ** 2 for j in omega)
        got = {r.quantity.split("@", 1)[0]: r for r in rows}
        tag = f"M={M},{prec},rcvr=({i + 1},{l + 1})"
        if set(got) != set(expected):
            problems.append(f"{tag}: quantities {sorted(got)}, expected {sorted(expected)}")
            continue
        for name, closed in expected.items():
            r = got[name]
            z = (r.empirical - closed) / r.std_err if r.std_err > 0 else math.inf
            if _rel_err(r.closed_form, closed) > REL_TOL:
                problems.append(f"{name}@{tag}: closed form {r.closed_form!r} vs "
                                f"recomputed {closed!r}")
            if not (abs(z) <= Z_GATE and r.passed):
                problems.append(f"{name}@{tag}: empirical {r.empirical!r} is "
                                f"z={z:+.2f} from {closed!r}")
    return problems
