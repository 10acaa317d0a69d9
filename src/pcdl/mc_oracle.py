"""Monte Carlo verification layer.

Samples the physical link, applies the actual MRT/ZF precoders and estimates
the moments that the closed forms predict: the per-cell mean effective gain
(vs theta), the variance of the residual after removing the coherent part
(vs the closed-form effective noise N) and the radiated per-user power
(vs rho_d). Gates are statistical: quantities carry standard errors from ten
batch means, and a |z| <= 5 rule separates formula bugs from Monte Carlo
noise at the documented trial counts.

Every output is a function of each BS's Gram matrix of its estimates and the
receiver's channel, so a trial samples an exact factor of that matrix, its
scaled Bartlett factor (`estimation.sample_gram`), instead of M-dimensional
channels; the cost of a trial does not depend on M. The tests hold it against
M-vectors, an explicit ZF precoder and the Gram-matrix route (`tests/reference.py`).

Accumulation uses per-chunk partial sums combined with math.fsum in a fixed
chunk order, so a given seed reproduces results bit-for-bit.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .estimation import EstimationStats, crandn, own_links, sample_gram
from .geometry import NetworkScenario
from .rate_core import Precoder, effective_gain, power_decomposition

N_BATCHES = 10
MIN_TRIALS = 1000  # for stable batch means
Z_GATE = 5.0       # largest |z| a check may show and still pass


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sampled link moments with batch-means standard errors."""

    mean_gain: np.ndarray  # (L,) real parts of the effective-gain means
    gain_se: np.ndarray    # (L,)
    noise_var: float       # var of y - sum_j theta_j s_j[i]
    noise_se: float
    power: np.ndarray      # (L,) mean rho_d ||x_j||^2 / K
    power_se: np.ndarray   # (L,)


def _batch_bounds(trials: int) -> np.ndarray:
    """Trial-index boundaries of the N_BATCHES contiguous batches."""
    return np.array([math.ceil(b * trials / N_BATCHES) for b in range(N_BATCHES + 1)])


def _gram_law(scenario: NetworkScenario, receiver: tuple[int, int]):
    """Per-BS variances (L, K+1) of [obs_j1..obs_jK, e_j] and c_j (L,).

    obs_jk = sqrt(rho_p) * sum_l' g_jkl' + z_jk is the pilot observation, with
    per-antenna variance D_jk = 1 + rho_p * sum_l' beta_jkl'. The receiver's
    channel splits as g_rx = c_j * obs_ji + e_j with c_j = sqrt(rho_p) *
    beta_jil / D_ji; e_j is independent of every observation and has variance
    beta_jil * (1 + rho_p * sum_{l' != l} beta_jil') / D_ji. Taken from beta
    and rho_p only, not from the closed-form statistics under test.
    """
    i, l = receiver
    beta, rho_p = scenario.beta, scenario.rho_p
    D = 1.0 + rho_p * beta.sum(axis=2)
    b_rx = beta[:, i, l]
    others = np.delete(beta[:, i, :], l, axis=1).sum(axis=1)
    e_var = b_rx * (1.0 + rho_p * others) / D[:, i]
    return np.concatenate([D, e_var[:, None]], axis=1), math.sqrt(rho_p) * b_rx / D[:, i]


def _chunk_iter(scenario, stats, M, precoder, receiver, eff, trials, rng):
    """Yield (t0, gain, y, power, s_i) per chunk of trials; eff is the
    receiver's `effective_gain` at (M, precoder)."""
    L, K = scenario.n_cells, scenario.users_per_cell
    i = receiver[0]
    scale = np.sqrt(scenario.rho_d / eff.lam)
    kernel = _kernels.mrt_chunk if precoder is Precoder.MRT else _kernels.zf_chunk
    var, c_rx = _gram_law(scenario, receiver)
    alpha_own = own_links(stats.alpha)
    chunk = _kernels.chunk_trials(L, K)
    t0 = 0
    while t0 < trials:
        c = min(chunk, trials - t0)
        F = sample_gram(rng, var, M, c)
        s = crandn(rng, (c, L, K))
        w = crandn(rng, (c,))
        gain, y, power = kernel(F, s, w, alpha_own, c_rx, i, scale, eff.lam,
                                scenario.rho_d)
        yield t0, gain, y, power, s[:, :, i]
        t0 += c


def _batch_segments(bounds: list[int], t0: int, c: int) -> tuple[int, list[int]]:
    """(first batch, segment starts) of the chunk of trials [t0, t0 + c): the
    chunk's trials from each start to the next fall into one batch."""
    first = bisect.bisect_right(bounds, t0) - 1
    last = bisect.bisect_right(bounds, t0 + c - 1) - 1
    return first, [0] + [bounds[b] - t0 for b in range(first + 1, last + 1)]


def _batch_sums(chunks, theta: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per batch, the sums of [gain.real (L), |w'|^2, power (L)] over its
    trials, shape (N_BATCHES, 2L + 1), with w' = y - sum_j theta_j s_j[i].

    Each chunk is summed per batch segment by one reduceat. Across chunks,
    each batch's partial sums are combined by math.fsum in chunk order.
    """
    edges = bounds.tolist()
    parts = [[] for _ in range(N_BATCHES)]
    for t0, gain, y, power, s_i in chunks:
        wprime = y - s_i @ theta
        cols = np.column_stack((gain.real, wprime.real ** 2 + wprime.imag ** 2, power))
        first, starts = _batch_segments(edges, t0, y.shape[0])
        # Python floats: with numpy row views, one oracle-verify job
        # page-faulted 40-105 times at 8 of 12 heap offsets tried, against
        # 8-9 at all 12
        for b, row in enumerate(np.add.reduceat(cols, starts, axis=0).tolist(), first):
            parts[b].append(row)
    return np.array([[math.fsum(col) for col in zip(*rows)] for rows in parts])


def empirical_moments(scenario: NetworkScenario, stats: EstimationStats, M: int,
                      precoder: Precoder, receiver: tuple[int, int],
                      trials: int, rng: np.random.Generator) -> EmpiricalMoments:
    """Estimate the oracle moments at one receiver over i.i.d. trials."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for stable batch means")
    L = scenario.n_cells
    eff = effective_gain(scenario, stats, M, precoder, receiver)
    bounds = _batch_bounds(trials)
    sums = _batch_sums(_chunk_iter(scenario, stats, M, precoder, receiver, eff, trials, rng),
                       eff.theta, bounds)
    gain_sums, noise_sums, power_sums = sums[:, :L], sums[:, L], sums[:, L + 1:]
    counts = (bounds[1:] - bounds[:-1]).astype(float)

    def stats_of(sums):
        mean = np.apply_along_axis(math.fsum, 0, sums) / trials
        batch_means = sums / counts.reshape((N_BATCHES,) + (1,) * (sums.ndim - 1))
        se = batch_means.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
        return mean, se

    mean_gain, gain_se = stats_of(gain_sums)
    noise_var, noise_se = stats_of(noise_sums)
    power, power_se = stats_of(power_sums)
    return EmpiricalMoments(mean_gain=mean_gain, gain_se=gain_se,
                            noise_var=float(noise_var), noise_se=float(noise_se),
                            power=power, power_se=power_se)


@dataclass(frozen=True, slots=True)
class ReportRow:
    quantity: str
    closed_form: float
    empirical: float
    std_err: float
    z_score: float
    passed: bool


def verification_rows(scenario: NetworkScenario, stats: EstimationStats, M: int,
                      precoder: Precoder, receiver: tuple[int, int],
                      omega: tuple[int, ...], trials: int,
                      rng: np.random.Generator) -> list[ReportRow]:
    """Closed form vs empirical moments for one (M, precoder, receiver, omega)."""
    mom = empirical_moments(scenario, stats, M, precoder, receiver, trials, rng)
    theta = effective_gain(scenario, stats, M, precoder, receiver).theta
    pd = power_decomposition(scenario, stats, M, precoder, receiver, omega)
    tag = f"M={M},{precoder.value},rcvr=({receiver[0] + 1},{receiver[1] + 1})"

    def row(name, closed, emp, se):
        if se > 0:
            z = (emp - closed) / se
        else:
            z = 0.0 if emp == closed else math.copysign(math.inf, emp - closed)
        return ReportRow(quantity=f"{name}@{tag}", closed_form=float(closed),
                         empirical=float(emp), std_err=float(se),
                         z_score=float(z), passed=bool(abs(z) <= Z_GATE))

    rows = []
    for j in range(scenario.n_cells):
        rows.append(row(f"theta_cell{j + 1}", theta[j], mom.mean_gain[j], mom.gain_se[j]))
    rows.append(row("noise_var", pd.noise, mom.noise_var, mom.noise_se))
    for j in range(scenario.n_cells):
        rows.append(row(f"power_cell{j + 1}", scenario.rho_d, mom.power[j], mom.power_se[j]))
    if omega:
        p1_emp = math.fsum(mom.mean_gain[j] ** 2 for j in omega)
        p1_se = math.sqrt(math.fsum((2.0 * mom.mean_gain[j] * mom.gain_se[j]) ** 2
                                    for j in omega))
        omega_tag = "".join(str(j + 1) for j in sorted(omega))
        rows.append(row(f"p1_omega{omega_tag}", pd.p1, p1_emp, p1_se))
    return rows


def write_report_csv(rows: list[ReportRow], path: str) -> None:
    """One CSV row per check; quantity names hold commas and are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "closed_form", "empirical", "std_err",
                         "z_score", "pass"])
        for r in rows:
            writer.writerow([r.quantity, repr(r.closed_form), repr(r.empirical),
                             repr(r.std_err), repr(r.z_score), str(r.passed).lower()])
