"""Reference routes the tests check the library against.

None of this is on a path `sweep`, `verify` or `scenario` runs:

- the per-cell loop that built the gains theta one M and one cell at a
  time, in the operation order `rate_core.link_budgets` keeps
  (`theta_per_cell`);
- the term-by-term power split of a decode set (`PowerTerms`,
  `power_decomposition_mrt`, `power_decomposition_zf`, `power_terms`), the
  route the closed-form noise of `rate_core.link_budget` is checked against,
  and the compact MRT uncertainty power (`p2_mrt_compact`);
- per-decode-set rate bounds built from those terms (`c_lb`, `mi_terms`),
  and the TIN bound of one receiver (`tin_lb`);
- explicit 2-cell rate regions reduced to the diagonal by bisection
  (`RateRegion2`, `snd_region`, `intersect`) and the layered PD bounds one
  split at a time (`pd_terms_from_budget`, `pd_mi_terms`), and the PD
  grid's tie-break by search over every maximum (`pd_tie_break`);
- the M-dimensional channel path the Gram-matrix oracle is tested against
  (`sample_channels`, `ChannelRealization`, `zf_precoder`) and the MRT
  channel-hardening table (`hardening_check`);
- `load_scenario_config`, a scenario-only config file reader.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from pcdl._kernels import COND_LIMIT
from pcdl.estimation import EstimationStats, crandn, own_links
from pcdl.geometry import (NetworkScenario, ScenarioConfig, parse_key_values,
                           scenario_config_from_dict)
from pcdl.mc_oracle import _chunk_iter
from pcdl.rate_core import (PowerDecomposition, Precoder, _check_omega,
                            capacity_bits, effective_gain, lambda_mrt,
                            lambda_zf, link_budget)
from pcdl.schemes import PdSplit


# --- the gains one cell at a time -----------------------------------------

def theta_per_cell(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder, receiver: tuple[int, int]) -> np.ndarray:
    """theta_j at receiver (i, l) for one M, cell by cell:

    MRT: lam_j = (M/K) fsum_k gamma_jk,
         theta_j = sqrt(rho_d/lam_j) * M * sqrt(rho_p) * beta[j,i,l] * alpha[j,i,j]
    ZF:  lam_j = fsum_k (1/gamma_jk) / (K (M - K)),
         theta_j = sqrt(rho_d/lam_j) * beta[j,i,l] / beta[j,i,j]
    """
    i, l = receiver
    K = scenario.users_per_cell
    beta, alpha, gam = scenario.beta, stats.alpha, stats.gamma()
    theta = np.zeros(scenario.n_cells)
    for j in range(scenario.n_cells):
        if precoder is Precoder.MRT:
            lam = (M / K) * math.fsum(gam[j])
            theta[j] = (math.sqrt(scenario.rho_d / lam) * M * math.sqrt(scenario.rho_p)
                        * beta[j, i, l] * alpha[j, i, j])
        else:
            lam = math.fsum(1.0 / g for g in gam[j]) / (K * (M - K))
            theta[j] = math.sqrt(scenario.rho_d / lam) * beta[j, i, l] / beta[j, i, j]
    return theta


# --- term-by-term power split ----------------------------------------------

@dataclass(frozen=True)
class PowerTerms:
    """Signal/interference/noise split for a decode set Omega.

    For MRT: p2 = beamforming-gain uncertainty, p3 = other-user interference,
    p4 = unit thermal noise. For ZF: p2 = channel-estimation-error leakage,
    p3 = unit thermal noise and p4 = 0 (three-term split).
    """

    p1: float
    p2: float
    p3: float
    p4: float
    omega: frozenset[int]

    @property
    def noise(self) -> float:
        return math.fsum((self.p2, self.p3, self.p4))


def power_decomposition_mrt(scenario: NetworkScenario, stats: EstimationStats,
                            M: int, receiver: tuple[int, int],
                            omega: Iterable[int]) -> PowerTerms:
    """Four-term MRT power split for decode set omega at receiver (i, l).

    p2 is computed as the two-part sum: the variance of the contaminated-estimate
    inner product plus the estimation-error leakage.
    """
    i, l = receiver
    L = scenario.n_cells
    omega = frozenset(omega)
    _check_omega(omega, L)
    beta, alpha = scenario.beta, stats.alpha
    rho_d, rho_p = scenario.rho_d, scenario.rho_p
    srp = math.sqrt(rho_p)
    gam = stats.gamma()

    p1_terms = []
    p2_terms = []
    p3_terms = []
    for j in range(L):
        lam = lambda_mrt(scenario, stats, M, j)
        scale = rho_d / lam
        if j in omega:
            p1_terms.append(M * M * scale * rho_p * beta[j, i, l] ** 2 * alpha[j, i, j] ** 2)
        p2_terms.append(M * scale * rho_p * beta[j, i, l] ** 2 * alpha[j, i, j] ** 2)
        p2_terms.append(M * scale * beta[j, i, l] * (1.0 - srp * alpha[j, i, l]) * gam[j, i])
        other = math.fsum(gam[j, k] for k in range(scenario.users_per_cell) if k != i)
        p3_terms.append(M * scale * beta[j, i, l] * other)
    return PowerTerms(p1=math.fsum(p1_terms), p2=math.fsum(p2_terms),
                      p3=math.fsum(p3_terms), p4=1.0, omega=omega)


def power_decomposition_zf(scenario: NetworkScenario, stats: EstimationStats,
                           M: int, receiver: tuple[int, int],
                           omega: Iterable[int]) -> PowerTerms:
    """Three-term ZF power split; p3 is the unit noise, p4 unused (0)."""
    i, l = receiver
    L, K = scenario.n_cells, scenario.users_per_cell
    omega = frozenset(omega)
    _check_omega(omega, L)
    beta, alpha = scenario.beta, stats.alpha
    srp = math.sqrt(scenario.rho_p)
    gam = stats.gamma()

    p1_terms = []
    p2_terms = []
    for j in range(L):
        lam = lambda_zf(scenario, stats, M, j)
        scale = scenario.rho_d / lam
        if j in omega:
            p1_terms.append(scale * (beta[j, i, l] / beta[j, i, j]) ** 2)
        err = beta[j, i, l] * (1.0 - srp * alpha[j, i, l])
        p2_terms.extend(scale * err / ((M - K) * gam[j, k]) for k in range(K))
    return PowerTerms(p1=math.fsum(p1_terms), p2=math.fsum(p2_terms),
                      p3=1.0, p4=0.0, omega=omega)


def power_terms(scenario: NetworkScenario, stats: EstimationStats,
                M: int, precoder: Precoder, receiver: tuple[int, int],
                omega: Iterable[int]) -> PowerTerms:
    if precoder is Precoder.MRT:
        return power_decomposition_mrt(scenario, stats, M, receiver, omega)
    return power_decomposition_zf(scenario, stats, M, receiver, omega)


# --- per-decode-set bounds -------------------------------------------------

def c_lb(pd: PowerTerms | PowerDecomposition) -> float:
    """Achievable-rate lower bound C(p1 / noise) in bits/s/Hz."""
    if pd.p1 == 0.0:
        return 0.0
    return capacity_bits(pd.p1 / pd.noise)


def tin_lb(scenario: NetworkScenario, stats: EstimationStats, M: int,
           precoder: Precoder, receiver: tuple[int, int]) -> float:
    """Rate of decoding only the own-cell signal, all coherent interferers
    absorbed into the worst-case noise: C(S_l / (N + sum_{j != l} S_j))."""
    i, l = receiver
    theta, noise = link_budget(scenario, stats, M, precoder, receiver)
    s_own = float(theta[l]) ** 2
    denom = math.fsum([noise] + [float(theta[j]) ** 2
                                 for j in range(len(theta)) if j != l])
    return capacity_bits(s_own / denom)


def p2_mrt_compact(scenario: NetworkScenario, stats: EstimationStats,
                   M: int, receiver: tuple[int, int]) -> float:
    """Single-term MRT uncertainty power M * sum_j rho_d*gamma_ji*beta_jil/lam_j.

    Cross-check for the two-part sum in power_decomposition_mrt; the two agree
    because alpha[j,i,l] / alpha[j,i,j] = beta[j,i,l] / beta[j,i,j].
    """
    i, l = receiver
    beta = scenario.beta
    gam = stats.gamma()
    terms = []
    for j in range(scenario.n_cells):
        lam = lambda_mrt(scenario, stats, M, j)
        terms.append(M * (scenario.rho_d / lam) * gam[j, i] * beta[j, i, l])
    return math.fsum(terms)


@dataclass(frozen=True)
class MiTerms2:
    """2-cell mutual-information lower bounds at one receiver, network-numbered:
    index 1 = cell 1's signal, index 2 = cell 2's signal."""

    receiver: tuple[int, int]
    i_1_given_2: float
    i_2_given_1: float
    i_12: float


def mi_terms(scenario: NetworkScenario, stats: EstimationStats, M: int,
             precoder: Precoder, i: int, receiver_cell: int) -> MiTerms2:
    """The three decode-set bounds at receiver (i, receiver_cell)."""
    if scenario.n_cells != 2:
        raise ValueError("MiTerms2 is defined for the 2-cell system")
    rcvr = (i, receiver_cell)
    args = (scenario, stats, M, precoder, rcvr)
    return MiTerms2(
        receiver=rcvr,
        i_1_given_2=c_lb(power_terms(*args, omega=(0,))),
        i_2_given_1=c_lb(power_terms(*args, omega=(1,))),
        i_12=c_lb(power_terms(*args, omega=(0, 1))),
    )


# --- rate regions by bisection ---------------------------------------------

@dataclass(frozen=True)
class RegionConstraint:
    """coef1*R1 + coef2*R2 <= bound, with an optional min-form second slope:
    coef1*R1 + min(coef2*R2, min_form) <= bound."""

    coef1: int
    coef2: int
    bound: float
    min_form: Optional[float] = None


@dataclass(frozen=True)
class RateRegion2:
    """A 2-cell rate region as a finite constraint list (downward closed,
    contains the origin)."""

    constraints: tuple[RegionConstraint, ...]

    def feasible(self, r1: float, r2: float) -> bool:
        if r1 < 0.0 or r2 < 0.0:
            return False
        for c in self.constraints:
            second = c.coef2 * r2
            if c.min_form is not None:
                second = min(second, c.min_form)
            if c.coef1 * r1 + second > c.bound:
                return False
        return True

    def max_symmetric(self, tol: float = 1e-12) -> float:
        """Largest R with (R, R) feasible, by bisection."""
        hi = max((c.bound for c in self.constraints), default=0.0)
        if hi <= 0.0 or not self.feasible(0.0, 0.0):
            return 0.0
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.feasible(mid, mid):
                lo = mid
            else:
                hi = mid
        return lo


def snd_region(mi: MiTerms2, own_cell: int) -> RateRegion2:
    """Non-unique-decoding region at one receiver (own_cell in {0, 1})."""
    if own_cell == 0:
        i_own, i_oth = mi.i_1_given_2, mi.i_2_given_1
        own, oth = (1, 0), (0, 1)
    else:
        i_own, i_oth = mi.i_2_given_1, mi.i_1_given_2
        own, oth = (0, 1), (1, 0)
    return RateRegion2(constraints=(
        RegionConstraint(coef1=own[0], coef2=own[1], bound=i_own),
        RegionConstraint(coef1=own[0] + oth[0], coef2=own[1] + oth[1],
                         bound=mi.i_12, min_form=i_oth),
    ))


def intersect(*regions: RateRegion2) -> RateRegion2:
    cons = tuple(itertools.chain.from_iterable(r.constraints for r in regions))
    return RateRegion2(constraints=cons)


# --- layered (PD) bounds one split at a time -------------------------------

@dataclass(frozen=True)
class PdMiTerms:
    """Layered-input rate bounds at one receiver for a fixed split.

    r_full:        own signal (both layers), interferer inner layer known
    r_outer:       own outer layer, both inner layers known
    r_full_joint:  own signal jointly with the interferer inner layer
    r_outer_joint: own outer layer jointly with the interferer inner layer
    """

    r_full: float
    r_outer: float
    r_full_joint: float
    r_outer_joint: float


def pd_terms_from_budget(s_own: float, s_int: float, noise: float,
                         mu_own: float, mu_int: float) -> PdMiTerms:
    """Layered rate bounds from raw coherent powers; the interferer's outer
    layer (fraction mu_int of s_int) is absorbed into the noise."""
    den = noise + mu_int * s_int
    return PdMiTerms(
        r_full=capacity_bits(s_own / den),
        r_outer=capacity_bits(mu_own * s_own / den),
        r_full_joint=capacity_bits((s_own + (1.0 - mu_int) * s_int) / den),
        r_outer_joint=capacity_bits((mu_own * s_own + (1.0 - mu_int) * s_int) / den),
    )


def pd_mi_terms(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int, split: PdSplit,
                receiver_cell: int) -> PdMiTerms:
    """Layered rate bounds at one receiver for a fixed power split."""
    if scenario.n_cells != 2:
        raise ValueError("the rate-splitting scheme covers the 2-cell system only")
    theta, noise = link_budget(scenario, stats, M, precoder, (i, receiver_cell))
    s_own = float(theta[receiver_cell]) ** 2
    s_int = float(theta[1 - receiver_cell]) ** 2
    mu_own, mu_int = ((split.mu1, split.mu2) if receiver_cell == 0
                      else (split.mu2, split.mu1))
    return pd_terms_from_budget(s_own, s_int, noise, mu_own, mu_int)


def pd_tie_break(values: np.ndarray, mu: np.ndarray) -> tuple[int, int]:
    """(i1, i2) of the PD grid's best split: among every entry equal to the
    maximum, the smallest (mu1 + mu2, mu1), then (i1, i2)."""
    idx = np.argwhere(values == values.max())
    keys = [(mu[i1] + mu[i2], mu[i1], int(i1), int(i2)) for i1, i2 in idx]
    return min(keys)[2:]


# --- the M-dimensional channel path ----------------------------------------

@dataclass(frozen=True)
class ChannelRealization:
    """One small-scale fading realization with the matching MMSE estimates.

    g[j, k, l] is the true M-dim channel from BS j to user k of cell l,
    g_hat[j, k] the estimate BS j forms for its own user k, eps the error
    g[j, k, j] - g_hat[j, k], and pilot_noise[j, k] the shared pilot noise
    vector of pilot k at BS j.
    """

    M: int
    g: np.ndarray            # (L, K, L, M) complex
    g_hat: np.ndarray        # (L, K, M) complex
    eps: np.ndarray          # (L, K, M) complex
    pilot_noise: np.ndarray  # (L, K, M) complex
    alpha: np.ndarray        # (L, K, L), kept for cross-estimate reconstruction

    def pilot_observation(self, rho_p: float) -> np.ndarray:
        """sqrt(rho_p) * sum_l g[j, k, l] + z[j, k], shape (L, K, M)."""
        return np.sqrt(rho_p) * self.g.sum(axis=2) + self.pilot_noise

    def cross_estimate(self, j: int, k: int, l: int, rho_p: float) -> np.ndarray:
        """Estimate BS j would form for the pilot-k user of cell l.

        Shares the pilot observation with g_hat[j, k], so it is collinear
        with g_hat[j, k] with ratio beta[j,k,l] / beta[j,k,j].
        """
        obs = np.sqrt(rho_p) * self.g[j, k].sum(axis=0) + self.pilot_noise[j, k]
        return self.alpha[j, k, l] * obs


def sample_channels(scenario: NetworkScenario, stats: EstimationStats,
                    M: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw i.i.d. Rayleigh channels and build the contaminated MMSE estimates.

    Draw order (h then pilot noise) is fixed so a seeded generator reproduces
    the realization exactly.
    """
    L, K = scenario.n_cells, scenario.users_per_cell
    if M < K:
        raise ValueError(f"M={M} must be >= K={K}")
    h = crandn(rng, (L, K, L, M))
    z = crandn(rng, (L, K, M))
    g = np.sqrt(scenario.beta)[:, :, :, None] * h
    srp = np.sqrt(scenario.rho_p)
    obs = srp * g.sum(axis=2) + z
    g_hat = own_links(stats.alpha)[:, :, None] * obs
    eps = own_links(g) - g_hat
    return ChannelRealization(M=M, g=g, g_hat=g_hat, eps=eps,
                              pilot_noise=z, alpha=stats.alpha)


def zf_precoder(g_hat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse precoder V with V^H g_hat = I_K.

    Gram system solved by factorization; inputs with condition number beyond
    COND_LIMIT are rejected.
    """
    if g_hat.ndim != 2 or g_hat.shape[0] < g_hat.shape[1]:
        raise ValueError("g_hat must be an M x K matrix with M >= K")
    gram = g_hat.conj().T @ g_hat
    if np.linalg.cond(gram) > COND_LIMIT:
        raise np.linalg.LinAlgError("estimated channel matrix is rank deficient")
    return np.linalg.solve(gram, g_hat.conj().T).conj().T


def hardening_check(scenario: NetworkScenario, stats: EstimationStats,
                    m_values: list[int], trials: int, rng: np.random.Generator,
                    receiver: tuple[int, int] = (0, 0)) -> list[tuple[int, float]]:
    """Mean relative deviation of y/sqrt(M) from its large-M limit, per M.

    The limit is sum_j (theta_j / sqrt(M)) s_j[i], whose coefficients do not
    depend on M; deviations must shrink as M grows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("m_values must be strictly increasing")
    out = []
    for M in m_values:
        theta = effective_gain(scenario, stats, M, Precoder.MRT, receiver).theta
        coeff = theta / math.sqrt(M)
        parts = []
        for _, _, y, _, s_i in _chunk_iter(scenario, stats, M, Precoder.MRT,
                                           receiver, trials, rng):
            limit = s_i @ coeff
            dev = np.abs(y / math.sqrt(M) - limit) / np.abs(limit)
            parts.append(dev.sum())
        out.append((M, math.fsum(parts) / trials))
    return out


def load_scenario_config(path: str) -> ScenarioConfig:
    return scenario_config_from_dict(parse_key_values(path))
