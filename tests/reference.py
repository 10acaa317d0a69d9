"""Reference routes the tests check the library against.

None of this is on a path `sweep`, `verify` or `scenario` runs:

- the scalar scenario: one rejection-sampled point per user and the gain
  tensor filled one entry at a time (`sample_hexagon_point`,
  `place_users_loop`, `build_beta_loop`), which `geometry`'s array path
  must equal bit for bit;
- the per-cell loop that builds the unit-M_eff powers S1 one cell at a
  time, and from them S = M_eff S1 and theta = sqrt(M_eff S1), in the
  operation order `rate_core.link_budgets` and `rate_core.m_eff` keep
  (`unit_budget_per_cell`, `theta_per_cell`);
- the unit-M_eff budget in 50-digit decimal arithmetic from the float
  inputs (`exact_unit_budget`), the distance of a float from it in ulps
  (`ulps`), and the 2-cell TIN, SD and SND rates it gives, by the 2-cell
  closed forms in the same arithmetic (`exact_rates_2cell`);
- the term-by-term power split of a decode set (`PowerTerms`,
  `power_decomposition_mrt`, `power_decomposition_zf`, `power_terms`), the
  route the closed-form noise of `rate_core.link_budget` is checked against,
  and the compact MRT uncertainty power (`p2_mrt_compact`);
- per-decode-set rate bounds built from those terms (`c_lb`, `mi_terms`),
  and the TIN bound of one receiver (`tin_lb`);
- a 2-cell bound table whose receivers both see one triple of decode-set
  bounds (`mi_table`), for the schemes' reductions;
- explicit 2-cell rate regions reduced to the diagonal by bisection
  (`RateRegion2`, `snd_region`, `intersect`) and the layered PD bounds one
  split at a time (`pd_terms_from_budget`, `pd_mi_terms`), and the PD
  grid's tie-break by search over every maximum (`pd_tie_break`);
- the oracle's former route on whole Gram matrices: the sampler that
  multiplies the Bartlett factor out to W = d T^H T d
  (`sample_gram_matrix`) and the kernels that read the estimate Gram G
  from W and solve it by LU (`mrt_chunk_gram`, `zf_chunk_gram`), which the
  factor kernels must match on the same draws;
- the M-dimensional channel path the oracle is tested against
  (`sample_channels`, `ChannelRealization`, `zf_precoder`) and the MRT
  channel-hardening table (`hardening_check`);
- `load_scenario_config`, a scenario-only config file reader.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from pcdl._kernels import COND_LIMIT, _outputs
from pcdl.estimation import EstimationStats, _bartlett_indices, crandn, own_links
from pcdl.geometry import (SQRT3, NetworkScenario, ScenarioConfig, bs_layout,
                           hex_apothem, parse_key_values, path_loss_db,
                           scenario_config_from_dict)
from pcdl.mc_oracle import _chunk_iter
from pcdl.rate_core import (PowerDecomposition, Precoder, _check_omega,
                            _normalization, capacity_bits, effective_gain,
                            link_budget)
from pcdl.schemes import Budgets, PdSplit


# --- the scenario one user and one gain at a time --------------------------

def sample_hexagon_point(rng: np.random.Generator, radius: float, min_dist: float):
    """Uniform point in the hexagon, at least min_dist from the center.

    Rejection from the bounding box, x then y per candidate; terminates since
    min_dist < radius.
    """
    a = hex_apothem(radius)
    while True:
        x = rng.uniform(-a, a)
        y = rng.uniform(-radius, radius)
        if (abs(x) <= a
                and abs(0.5 * x + 0.5 * SQRT3 * y) <= a
                and abs(0.5 * x - 0.5 * SQRT3 * y) <= a
                and math.hypot(x, y) >= min_dist):
            return x, y


def place_users_loop(config: ScenarioConfig, rng: np.random.Generator) -> NetworkScenario:
    """One scalar rejection loop per user, cell 0's users first."""
    L, K = config.L, config.K
    centers = bs_layout(L, config.cell_radius_m)
    pos = np.zeros((L, K, 2))
    for l in range(L):
        for k in range(K):
            x, y = sample_hexagon_point(rng, config.cell_radius_m, config.min_bs_distance_m)
            pos[l, k, 0] = centers[l, 0] + x
            pos[l, k, 1] = centers[l, 1] + y
    beta, rho_d, rho_p = build_beta_loop(config, centers, pos)
    return NetworkScenario(bs_positions=centers, user_positions=pos,
                           beta=beta, rho_d=rho_d, rho_p=rho_p)


def build_beta_loop(config: ScenarioConfig, bs_positions: np.ndarray,
                    user_positions: np.ndarray):
    """beta[j, k, l] one BS's distances at a time and one entry at a time."""
    L, K = config.L, config.K
    dz = config.bs_height_m - config.ue_height_m
    beta = np.zeros((L, K, L))
    for j in range(L):
        d2 = np.hypot(user_positions[:, :, 0] - bs_positions[j, 0],
                      user_positions[:, :, 1] - bs_positions[j, 1])  # (L, K)
        d3 = np.hypot(d2, dz)
        for l in range(L):
            for k in range(K):
                pl = path_loss_db(float(d3[l, k]), config.carrier_freq_ghz,
                                  config.ue_height_m)
                beta[j, k, l] = 10.0 ** (pl / 10.0)
    noise_w = config.noise_power_w
    rho_d = (config.bs_total_power_w / K) / noise_w
    rho_p = config.ue_pilot_power_w / noise_w
    return beta, rho_d, rho_p


# --- the budget one cell at a time ----------------------------------------

def _m_eff(M: int, precoder: Precoder, K: int) -> float:
    return float(M) if precoder is Precoder.MRT else float(M) - K


def unit_budget_per_cell(scenario: NetworkScenario, stats: EstimationStats,
                         precoder: Precoder, receiver: tuple[int, int]) -> list[float]:
    """S1_j, cell j's coherent power at receiver (i, l) per unit M_eff, cell
    by cell:

    MRT: S1_j = rho_d K (sqrt(rho_p) beta[j,i,l] alpha[j,i,j])^2 / fsum_k gamma_jk
    ZF:  S1_j = rho_d K (beta[j,i,l] / beta[j,i,j])^2 / fsum_k (1/gamma_jk)
    """
    i, l = receiver
    K = scenario.users_per_cell
    beta, alpha, gam = scenario.beta, stats.alpha, stats.gamma()
    S1 = []
    for j in range(scenario.n_cells):
        if precoder is Precoder.MRT:
            coef = math.sqrt(scenario.rho_p) * beta[j, i, l] * alpha[j, i, j]
            sums = math.fsum(gam[j])
        else:
            coef = beta[j, i, l] / beta[j, i, j]
            sums = math.fsum(1.0 / g for g in gam[j])
        S1.append(scenario.rho_d * K * (coef * coef) / sums)
    return S1


def theta_per_cell(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder, receiver: tuple[int, int]) -> np.ndarray:
    """theta_j = sqrt(M_eff S1_j) at receiver (i, l) for one M, cell by cell,
    with M_eff = M under MRT and M - K under ZF."""
    m = _m_eff(M, precoder, scenario.users_per_cell)
    return np.array([math.sqrt(m * s) for s in
                     unit_budget_per_cell(scenario, stats, precoder, receiver)])


def exact_unit_budget(scenario: NetworkScenario, precoder: Precoder,
                      i: int, digits: int = 50):
    """(S1, N) at every receiver (i, l) as `Decimal`, S1[l][j] and N[l],
    computed at `digits` significant digits from the float beta, rho_p and
    rho_d taken as exact. alpha and gamma are rebuilt from beta, not read
    from `compute_alpha`."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        L, K = scenario.n_cells, scenario.users_per_cell
        beta = [[[D(float(b)) for b in row] for row in plane] for plane in scenario.beta]
        rho_p, rho_d = D(scenario.rho_p), D(scenario.rho_d)
        srp = rho_p.sqrt()
        den = [[1 + rho_p * sum(beta[j][k]) for k in range(K)] for j in range(L)]

        def alpha(j, k, l):
            return srp * beta[j][k][l] / den[j][k]

        gam = [[srp * beta[j][k][j] * alpha(j, k, j) for k in range(K)] for j in range(L)]
        if precoder is Precoder.MRT:
            sums = [sum(g) for g in gam]
        else:
            sums = [sum(1 / x for x in g) for g in gam]
        S1, N = [], []
        for l in range(L):
            row = []
            for j in range(L):
                if precoder is Precoder.MRT:
                    coef = srp * beta[j][i][l] * alpha(j, i, j)
                else:
                    coef = beta[j][i][l] / beta[j][i][j]
                row.append(rho_d * K * coef * coef / sums[j])
            S1.append(row)
            if precoder is Precoder.MRT:
                leak = sum(beta[j][i][l] for j in range(L))
            else:
                leak = sum(beta[j][i][l] * (1 - srp * alpha(j, i, l)) for j in range(L))
            N.append(1 + rho_d * K * leak)
        return S1, N


def ulps(value: float, exact: decimal.Decimal) -> float:
    """|value - exact| in units of the last place of value."""
    return float(abs(decimal.Decimal(value) - exact) / decimal.Decimal(math.ulp(value)))


def exact_rates_2cell(scenario: NetworkScenario, precoder: Precoder, i: int,
                      m_values, digits: int = 50) -> dict:
    """{"TIN", "SD", "SND"}: the symmetric rates of the 2-cell receivers
    (i, 0), (i, 1) at every M in m_values, as `Decimal`, from
    `exact_unit_budget` with Decimal.ln. Per receiver, with i_own, i_oth and
    i_12 the bounds C(S_T / N) of the own cell, the other and both:
    TIN C(S_own / (N + S_oth)), SD min(i_own, i_oth, i_12 / 2) and SND
    min(i_own, i_12 - min(i_oth, i_12 / 2)), the largest R with R <= i_own
    and R + min(R, i_oth) <= i_12; each the worse receiver's."""
    if scenario.n_cells != 2:
        raise ValueError("the closed forms cover the 2-cell system")
    S1, N = exact_unit_budget(scenario, precoder, i, digits)
    K = scenario.users_per_cell
    rates = {"TIN": [], "SD": [], "SND": []}
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ln2 = decimal.Decimal(2).ln()

        def cap(snr):
            return (1 + snr).ln() / ln2

        for M in m_values:
            m = decimal.Decimal(M if precoder is Precoder.MRT else M - K)
            per = {key: [] for key in rates}
            for l in range(2):
                own, oth = m * S1[l][l], m * S1[l][1 - l]
                i_own, i_oth, i_12 = cap(own / N[l]), cap(oth / N[l]), cap((own + oth) / N[l])
                per["TIN"].append(cap(own / (N[l] + oth)))
                per["SD"].append(min(i_own, i_oth, i_12 / 2))
                per["SND"].append(min(i_own, i_12 - min(i_oth, i_12 / 2)))
            for key in rates:
                rates[key].append(min(per[key]))
    return rates


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

    lam = _normalization(scenario, stats, M, Precoder.MRT)
    p1_terms = []
    p2_terms = []
    p3_terms = []
    for j in range(L):
        scale = rho_d / lam[j]
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

    lam = _normalization(scenario, stats, M, Precoder.ZF)
    p1_terms = []
    p2_terms = []
    for j in range(L):
        scale = scenario.rho_d / lam[j]
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
    absorbed into the worst-case noise: C(S_l / (N + sum_{j != l} S_j)),
    with S_j = M_eff S1_j cell by cell."""
    i, l = receiver
    m = _m_eff(M, precoder, scenario.users_per_cell)
    S = [m * s for s in unit_budget_per_cell(scenario, stats, precoder, receiver)]
    _, noise = link_budget(scenario, stats, M, precoder, receiver)
    return capacity_bits(S[l] / math.fsum([noise] + [S[j] for j in range(len(S)) if j != l]))


def p2_mrt_compact(scenario: NetworkScenario, stats: EstimationStats,
                   M: int, receiver: tuple[int, int]) -> float:
    """Single-term MRT uncertainty power M * sum_j rho_d*gamma_ji*beta_jil/lam_j.

    Cross-check for the two-part sum in power_decomposition_mrt; the two agree
    because alpha[j,i,l] / alpha[j,i,j] = beta[j,i,l] / beta[j,i,j].
    """
    i, l = receiver
    beta = scenario.beta
    gam = stats.gamma()
    lam = _normalization(scenario, stats, M, Precoder.MRT)
    terms = []
    for j in range(scenario.n_cells):
        terms.append(M * (scenario.rho_d / lam[j]) * gam[j, i] * beta[j, i, l])
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


def mi_table(i_own: float, i_oth: float, i_12: float) -> Budgets:
    """One-M budgets of two receivers that both see the bounds (i_own, i_oth,
    i_12) of decoding both cells, in `schemes.bound_table`'s layout: for
    D = {l} only T = {l} is a bound, TIN's i_12 - i_oth (the same bound as
    a log ratio); cells outside D hold 0 and subsets outside D +inf. S and
    N are None: the table alone carries the bounds."""
    G = np.zeros((1, 2, 3, 3))
    for l in range(2):
        G[0, l, l] = np.inf
        G[0, l, l, l] = i_12 - i_oth
        G[0, l, 2] = [i_own, i_oth, i_12 / 2] if l == 0 else [i_oth, i_own, i_12 / 2]
    return Budgets(None, None, Precoder.MRT, (1,), 0, G)


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


# --- the Gram-matrix oracle route ------------------------------------------

def sample_gram_matrix(rng: np.random.Generator, var: np.ndarray, M: int,
                       trials: int) -> np.ndarray:
    """Gram matrices W = d T^H T d of the Bartlett factor T: the same draws
    as `estimation.sample_gram`, multiplied out."""
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    var = np.asarray(var, dtype=float)
    n = var.shape[-1]
    r = min(M, n)
    shape = (trials,) + var.shape[:-1]
    rows, cols, diag = _bartlett_indices(r, n)
    T = np.zeros(shape + (r, n), dtype=complex)
    T[..., rows, cols] = crandn(rng, shape + (rows.size,))
    T[..., diag, diag] = np.sqrt(rng.standard_gamma(M - diag, size=shape + (r,)))
    d = np.sqrt(var)
    return d[..., :, None] * (T.conj().swapaxes(-1, -2) @ T) * d[..., None, :]


def _estimate_gram(gram, alpha_own, c_rx, i):
    """(G, t) per trial and cell from the observation Gram W (c, L, K+1, K+1)."""
    K = alpha_own.shape[1]
    a = alpha_own[None]                                       # (1,L,K)
    G = a[..., :, None] * gram[..., :K, :K] * a[..., None, :]
    t = a * (c_rx[None, :, None] * gram[..., :K, i] + gram[..., :K, K])
    return G, t


def mrt_chunk_gram(gram, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
    """`_kernels.mrt_chunk` on the Gram matrices W instead of their factors."""
    G, t = _estimate_gram(gram, alpha_own, c_rx, i)
    K = G.shape[-1]
    gain, y = _outputs(t.conj(), s, w, scale, i)
    tx2 = np.einsum("cjk,cjkl,cjl->cj", s.conj(), G, s).real  # ||sum_k ghat_k s_k||^2
    power = rho_d * tx2 / (lam[None, :] * K)
    return gain, y, power


def _well_conditioned(G, G_inv):
    """Per trial, whether ||G||_F ||G^-1||_F <= COND_LIMIT / 2.

    The product bounds cond_2(G) from above. Half the limit leaves room for
    the rounding of the computed inverse (relative error about cond * eps,
    1e-4 at the limit), so an accepted G has cond_2 <= COND_LIMIT. G is a
    Gram matrix, so rounding can push an eigenvalue below zero only by about
    K * eps * tr G, while an accepted G keeps every |eigenvalue| above
    tr G / (sqrt(K) * COND_LIMIT): an accepted G is positive definite too.
    NaN and inf products fail.
    """
    def fro2(X):
        Xr = X.view(np.float64)
        return np.einsum("...ij,...ij->...", Xr, Xr)
    return fro2(G) * fro2(G_inv) <= (0.5 * COND_LIMIT) ** 2


def zf_chunk_gram(gram, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
    """`_kernels.zf_chunk` on the Gram matrices W: one LU solve with K + 2
    right-hand sides gives G^-1 t, G^-1 s and G^-1 for the guard."""
    G, t = _estimate_gram(gram, alpha_own, c_rx, i)
    K = G.shape[-1]
    # one LU solve gives G^-1 [ghat^H g_rx, s] and G^-1 itself for the guard
    rhs = np.empty(G.shape[:-1] + (K + 2,), dtype=complex)
    rhs[..., 0] = t
    rhs[..., 1] = s
    rhs[..., 2:] = np.eye(K)
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("estimated channel matrix is rank deficient") from None
    with np.errstate(over="ignore", invalid="ignore"):
        unsure = ~_well_conditioned(G, sol[..., 2:])
    if unsure.any():
        # the bound cannot clear these trials: decide by the exact eigenvalues
        ev = np.linalg.eigvalsh(G[unsure])
        if np.any(ev[:, 0] <= 0) or np.any(ev[:, -1] > COND_LIMIT * ev[:, 0]):
            raise np.linalg.LinAlgError("estimated channel matrix is rank deficient")
    uq = sol[..., :2]
    gain, y = _outputs(uq[..., 0].conj(), s, w, scale, i)
    power = rho_d * np.einsum("cjk,cjk->cj", s.conj(), uq[..., 1]).real / (lam[None, :] * K)
    return gain, y, power


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
        eff = effective_gain(scenario, stats, M, Precoder.MRT, receiver)
        coeff = eff.theta / math.sqrt(M)
        parts = []
        for _, _, y, _, s_i in _chunk_iter(scenario, stats, M, Precoder.MRT,
                                           receiver, eff, trials, rng):
            limit = s_i @ coeff
            dev = np.abs(y / math.sqrt(M) - limit) / np.abs(limit)
            parts.append(dev.sum())
        out.append((M, math.fsum(parts) / trials))
    return out


def load_scenario_config(path: str) -> ScenarioConfig:
    return scenario_config_from_dict(parse_key_values(path))
