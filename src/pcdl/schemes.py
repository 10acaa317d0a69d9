"""Maximum symmetric rate of the 2-cell pilot-sharing pair under four
interference-management schemes.

All schemes consume the same per-receiver link budget (coherent powers
S_j = theta_j^2 and effective noise N):

  TIN  decode own signal, interferer in the noise.
  SD   jointly and uniquely decode both signals (MAC diagonal point).
  SND  decode own signal uniquely, interferer non-uniquely: per receiver
       R <= I_own|oth and R + min(R, I_oth|own) <= I_both.
  PD   rate splitting: each cell layers its signal with an outer-layer power
       fraction mu; receivers decode the interferer's inner layer
       non-uniquely and absorb its outer layer into the noise. The rate
       region is the standard 7-inequality superposition region; the split
       pair (mu1, mu2) is optimized on a grid.

The network symmetric rate is the minimum over the two receivers. SND and PD
are floored at TIN, whose point both regions contain; a floor that would
correct more than CLAMP_TOL_BITS raises instead, since that is a fault in
the formula, not rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimation import EstimationStats
from .geometry import NetworkScenario
from .rate_core import (Precoder, c_lb, capacity_bits, link_budget,
                        power_decomposition, tin_lb)


@dataclass(frozen=True)
class MiTerms2:
    """2-cell mutual-information lower bounds at one receiver, network-numbered:
    index 1 = cell 1's signal, index 2 = cell 2's signal."""

    receiver: tuple[int, int]
    i_1_given_2: float
    i_2_given_1: float
    i_12: float


@dataclass(frozen=True)
class PdSplit:
    """Outer-layer power fractions of the two cells."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0.0 <= self.mu1 <= 1.0 and 0.0 <= self.mu2 <= 1.0):
            raise ValueError("power split fractions must lie in [0, 1]")


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


def mi_terms(scenario: NetworkScenario, stats: EstimationStats, M: int,
             precoder: Precoder, i: int, receiver_cell: int) -> MiTerms2:
    """The three decode-set bounds at receiver (i, receiver_cell)."""
    if scenario.n_cells != 2:
        raise ValueError("MiTerms2 is defined for the 2-cell system")
    rcvr = (i, receiver_cell)
    args = (scenario, stats, M, precoder, rcvr)
    return MiTerms2(
        receiver=rcvr,
        i_1_given_2=c_lb(power_decomposition(*args, omega=(0,))),
        i_2_given_1=c_lb(power_decomposition(*args, omega=(1,))),
        i_12=c_lb(power_decomposition(*args, omega=(0, 1))),
    )


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


def sym_rate_tin(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """Worst receiver's treat-interference-as-noise rate."""
    return min(tin_lb(scenario, stats, M, precoder, (i, l))
               for l in range(scenario.n_cells))


def sym_rate_sd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int) -> float:
    """Diagonal point of the unique-decoding MAC polytope, worst receiver."""
    L = scenario.n_cells
    if L < 2:
        raise ValueError("SD needs at least two cells")
    cells = range(L)
    best = math.inf
    for l in cells:
        for size in range(1, L + 1):
            for omega in itertools.combinations(cells, size):
                pd = power_decomposition(scenario, stats, M, precoder, (i, l), omega)
                best = min(best, c_lb(pd) / size)
    return best


CLAMP_TOL_BITS = 1e-12  # largest correction a floor at TIN may make, in bits


def _check_clamp(what: str, gap: float, precoder: Precoder, M: int, i: int,
                 cells: tuple[int, ...]) -> None:
    """Raise if a floor at the TIN rate would lift `what` by `gap` bits at
    the receivers (i, l), l in `cells`."""
    if gap > CLAMP_TOL_BITS:
        receivers = " and ".join(f"({i + 1},{l + 1})" for l in cells)
        raise ArithmeticError(
            f"{what} is {gap:.3g} bits below TIN at M={M}, {precoder.name}, "
            f"receiver {receivers}; the floor absorbs rounding only "
            f"(<= {CLAMP_TOL_BITS:g} bits)")


def _snd_at_receiver(i_own: float, i_oth: float, i_12: float) -> float:
    """max R with R <= i_own and R + min(R, i_oth) <= i_12."""
    return min(i_own, i_12 - min(i_oth, 0.5 * i_12))


def sym_rate_snd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """Symmetric rate under non-unique interference decoding (2 cells only)."""
    if scenario.n_cells != 2:
        raise ValueError("SND symmetric solver covers the 2-cell system only")
    rates = []
    for l in range(2):
        mi = mi_terms(scenario, stats, M, precoder, i, l)
        i_own, i_oth = ((mi.i_1_given_2, mi.i_2_given_1) if l == 0
                        else (mi.i_2_given_1, mi.i_1_given_2))
        r = _snd_at_receiver(i_own, i_oth, mi.i_12)
        tin = tin_lb(scenario, stats, M, precoder, (i, l))
        # region contains the TIN point; floor guards the log-identity rounding
        _check_clamp("SND", tin - r, precoder, M, i, (l,))
        rates.append(max(r, tin))
    return min(rates)


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


def _pd_symmetric_grid(s1, n1, s2, n2, mu):
    """Vectorized symmetric value over the (mu1, mu2) grid.

    s1/s2 are the (own, cross) coherent powers at receivers 1 and 2, n1/n2
    their noise levels. Returns the (len(mu), len(mu)) value array, mu1 along
    rows.
    """
    m1, m2 = np.meshgrid(mu, mu, indexing="ij")

    def terms(so, si, nn, mo, mi):
        den = nn + mi * si
        a = np.log2(1.0 + so / den)
        b = np.log2(1.0 + mo * so / den)
        c = np.log2(1.0 + (so + (1.0 - mi) * si) / den)
        d = np.log2(1.0 + (mo * so + (1.0 - mi) * si) / den)
        return a, b, c, d

    a1, b1, c1, d1 = terms(s1[0], s1[1], n1, m1, m2)
    a2, b2, c2, d2 = terms(s2[0], s2[1], n2, m2, m1)
    return np.minimum.reduce([
        a1,
        a2,
        (c1 + b2) / 2.0,
        (c2 + b1) / 2.0,
        (d1 + d2) / 2.0,
        (c1 + b1 + d2) / 3.0,
        (c2 + b2 + d1) / 3.0,
    ])


def sym_rate_pd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int, grid: int = 21):
    """Best symmetric rate over an exhaustive (mu1, mu2) grid.

    Returns (rate, argmax split). Grid is uniform over [0, 1] with both
    endpoints; ties break toward smaller mu1 + mu2, then smaller mu1, so the
    result is order-independent.
    """
    if scenario.n_cells != 2:
        raise ValueError("the rate-splitting scheme covers the 2-cell system only")
    if grid < 2:
        raise ValueError("grid must have at least the two endpoints")
    budgets = []
    for l in range(2):
        theta, noise = link_budget(scenario, stats, M, precoder, (i, l))
        budgets.append(((float(theta[l]) ** 2, float(theta[1 - l]) ** 2), noise))
    (s1, n1), (s2, n2) = budgets

    mu = np.linspace(0.0, 1.0, grid)
    values = _pd_symmetric_grid(s1, n1, s2, n2, mu)

    # mu = (1, 1) collapses to TIN exactly; evaluate that corner in reduced
    # form, since the averaged sum bounds are redundant there and only add
    # rounding.
    tin_corner = min(capacity_bits(s1[0] / (n1 + s1[1])),
                     capacity_bits(s2[0] / (n2 + s2[1])))
    _check_clamp("PD grid corner (1, 1)", tin_corner - values[-1, -1], precoder, M,
                 i, (0, 1))
    if tin_corner > values[-1, -1]:
        values[-1, -1] = tin_corner

    best = float(values.max())
    idx = np.argwhere(values == values.max())
    keys = [(mu[i1] + mu[i2], mu[i1], i1, i2) for i1, i2 in idx]
    _, _, b1, b2 = min(keys)
    return best, PdSplit(mu1=float(mu[b1]), mu2=float(mu[b2]))
