"""Maximum symmetric rate of the 2-cell pilot-sharing pair under four
interference-management schemes.

All schemes consume the same per-receiver link budget (coherent powers
S_j = theta_j^2 and effective noise N). `Budgets.of` reads
`rate_core.link_budget` once per receiver for one (M, precoder); the
harness builds it once per (drop, precoder, M) and hands it to every
requested scheme's `rate_*`. N does not depend on the decode set, so a
decode set omega gets the bound C(sum_{j in omega} S_j / N):

  TIN  decode own signal, interferer in the noise.
  SD   jointly and uniquely decode both signals (MAC diagonal point).
  SND  decode own signal uniquely, interferer non-uniquely: per receiver
       R <= I_own|oth and R + min(R, I_oth|own) <= I_both.
  PD   rate splitting: each cell layers its signal with an outer-layer power
       fraction mu; receivers decode the interferer's inner layer
       non-uniquely and absorb its outer layer into the noise. The rate
       region is the standard 7-inequality superposition region; the split
       pair (mu1, mu2) is optimized on a grid.

The public `sym_rate_*(scenario, stats, M, precoder, i)` are thin wrappers:
they build the budgets and call the matching `rate_*`, which holds the
scheme's one implementation and its checks.

The network symmetric rate is the minimum over the two receivers. SND and PD
are floored at TIN, whose point both regions contain; a floor that would
correct more than CLAMP_TOL_BITS raises instead, since that is a fault in
the formula, not rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import EstimationStats
from .geometry import NetworkScenario
from .rate_core import Precoder, capacity_bits, decode_sets, link_budget


@dataclass(frozen=True)
class PdSplit:
    """Outer-layer power fractions of the two cells."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0.0 <= self.mu1 <= 1.0 and 0.0 <= self.mu2 <= 1.0):
            raise ValueError("power split fractions must lie in [0, 1]")


class Budgets(NamedTuple):
    """Link budget (S, N) of each receiver (i, l), l = 0..L-1, at one
    (M, precoder): the coherent powers S_j = theta_j^2 of every cell's signal
    and the effective noise N. precoder, M and i name the budget in the
    clamp messages."""

    receivers: tuple[tuple[tuple[float, ...], float], ...]  # (S, N) per l
    precoder: Precoder
    M: int
    i: int

    @classmethod
    def of(cls, scenario: NetworkScenario, stats: EstimationStats, M: int,
           precoder: Precoder, i: int) -> "Budgets":
        """Read `rate_core.link_budget` once per receiver (i, l)."""
        receivers = []
        for l in range(scenario.n_cells):
            theta, noise = link_budget(scenario, stats, M, precoder, (i, l))
            receivers.append((tuple(float(t) ** 2 for t in theta), noise))
        return cls(tuple(receivers), precoder, M, i)


def _decode_bound(S: tuple[float, ...], N: float, omega) -> float:
    """C(p1 / N) with p1 = sum of S_j over the decode set omega."""
    return capacity_bits(math.fsum(S[j] for j in omega) / N)


def _tin(S: tuple[float, ...], N: float, l: int) -> float:
    """Receiver l decodes its own signal, every other cell's in the noise."""
    return capacity_bits(S[l] / math.fsum([N] + [s for j, s in enumerate(S) if j != l]))


def rate_tin(b: Budgets) -> float:
    """Worst receiver's treat-interference-as-noise rate."""
    return min(_tin(S, N, l) for l, (S, N) in enumerate(b.receivers))


def rate_sd(b: Budgets) -> float:
    """Diagonal point of the unique-decoding MAC polytope, worst receiver."""
    L = len(b.receivers)
    if L < 2:
        raise ValueError("SD needs at least two cells")
    best = math.inf
    for S, N in b.receivers:
        for omega in decode_sets(L):
            best = min(best, _decode_bound(S, N, omega) / len(omega))
    return best


CLAMP_TOL_BITS = 1e-12  # largest correction a floor at TIN may make, in bits


def _check_clamp(what: str, gap: float, b: Budgets, cells: tuple[int, ...]) -> None:
    """Raise if a floor at the TIN rate would lift `what` by `gap` bits at
    the receivers (b.i, l), l in `cells`."""
    if gap > CLAMP_TOL_BITS:
        receivers = " and ".join(f"({b.i + 1},{l + 1})" for l in cells)
        raise ArithmeticError(
            f"{what} is {gap:.3g} bits below TIN at M={b.M}, {b.precoder.name}, "
            f"receiver {receivers}; the floor absorbs rounding only "
            f"(<= {CLAMP_TOL_BITS:g} bits)")


def _snd_at_receiver(i_own: float, i_oth: float, i_12: float) -> float:
    """max R with R <= i_own and R + min(R, i_oth) <= i_12."""
    return min(i_own, i_12 - min(i_oth, 0.5 * i_12))


def rate_snd(b: Budgets) -> float:
    """Symmetric rate under non-unique interference decoding (2 cells only)."""
    if len(b.receivers) != 2:
        raise ValueError("SND symmetric solver covers the 2-cell system only")
    rates = []
    for l, (S, N) in enumerate(b.receivers):
        r = _snd_at_receiver(_decode_bound(S, N, (l,)), _decode_bound(S, N, (1 - l,)),
                             _decode_bound(S, N, (0, 1)))
        tin = _tin(S, N, l)
        # region contains the TIN point; floor guards the log-identity rounding
        _check_clamp("SND", tin - r, b, (l,))
        rates.append(max(r, tin))
    return min(rates)


_PD_MESHES = {}  # grid size -> (mu, m1, m2); a sweep uses one size


def _pd_mesh(grid: int):
    """(mu, m1, m2): the uniform split grid over [0, 1] with both endpoints
    and its (mu1, mu2) mesh, mu1 along rows. Every PD evaluation of this
    grid size shares them, so they are read-only."""
    if grid not in _PD_MESHES:
        mu = np.linspace(0.0, 1.0, grid)
        m1, m2 = np.meshgrid(mu, mu, indexing="ij")
        for a in (mu, m1, m2):
            a.flags.writeable = False
        _PD_MESHES[grid] = mu, m1, m2
    return _PD_MESHES[grid]


def _pd_symmetric_grid(s1, n1, s2, n2, grid: int):
    """Vectorized symmetric value over the (mu1, mu2) grid of `grid` points
    per axis.

    s1/s2 are the (own, cross) coherent powers at receivers 1 and 2, n1/n2
    their noise levels. Returns a fresh (grid, grid) value array, mu1 along
    rows.
    """
    _, m1, m2 = _pd_mesh(grid)

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


def rate_pd(b: Budgets, grid: int = 21):
    """Best symmetric rate over an exhaustive (mu1, mu2) grid.

    Returns (rate, argmax split). Grid is uniform over [0, 1] with both
    endpoints; ties break toward smaller mu1 + mu2, then smaller mu1, so the
    result is order-independent.
    """
    if len(b.receivers) != 2:
        raise ValueError("the rate-splitting scheme covers the 2-cell system only")
    if grid < 2:
        raise ValueError("grid must have at least the two endpoints")
    (S1, n1), (S2, n2) = b.receivers
    s1, s2 = (S1[0], S1[1]), (S2[1], S2[0])

    mu = _pd_mesh(grid)[0]
    values = _pd_symmetric_grid(s1, n1, s2, n2, grid)

    # mu = (1, 1) collapses to TIN exactly; evaluate that corner in reduced
    # form, since the averaged sum bounds are redundant there and only add
    # rounding.
    tin_corner = min(_tin(S1, n1, 0), _tin(S2, n2, 1))
    _check_clamp("PD grid corner (1, 1)", tin_corner - values[-1, -1], b, (0, 1))
    if tin_corner > values[-1, -1]:
        values[-1, -1] = tin_corner

    best = float(values.max())
    idx = np.argwhere(values == values.max())
    keys = [(mu[i1] + mu[i2], mu[i1], i1, i2) for i1, i2 in idx]
    _, _, b1, b2 = min(keys)
    return best, PdSplit(mu1=float(mu[b1]), mu2=float(mu[b2]))


def sym_rate_tin(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """`rate_tin` of the budgets at (M, precoder), pilot index i."""
    return rate_tin(Budgets.of(scenario, stats, M, precoder, i))


def sym_rate_sd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int) -> float:
    """`rate_sd` of the budgets at (M, precoder), pilot index i."""
    return rate_sd(Budgets.of(scenario, stats, M, precoder, i))


def sym_rate_snd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """`rate_snd` of the budgets at (M, precoder), pilot index i."""
    return rate_snd(Budgets.of(scenario, stats, M, precoder, i))


def sym_rate_pd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int, grid: int = 21):
    """`rate_pd` of the budgets at (M, precoder), pilot index i: (rate, split)."""
    return rate_pd(Budgets.of(scenario, stats, M, precoder, i), grid)
