"""Maximum symmetric rate of the 2-cell pilot-sharing pair under four
interference-management schemes.

All schemes consume the same per-receiver link budget (coherent powers
S_j = M_eff S1_j and effective noise N), at every M of a sweep at once. N
does not depend on the decode set, so decode set omega gets the bound
C(sum_{j in omega} S_j / N). `Budgets.of` scales `rate_core.link_budgets`
to every M once per (precoder, pilot index) and forms every receiver's
bounds once (`bound_table`); the harness builds it once per (drop,
precoder), and every scheme's `rate_*` reads that table:

  TIN  decode own signal, interferer in the noise.
  SD   jointly and uniquely decode both signals (MAC diagonal point).
  SND  decode own signal uniquely, interferer non-uniquely: per receiver
       R <= I_own|oth and R + min(R, I_oth|own) <= I_both.
  PD   rate splitting: each cell layers its signal with an outer-layer power
       fraction mu; receivers decode the interferer's inner layer
       non-uniquely and absorb its outer layer into the noise. The rate
       region is the standard 7-inequality superposition region; the split
       pair (mu1, mu2) is optimized on a grid.

TIN, SD and SND are array arithmetic over the table. PD searches its
(mu1, mu2) grid once per M: the terms that depend on one cell's mu only are
1-D, and the seven bounds fold into one grid in place.

The public `sym_rate_*(scenario, stats, M, precoder, i)` are thin wrappers:
they build the budgets at the one M and call the matching `rate_*`, which
holds the scheme's one implementation and its checks.

The network symmetric rate is the minimum over the two receivers. SND and PD
are floored at TIN, whose point both regions contain; a floor that would
correct more than CLAMP_TOL_BITS raises instead, since that is a fault in
the formula, not rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import EstimationStats
from .geometry import NetworkScenario
from .rate_core import Precoder, capacity_bits, decode_sets, link_budgets, m_eff


@dataclass(frozen=True)
class PdSplit:
    """Outer-layer power fractions of the two cells."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0.0 <= self.mu1 <= 1.0 and 0.0 <= self.mu2 <= 1.0):
            raise ValueError("power split fractions must lie in [0, 1]")


class Budgets(NamedTuple):
    """Link budgets of the receivers (i, l), l = 0..L-1, for one precoder at
    every M of a sweep: S[m, l, j] = M_eff[m] S1[l, j] is the coherent power
    of cell j's signal at receiver (i, l) and N[l] that receiver's effective
    noise, the same at every M. precoder, M and i name a budget in the clamp
    messages; C and tin hold `bound_table(S, N)`, which the schemes read."""

    S: np.ndarray          # (n_M, L, L)
    N: np.ndarray          # (L,)
    precoder: Precoder
    M: tuple[int, ...]
    i: int
    C: np.ndarray          # (n_M, L, n_Omega)
    tin: np.ndarray        # (n_M, L)

    @classmethod
    def of(cls, scenario: NetworkScenario, stats: EstimationStats, m_values,
           precoder: Precoder, i: int) -> "Budgets":
        """Read `rate_core.link_budgets` once; scale S1 to every M in m_values."""
        S1, noise = link_budgets(scenario, stats, precoder, i)
        S = m_eff(m_values, precoder, scenario.users_per_cell)[:, None, None] * S1
        return cls(S, noise, precoder, tuple(m_values), i, *bound_table(S, noise))


def _fsum(terms):
    """math.fsum of the terms at each M; each term is a scalar or one value
    per M. Up to two terms the correctly rounded sum is one IEEE addition."""
    if len(terms) <= 2:
        return sum(terms[1:], terms[0])
    return np.array([math.fsum(t) for t in zip(*np.broadcast_arrays(*terms))])


def bound_table(S: np.ndarray, N: np.ndarray):
    """(C, tin) of budgets S (n_M, L, L) and N (L,): C[m, l, o] = C(S_omega /
    N_l) at receiver l, omega = decode_sets(L)[o], and tin[m, l] the bound of
    its own signal with every other cell's in the noise."""
    sets = decode_sets(len(N))
    C, tin = np.empty(S.shape[:2] + (len(sets),)), np.empty(S.shape[:2])
    for l, n in enumerate(N):
        for o, omega in enumerate(sets):
            C[:, l, o] = capacity_bits(_fsum([S[:, l, j] for j in omega]) / n)
        others = [S[:, l, j] for j in range(len(N)) if j != l]
        tin[:, l] = capacity_bits(S[:, l, l] / _fsum([n] + others))
    return C, tin


def rate_tin(b: Budgets) -> np.ndarray:
    """Worst receiver's treat-interference-as-noise rate, per M."""
    return b.tin.min(axis=1)


def rate_sd(b: Budgets) -> np.ndarray:
    """Diagonal point of the unique-decoding MAC polytope, worst receiver,
    per M."""
    L = b.S.shape[1]
    if L < 2:
        raise ValueError("SD needs at least two cells")
    return (b.C / [len(omega) for omega in decode_sets(L)]).min(axis=(1, 2))


CLAMP_TOL_BITS = 1e-12  # largest correction a floor at TIN may make, in bits


def _check_clamp(what: str, gap: np.ndarray, b: Budgets, cells: tuple[int, ...]) -> None:
    """Raise if a floor at the TIN rate would lift `what` by gap[m] bits at
    the receivers (b.i, l), l in `cells`, at any M; name the first such M."""
    over = np.flatnonzero(gap > CLAMP_TOL_BITS)
    if over.size:
        m = over[0]
        receivers = " and ".join(f"({b.i + 1},{l + 1})" for l in cells)
        raise ArithmeticError(
            f"{what} is {gap[m]:.3g} bits below TIN at M={b.M[m]}, {b.precoder.name}, "
            f"receiver {receivers}; the floor absorbs rounding only "
            f"(<= {CLAMP_TOL_BITS:g} bits)")


def _snd_at_receiver(i_own, i_oth, i_12):
    """max R with R <= i_own and R + min(R, i_oth) <= i_12, elementwise."""
    return np.minimum(i_own, i_12 - np.minimum(i_oth, 0.5 * i_12))


def rate_snd(b: Budgets) -> np.ndarray:
    """Symmetric rate under non-unique interference decoding (2 cells only),
    per M; decode_sets(2) is (0,), (1,), (0, 1)."""
    if b.S.shape[1] != 2:
        raise ValueError("SND symmetric solver covers the 2-cell system only")
    rates = []
    for l in range(2):
        r = _snd_at_receiver(b.C[:, l, l], b.C[:, l, 1 - l], b.C[:, l, 2])
        # region contains the TIN point; floor guards the log-identity rounding
        _check_clamp("SND", b.tin[:, l] - r, b, (l,))
        rates.append(np.maximum(r, b.tin[:, l]))
    return np.minimum(*rates)


@functools.lru_cache(maxsize=None)
def _pd_mesh(grid: int):
    """(mu, m1, m2): the uniform split grid over [0, 1] with both endpoints
    and its sparse (mu1, mu2) mesh, mu1 as a (grid, 1) column and mu2 as a
    (1, grid) row. Every PD evaluation of this grid size shares them, so
    they are read-only."""
    mu = np.linspace(0.0, 1.0, grid)
    mu.flags.writeable = False
    return mu, mu[:, None], mu[None, :]


@functools.lru_cache(maxsize=None)
def _pd_tie_order(grid: int) -> np.ndarray:
    """Flat indices i1 * grid + i2 of the (mu1, mu2) grid, sorted by
    (mu1 + mu2, mu1): the first one that reaches the maximum is the split
    `rate_pd` returns. Shared per grid size, so read-only."""
    mu = _pd_mesh(grid)[0]
    i1, i2 = np.divmod(np.arange(grid * grid), grid)
    order = np.lexsort((i2, i1, mu[i1], mu[i1] + mu[i2]))
    order.flags.writeable = False
    return order


def _pd_symmetric_grid(s1, n1, s2, n2, grid: int):
    """Vectorized symmetric value over the (mu1, mu2) grid of `grid` points
    per axis.

    s1/s2 are the (own, cross) coherent powers at receivers 1 and 2, n1/n2
    their noise levels. Returns a fresh (grid, grid) value array, mu1 along
    rows.
    """
    _, m1, m2 = _pd_mesh(grid)

    def terms(so, si, nn, mo, mi):
        # a and c depend on the interferer's split mi only, so they keep its
        # 1-D shape; b and d are built in place on the full grid
        den = nn + mi * si
        a = np.log2(1.0 + so / den)
        c = np.log2(1.0 + (so + (1.0 - mi) * si) / den)
        b = mo * so / den
        b += 1.0
        d = mo * so + (1.0 - mi) * si
        d /= den
        d += 1.0
        return a, np.log2(b, out=b), c, np.log2(d, out=d)

    a1, b1, c1, d1 = terms(s1[0], s1[1], n1, m1, m2)
    a2, b2, c2, d2 = terms(s2[0], s2[1], n2, m2, m1)
    values = np.minimum(a1, a2)
    bound = np.empty_like(values)
    for parts in ((c1, b2), (c2, b1), (d1, d2), (c1, b1, d2), (c2, b2, d1)):
        np.add(parts[0], parts[1], out=bound)
        for p in parts[2:]:
            bound += p
        bound /= len(parts)
        np.minimum(values, bound, out=values)
    return values


def _pd_argmax(values: np.ndarray) -> tuple[float, int, int]:
    """(max, i1, i2): the grid's maximum and the first split in
    `_pd_tie_order` that reaches it."""
    grid = values.shape[0]
    flat = values.ravel()
    best = flat.max()
    order = _pd_tie_order(grid)
    i1, i2 = divmod(int(order[np.argmax(flat[order] == best)]), grid)
    return float(best), i1, i2


def rate_pd(b: Budgets, grid: int = 21):
    """Best symmetric rate over an exhaustive (mu1, mu2) grid, per M.

    Returns (rate, mu1, mu2), one entry per M each: the rate and its argmax
    split. Grid is uniform over [0, 1] with both endpoints; ties break
    toward smaller mu1 + mu2, then smaller mu1, so the result is
    order-independent.
    """
    if b.S.shape[1] != 2:
        raise ValueError("the rate-splitting scheme covers the 2-cell system only")
    if grid < 2:
        raise ValueError("grid must have at least the two endpoints")
    mu = _pd_mesh(grid)[0]
    n1, n2 = b.N
    tin = rate_tin(b)
    rate, mu1, mu2, gap = (np.empty(len(b.M)) for _ in range(4))
    for m, S in enumerate(b.S):
        values = _pd_symmetric_grid((S[0, 0], S[0, 1]), n1, (S[1, 1], S[1, 0]), n2, grid)
        # mu = (1, 1) collapses to TIN exactly; evaluate that corner in
        # reduced form, since the averaged sum bounds are redundant there and
        # only add rounding.
        gap[m] = tin[m] - values[-1, -1]
        if tin[m] > values[-1, -1]:
            values[-1, -1] = tin[m]
        rate[m], i1, i2 = _pd_argmax(values)
        mu1[m], mu2[m] = mu[i1], mu[i2]
    _check_clamp("PD grid corner (1, 1)", gap, b, (0, 1))
    return rate, mu1, mu2


def sym_rate_tin(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """`rate_tin` of the budgets at (M, precoder), pilot index i."""
    return float(rate_tin(Budgets.of(scenario, stats, (M,), precoder, i))[0])


def sym_rate_sd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int) -> float:
    """`rate_sd` of the budgets at (M, precoder), pilot index i."""
    return float(rate_sd(Budgets.of(scenario, stats, (M,), precoder, i))[0])


def sym_rate_snd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                 precoder: Precoder, i: int) -> float:
    """`rate_snd` of the budgets at (M, precoder), pilot index i."""
    return float(rate_snd(Budgets.of(scenario, stats, (M,), precoder, i))[0])


def sym_rate_pd(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, i: int, grid: int = 21):
    """`rate_pd` of the budgets at (M, precoder), pilot index i: (rate, split)."""
    (rate,), (mu1,), (mu2,) = rate_pd(Budgets.of(scenario, stats, (M,), precoder, i), grid)
    return float(rate), PdSplit(mu1=float(mu1), mu2=float(mu2))
