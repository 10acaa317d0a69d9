"""Closed-form link analysis: precoder normalizations, effective channel gains
and the per-receiver link budget.

After linear precoding, the signal a user receives on its pilot-sharing set
collapses to an effective scalar multiple-access channel

    y = sum_j theta_j * s_j[i] + w',

where theta_j is the deterministic mean effective gain of cell j's signal and
w' lumps beamforming-gain uncertainty, other-user interference and thermal
noise. Replacing w' by a Gaussian of equal variance gives achievable-rate
lower bounds C(P1 / N) for any decode set Omega, with P1 the coherent power
of the decoded signals and N the variance of w'. P1 = sum_{j in Omega} S_j
with S_j = theta_j^2, so one link budget per receiver, (S, N), fixes every
bound; `schemes` reads nothing else.

At receiver (i, l), N has one closed form per precoder:

    MRT: N = 1 + rho_d K sum_j beta_jil
    ZF:  N = 1 + rho_d K sum_j beta_jil (1 - sqrt(rho_p) alpha_jil)

Under MRT the power rho_d K that cell j radiates reaches the receiver as
noise with gain beta_jil, and the coherent power theta_j^2 comes on top of
it. Under ZF the precoder nulls the estimated channels, so only the
estimation error, of variance beta_jil (1 - sqrt(rho_p) alpha_jil) per
antenna, lets that power through. The received stream powers scale with M
(MRT) or 1/(M - K) (ZF), exactly as the normalization lambda_j does, so M
cancels. The decode set does not enter: decoding a signal removes its
coherent part theta_j^2, never its uncertainty. The term-by-term split
these forms sum lives with the tests (`tests/reference.py`), which check N
against it.

M enters through one factor: every coherent power is linear in M_eff (M under
MRT, M - K under ZF), S_j = M_eff S1_j, and N does not depend on M (Ngo,
Larsson and Marzetta, IEEE Trans. Commun. 2013). `link_budgets` returns the
M-free budget (S1, N), `m_eff` alone forms the factor, `schemes.Budgets.of`
scales S1 to every M, and the scalar views below read it at one M:
theta_j = sqrt(M_eff S1_j), p1 = sum_{j in Omega} M_eff S1_j.

All sums run in linear scale with compensated summation (math.fsum); beta
entries span ten-plus orders of magnitude.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .estimation import EstimationStats
from .geometry import NetworkScenario


class Precoder(enum.Enum):
    MRT = "mrt"
    ZF = "zf"

    @classmethod
    def parse(cls, name: str) -> "Precoder":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown precoder: {name!r}") from None


@dataclass(frozen=True)
class EffectiveChannel:
    """Mean effective gains seen by one receiver, one entry per cell."""

    theta: np.ndarray  # (L,) real gains
    lam: np.ndarray    # (L,) precoder normalization factors


@dataclass(frozen=True)
class PowerDecomposition:
    """Coherent power p1 of the signals in decode set omega, and the
    effective noise N, which does not depend on omega."""

    p1: float
    noise: float


def capacity_bits(snr):
    """Gaussian capacity log2(1 + snr) in bits: a float for a scalar snr, an
    array of the same shape for an array."""
    bits = np.log2(1.0 + snr)
    return bits if isinstance(bits, np.ndarray) else float(bits)


def _check_receiver(scenario: NetworkScenario, receiver: tuple[int, int]) -> tuple[int, int]:
    i, l = receiver
    if not (0 <= i < scenario.users_per_cell and 0 <= l < scenario.n_cells):
        raise ValueError(f"receiver {receiver} out of range")
    return i, l


def m_eff(m_values, precoder: Precoder, K: int) -> np.ndarray:
    """M_eff at every M in m_values, shape (n_M,): M under MRT, M - K under
    ZF. The one place where M enters a link budget."""
    if precoder is Precoder.MRT:
        if min(m_values) < 1:
            raise ValueError("M must be >= 1")
        return np.asarray(m_values, dtype=float)
    low = [m for m in m_values if m <= K]
    if low:
        raise ValueError(f"ZF requires M > K (got M={low[0]}, K={K})")
    return np.asarray(m_values, dtype=float) - K


def _user_sums(stats: EstimationStats, precoder: Precoder) -> np.ndarray:
    """fsum(gamma_j) under MRT, fsum(1/gamma_j) under ZF, shape (L,)."""
    gam = stats.gamma() if precoder is Precoder.MRT else 1.0 / stats.gamma()
    return np.array([math.fsum(g) for g in gam])


def _normalization(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder) -> np.ndarray:
    """lambda_j at one M, shape (L,), for the oracle's precoders: (M_eff / K)
    fsum(gamma_j) under MRT, fsum(1/gamma_j) / (K M_eff) under ZF."""
    K = scenario.users_per_cell
    m, sums = m_eff((M,), precoder, K)[0], _user_sums(stats, precoder)
    return (m / K) * sums if precoder is Precoder.MRT else sums / (K * m)


def _noise(scenario: NetworkScenario, stats: EstimationStats,
           precoder: Precoder, i: int) -> np.ndarray:
    """N at every receiver (i, l), shape (L,); it does not depend on M."""
    beta = scenario.beta[:, i, :]                      # (j, l)
    if precoder is Precoder.ZF:
        beta = beta * (1.0 - math.sqrt(scenario.rho_p) * stats.alpha[:, i, :])
    K = scenario.users_per_cell
    return np.array([1.0 + scenario.rho_d * K * math.fsum(b) for b in beta.T])


def link_budgets(scenario: NetworkScenario, stats: EstimationStats,
                 precoder: Precoder, i: int):
    """(S1, N) at every receiver (i, l), the one implementation of the link
    budget: S1 (L, L), S1[l, j] = rho_d K coef_lj^2 / sums_j the coherent
    power of cell j per unit M_eff (sums from `_user_sums`), and N (L,).
    coef_lj = sqrt(rho_p) beta[j,i,l] alpha[j,i,j] (MRT), beta[j,i,l] /
    beta[j,i,j] (ZF)."""
    _check_receiver(scenario, (i, 0))
    own = np.arange(scenario.n_cells)
    cross = scenario.beta[:, i, :].T                   # (l, j)
    if precoder is Precoder.MRT:
        coef = math.sqrt(scenario.rho_p) * cross * stats.alpha[own, i, own]
    else:
        coef = cross / scenario.beta[own, i, own]
    S1 = scenario.rho_d * scenario.users_per_cell * coef ** 2 / _user_sums(stats, precoder)
    return S1, _noise(scenario, stats, precoder, i)


def _budget_at(scenario: NetworkScenario, stats: EstimationStats, M: int,
               precoder: Precoder, receiver: tuple[int, int]):
    """(M_eff S1[l], N[l]): receiver (i, l)'s coherent powers and noise at one M."""
    i, l = _check_receiver(scenario, receiver)
    S1, noise = link_budgets(scenario, stats, precoder, i)
    return m_eff((M,), precoder, scenario.users_per_cell)[0] * S1[l], float(noise[l])


def effective_gain(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder, receiver: tuple[int, int]) -> EffectiveChannel:
    """Per-cell mean effective gains theta_j = sqrt(M_eff S1[l, j]) at
    receiver (i, l), with the oracle's lambda_j, at one M."""
    theta, _ = link_budget(scenario, stats, M, precoder, receiver)
    return EffectiveChannel(theta=theta, lam=_normalization(scenario, stats, M, precoder))


def link_budget(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, receiver: tuple[int, int]):
    """(theta, effective noise power N) at one receiver and one M."""
    S, noise = _budget_at(scenario, stats, M, precoder, receiver)
    return np.sqrt(S), noise


def power_decomposition(scenario: NetworkScenario, stats: EstimationStats,
                        M: int, precoder: Precoder, receiver: tuple[int, int],
                        omega: Iterable[int]) -> PowerDecomposition:
    """The link budget seen by decode set omega: its coherent power and N."""
    omega = frozenset(omega)
    _check_omega(omega, scenario.n_cells)
    S, noise = _budget_at(scenario, stats, M, precoder, receiver)
    return PowerDecomposition(p1=math.fsum(float(S[j]) for j in omega), noise=noise)


def decode_sets(L: int) -> list[tuple[int, ...]]:
    """Every nonempty decode set of L cells, by size, each size in
    `itertools.combinations` order: (0,), (1,), (0, 1) for L = 2."""
    return [omega for size in range(1, L + 1)
            for omega in itertools.combinations(range(L), size)]


def _check_omega(omega: frozenset, L: int) -> None:
    if any((j < 0 or j >= L) for j in omega):
        raise ValueError(f"omega entries must be cell indices in [0, {L})")
