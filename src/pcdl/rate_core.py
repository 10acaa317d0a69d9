"""Closed-form link analysis: precoder normalizations, effective channel gains
and the per-receiver link budget.

After linear precoding, the signal a user receives on its pilot-sharing set
collapses to an effective scalar multiple-access channel

    y = sum_j theta_j * s_j[i] + w',

where theta_j is the deterministic mean effective gain of cell j's signal and
w' lumps beamforming-gain uncertainty, other-user interference and thermal
noise. Replacing w' by a Gaussian of equal variance gives achievable-rate
lower bounds C(P1 / N) for any decode set Omega, with P1 the coherent power
of the decoded signals and N the variance of w'. P1 = sum_{j in Omega}
theta_j^2, so one link budget per receiver, (theta, N), fixes every bound;
`schemes` reads nothing else.

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

Only lambda_j carries M: it is proportional to M (MRT) or to 1/(M - K) (ZF),
and N does not depend on M at all. So `link_budgets` builds a receiver's
budget for every M of a sweep in one pass: the sums over users are taken
once, and each M costs a few array multiplications. `effective_gain`,
`link_budget` and `power_decomposition` read that one implementation at a
single M.

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

    receiver: tuple[int, int]  # (pilot index i, cell l), 0-based
    theta: np.ndarray          # (L,) real gains
    lam: np.ndarray            # (L,) precoder normalization factors


@dataclass(frozen=True)
class PowerDecomposition:
    """Coherent power p1 of the signals in decode set omega, and the
    effective noise N, which does not depend on omega."""

    p1: float
    noise: float
    omega: frozenset[int]


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


def _normalization(scenario: NetworkScenario, stats: EstimationStats,
                   m_values, precoder: Precoder) -> np.ndarray:
    """lambda_j at every M in m_values, shape (n_M, L).

    The sum over cell j's users does not depend on M; it is taken once and
    scaled by the M factor: (M/K) under MRT, 1/(K (M - K)) under ZF.
    """
    K = scenario.users_per_cell
    gam = stats.gamma()
    M = np.asarray(m_values, dtype=float)[:, None]
    if precoder is Precoder.MRT:
        if min(m_values) < 1:
            raise ValueError("M must be >= 1")
        return (M / K) * np.array([math.fsum(g) for g in gam])
    low = [m for m in m_values if m <= K]
    if low:
        raise ValueError(f"ZF requires M > K (got M={low[0]}, K={K})")
    return np.array([math.fsum(1.0 / g) for g in gam]) / (K * (M - K))


def lambda_mrt(scenario: NetworkScenario, stats: EstimationStats,
               M: int, j: int) -> float:
    """MRT power normalization (M/K) * sum_k estimate-variance of own links."""
    return float(_normalization(scenario, stats, (M,), Precoder.MRT)[0, j])


def lambda_zf(scenario: NetworkScenario, stats: EstimationStats,
              M: int, j: int) -> float:
    """ZF power normalization; needs M > K (pseudo-inverse excess dimensions)."""
    return float(_normalization(scenario, stats, (M,), Precoder.ZF)[0, j])


def _gains(scenario: NetworkScenario, stats: EstimationStats, m_values,
           precoder: Precoder, i: int):
    """(theta, lam): theta[m, l, j], the gain of cell j at receiver (i, l),
    and lam[m, j], for every M in m_values.

    MRT: theta_j = sqrt(rho_d/lam_j) * M * sqrt(rho_p) * beta[j,i,l] * alpha[j,i,j]
    ZF:  theta_j = sqrt(rho_d/lam_j) * beta[j,i,l] / beta[j,i,j]
    """
    lam = _normalization(scenario, stats, m_values, precoder)
    own = np.arange(scenario.n_cells)
    cross = scenario.beta[:, i, :].T                   # (l, j)
    amp = np.sqrt(scenario.rho_d / lam)                # (m, j)
    if precoder is Precoder.MRT:
        M = np.asarray(m_values, dtype=float)[:, None]
        amp = amp * M * math.sqrt(scenario.rho_p)
        theta = amp[:, None, :] * cross * stats.alpha[own, i, own]
    else:
        theta = amp[:, None, :] * cross / scenario.beta[own, i, own]
    return theta, lam


def _noise(scenario: NetworkScenario, stats: EstimationStats,
           precoder: Precoder, i: int) -> np.ndarray:
    """N at every receiver (i, l), shape (L,); it does not depend on M."""
    beta = scenario.beta[:, i, :]                      # (j, l)
    if precoder is Precoder.ZF:
        beta = beta * (1.0 - math.sqrt(scenario.rho_p) * stats.alpha[:, i, :])
    K = scenario.users_per_cell
    return np.array([1.0 + scenario.rho_d * K * math.fsum(b) for b in beta.T])


def link_budgets(scenario: NetworkScenario, stats: EstimationStats, m_values,
                 precoder: Precoder, i: int):
    """(theta, N) at every receiver (i, l) and every M in m_values: theta
    with shape (n_M, L, L), theta[m, l, j] the gain of cell j at receiver
    (i, l), and N with shape (L,). The one implementation of the link budget;
    the scalar functions below read it at one M."""
    _check_receiver(scenario, (i, 0))
    return (_gains(scenario, stats, m_values, precoder, i)[0],
            _noise(scenario, stats, precoder, i))


def effective_gain(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder, receiver: tuple[int, int]) -> EffectiveChannel:
    """Per-cell mean effective gains theta_j at receiver (i, l), at one M."""
    i, l = _check_receiver(scenario, receiver)
    theta, lam = _gains(scenario, stats, (M,), precoder, i)
    return EffectiveChannel(receiver=(i, l), theta=theta[0, l], lam=lam[0])


def link_budget(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, receiver: tuple[int, int]):
    """(theta, effective noise power N) at one receiver and one M."""
    i, l = _check_receiver(scenario, receiver)
    theta, noise = link_budgets(scenario, stats, (M,), precoder, i)
    return theta[0, l], float(noise[l])


def power_decomposition(scenario: NetworkScenario, stats: EstimationStats,
                        M: int, precoder: Precoder, receiver: tuple[int, int],
                        omega: Iterable[int]) -> PowerDecomposition:
    """The link budget seen by decode set omega: its coherent power and N."""
    omega = frozenset(omega)
    _check_omega(omega, scenario.n_cells)
    theta, noise = link_budget(scenario, stats, M, precoder, receiver)
    return PowerDecomposition(p1=math.fsum(float(theta[j]) ** 2 for j in omega),
                              noise=noise, omega=omega)


def decode_sets(L: int) -> list[tuple[int, ...]]:
    """Every nonempty decode set of L cells, by size, each size in
    `itertools.combinations` order: (0,), (1,), (0, 1) for L = 2."""
    return [omega for size in range(1, L + 1)
            for omega in itertools.combinations(range(L), size)]


def _check_omega(omega: frozenset, L: int) -> None:
    if any((j < 0 or j >= L) for j in omega):
        raise ValueError(f"omega entries must be cell indices in [0, {L})")
