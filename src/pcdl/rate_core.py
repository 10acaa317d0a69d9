"""Closed-form link analysis: precoder normalizations, effective channel gains,
power decompositions and the per-receiver link budget.

After linear precoding, the signal a user receives on its pilot-sharing set
collapses to an effective scalar multiple-access channel

    y = sum_j theta_j * s_j[i] + w',

where theta_j is the deterministic mean effective gain of cell j's signal and
w' lumps beamforming-gain uncertainty, other-user interference and thermal
noise. Replacing w' by a Gaussian of equal variance gives achievable-rate
lower bounds C(P1 / P_noise) for any decode set Omega, with P1 the coherent
power of the decoded signals and P_noise the variance of w'. P_noise does
not depend on Omega and P1 = sum_{j in Omega} theta_j^2, so one link budget
per receiver, (theta, P_noise), fixes every bound; `schemes` reads nothing
else.

All sums run in linear scale with compensated summation (math.fsum); beta
entries span ten-plus orders of magnitude.
"""

from __future__ import annotations

import enum
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


def capacity_bits(snr: float) -> float:
    """Gaussian capacity log2(1 + snr) in bits."""
    return float(np.log2(1.0 + snr))


def lambda_mrt(scenario: NetworkScenario, stats: EstimationStats,
               M: int, j: int) -> float:
    """MRT power normalization (M/K) * sum_k estimate-variance of own links."""
    if M < 1:
        raise ValueError("M must be >= 1")
    gam = stats.gamma()[j]
    return (M / scenario.users_per_cell) * math.fsum(gam)


def lambda_zf(scenario: NetworkScenario, stats: EstimationStats,
              M: int, j: int) -> float:
    """ZF power normalization; needs M > K (pseudo-inverse excess dimensions)."""
    K = scenario.users_per_cell
    if M <= K:
        raise ValueError(f"ZF requires M > K (got M={M}, K={K})")
    gam = stats.gamma()[j]
    return math.fsum(1.0 / g for g in gam) / (K * (M - K))


def effective_gain(scenario: NetworkScenario, stats: EstimationStats, M: int,
                   precoder: Precoder, receiver: tuple[int, int]) -> EffectiveChannel:
    """Per-cell mean effective gains theta_j at receiver (i, l).

    MRT: theta_j = sqrt(rho_d/lam_j) * M * sqrt(rho_p) * beta[j,i,l] * alpha[j,i,j]
    ZF:  theta_j = sqrt(rho_d/lam_j) * beta[j,i,l] / beta[j,i,j]
    """
    i, l = receiver
    L = scenario.n_cells
    if not (0 <= i < scenario.users_per_cell and 0 <= l < L):
        raise ValueError(f"receiver {receiver} out of range")
    beta, alpha = scenario.beta, stats.alpha
    srp = math.sqrt(scenario.rho_p)
    theta = np.zeros(L)
    lam = np.zeros(L)
    for j in range(L):
        if precoder is Precoder.MRT:
            lam[j] = lambda_mrt(scenario, stats, M, j)
            theta[j] = math.sqrt(scenario.rho_d / lam[j]) * M * srp * beta[j, i, l] * alpha[j, i, j]
        else:
            lam[j] = lambda_zf(scenario, stats, M, j)
            theta[j] = math.sqrt(scenario.rho_d / lam[j]) * beta[j, i, l] / beta[j, i, j]
    return EffectiveChannel(receiver=(i, l), theta=theta, lam=lam)


def power_decomposition_mrt(scenario: NetworkScenario, stats: EstimationStats,
                            M: int, receiver: tuple[int, int],
                            omega: Iterable[int]) -> PowerDecomposition:
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
    return PowerDecomposition(p1=math.fsum(p1_terms), p2=math.fsum(p2_terms),
                              p3=math.fsum(p3_terms), p4=1.0, omega=omega)


def power_decomposition_zf(scenario: NetworkScenario, stats: EstimationStats,
                           M: int, receiver: tuple[int, int],
                           omega: Iterable[int]) -> PowerDecomposition:
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
    return PowerDecomposition(p1=math.fsum(p1_terms), p2=math.fsum(p2_terms),
                              p3=1.0, p4=0.0, omega=omega)


def power_decomposition(scenario: NetworkScenario, stats: EstimationStats,
                        M: int, precoder: Precoder, receiver: tuple[int, int],
                        omega: Iterable[int]) -> PowerDecomposition:
    if precoder is Precoder.MRT:
        return power_decomposition_mrt(scenario, stats, M, receiver, omega)
    return power_decomposition_zf(scenario, stats, M, receiver, omega)


def link_budget(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, receiver: tuple[int, int]):
    """(theta, effective noise power) at one receiver; the common input of
    every per-scheme rate expression."""
    eff = effective_gain(scenario, stats, M, precoder, receiver)
    pd = power_decomposition(scenario, stats, M, precoder, receiver, omega=())
    return eff.theta, pd.noise


def _check_omega(omega: frozenset, L: int) -> None:
    if any((j < 0 or j >= L) for j in omega):
        raise ValueError(f"omega entries must be cell indices in [0, {L})")
