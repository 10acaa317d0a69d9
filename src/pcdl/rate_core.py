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
    """Coherent power p1 of the signals in decode set omega, and the
    effective noise N, which does not depend on omega."""

    p1: float
    noise: float
    omega: frozenset[int]


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


def link_budget(scenario: NetworkScenario, stats: EstimationStats, M: int,
                precoder: Precoder, receiver: tuple[int, int]):
    """(theta, effective noise power N) at one receiver; the common input of
    every per-scheme rate expression."""
    theta = effective_gain(scenario, stats, M, precoder, receiver).theta
    i, l = receiver
    beta, K = scenario.beta[:, i, l], scenario.users_per_cell
    if precoder is Precoder.MRT:
        noise = 1.0 + scenario.rho_d * K * math.fsum(beta)
    else:
        err = beta * (1.0 - math.sqrt(scenario.rho_p) * stats.alpha[:, i, l])
        noise = 1.0 + scenario.rho_d * K * math.fsum(err)
    return theta, noise


def power_decomposition(scenario: NetworkScenario, stats: EstimationStats,
                        M: int, precoder: Precoder, receiver: tuple[int, int],
                        omega: Iterable[int]) -> PowerDecomposition:
    """The link budget seen by decode set omega: its coherent power and N."""
    omega = frozenset(omega)
    _check_omega(omega, scenario.n_cells)
    theta, noise = link_budget(scenario, stats, M, precoder, receiver)
    return PowerDecomposition(p1=math.fsum(float(theta[j]) ** 2 for j in omega),
                              noise=noise, omega=omega)


def _check_omega(omega: frozenset, L: int) -> None:
    if any((j < 0 or j >= L) for j in omega):
        raise ValueError(f"omega entries must be cell indices in [0, {L})")
