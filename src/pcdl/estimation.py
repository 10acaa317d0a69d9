"""MMSE channel estimation statistics under pilot re-use, plus the sampler of
the Monte Carlo oracle (scaled Bartlett factors of Wishart Gram matrices).

Every cell re-uses the same K orthogonal pilots, so BS j's estimate of its
user k is contaminated by the pilot-k users of all other cells:

    ghat_jkj = alpha_jkj * (sqrt(rho_p) * sum_l g_jkl + z_jk),
    alpha_jkl = sqrt(rho_p) * beta_jkl / (1 + rho_p * sum_l' beta_jkl'),

with z_jk unit complex Gaussian pilot noise. The per-antenna estimate
variance is sqrt(rho_p)*beta_jkl*alpha_jkl and the own-link error variance
beta_jkj*(1 - sqrt(rho_p)*alpha_jkj).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkScenario


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples: two real normals per entry, variance 1/2 each."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


@functools.lru_cache(maxsize=None)
def _bartlett_indices(r: int, n: int):
    """(rows, cols) above the diagonal and the diagonal of an r x n
    upper-trapezoidal matrix, read-only."""
    rows, cols = np.triu_indices(r, 1, n)
    diag = np.arange(r)
    for a in (rows, cols, diag):
        a.flags.writeable = False
    return rows, cols, diag


def sample_gram(rng: np.random.Generator, var: np.ndarray, M: int,
                trials: int) -> np.ndarray:
    """Gram matrices of independent CN(0, var_a * I_M) vectors, as factors.

    For n columns x_a with variances var[..., a], returns F with F^H F = W,
    W[a, b] = x_a^H x_b, for `trials` i.i.d. draws, shape (trials,) +
    var.shape[:-1] + (r, n), r = min(M, n). W is complex Wishart(M,
    diag(var)); F = T diag(sqrt(var)) is its Bartlett factor, with var folded
    in as the entries are written: T is upper trapezoidal with r rows,
    T_kk = sqrt(Gamma(M - k, 1)) and CN(0, 1) entries above the diagonal,
    the R factor of the QR decomposition of an M x n matrix of i.i.d. CN(0, 1)
    entries. So the law is exact for every M (rank r) at O(n^2) draws per trial.
    """
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    var = np.asarray(var, dtype=float)
    n = var.shape[-1]
    r = min(M, n)
    shape = (trials,) + var.shape[:-1]
    rows, cols, diag = _bartlett_indices(r, n)
    F = np.zeros(shape + (r, n), dtype=complex)
    z = crandn(rng, shape + (rows.size,))
    z *= np.sqrt(var[..., cols])
    F[..., rows, cols] = z
    F[..., diag, diag] = np.sqrt(rng.standard_gamma(M - diag, size=shape + (r,)) * var[..., diag])
    return F


def own_links(tensor: np.ndarray) -> np.ndarray:
    """Extract t[j, k, j] from an (L, K, L) tensor as an (L, K) array."""
    L = tensor.shape[0]
    idx = np.arange(L)
    return tensor[idx, :, idx]


@dataclass(frozen=True)
class EstimationStats:
    """MMSE coefficients and variances for every (BS, pilot, cell) link."""

    alpha: np.ndarray    # (L, K, L)
    est_var: np.ndarray  # (L, K, L) per-antenna estimate variance

    def __post_init__(self):
        # every precoder normalization reads gamma(); extract it once
        object.__setattr__(self, "_gamma", own_links(self.est_var))
        for arr in (self.alpha, self.est_var, self._gamma):
            arr.flags.writeable = False

    def gamma(self) -> np.ndarray:
        """Own-link estimate variances est_var[j, k, j], shape (L, K)."""
        return self._gamma


def compute_alpha(scenario: NetworkScenario) -> EstimationStats:
    beta = scenario.beta
    srp = np.sqrt(scenario.rho_p)
    denom = 1.0 + scenario.rho_p * beta.sum(axis=2)  # (L, K), shared per pilot
    alpha = srp * beta / denom[:, :, None]
    est_var = srp * beta * alpha
    return EstimationStats(alpha=alpha, est_var=est_var)
