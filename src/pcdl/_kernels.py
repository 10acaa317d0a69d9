"""Gram-matrix kernels for the link-level verification oracle.

Every oracle output at BS j is an inner product of the contaminated MMSE
estimates ghat_jk = alpha_jkj * obs_jk and the receiver's channel
g_rx = c_j * obs_ji + e_j. The kernels therefore take, per trial and cell,
the (K+1) x (K+1) Gram matrix W of [obs_j1..obs_jK, e_j] (W[a, b] =
x_a^H x_b) instead of M-dimensional vectors, form

  G_kk' = alpha_k alpha_k' W[k, k']        (Gram of the estimates)
  t_k   = alpha_k (c_j W[k, i] + W[k, K])  (ghat_k^H g_rx)

and produce, per cell j:

  gain_j  = scale_j * g_rx^H w_{j,i}      (coefficient of the pilot partner)
  power_j = rho_d * ||x_j||^2 / K         (radiated per-user power check)

plus the full received sample y. The randoms are drawn by the caller in a
fixed order. Pure numpy; the cost per trial does not depend on M.

ZF needs G^-1. zf_chunk rejects its chunk as rank deficient when any trial's
G has an eigenvalue <= 0 or lambda_max > COND_LIMIT * lambda_min. It settles
that without eigenvalues for almost every trial: the one LU solve that gives
G^-1 t and G^-1 s also gives G^-1, and ||G||_F ||G^-1||_F bounds cond_2(G).
Only the trials that bound cannot clear go to eigvalsh.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12

# Largest per-chunk complex temporary, in entries (64 KiB). The chunk size
# orders the random draws, so another value changes every oracle output.
# On the oracle benchmarks (2 CPUs), 32x larger chunks ran no faster and
# raised peak RSS from 38.9 to 50.5 MB, and the first job's page faults
# from 9-10 to 13 700 (oracle-verify) and from 5-6 to 6 850 (oracle-large-m).
_CHUNK_ENTRIES = 4096


def chunk_trials(L: int, K: int) -> int:
    """Trials per random-draw chunk. Deterministic in the problem shape only
    (never in M, thread count or memory pressure), so accumulation order and
    the generator stream are reproducible."""
    return int(np.clip(_CHUNK_ENTRIES // (L * (K + 1) ** 2), 1, 256))


def _estimate_gram(gram, alpha_own, c_rx, i):
    """(G, t) per trial and cell from the observation Gram W (c, L, K+1, K+1)."""
    K = alpha_own.shape[1]
    a = alpha_own[None]                                       # (1,L,K)
    G = a[..., :, None] * gram[..., :K, :K] * a[..., None, :]
    t = a * (c_rx[None, :, None] * gram[..., :K, i] + gram[..., :K, K])
    return G, t


def _outputs(row, s, w, scale, i):
    """gain and y from row_jk = g_rx^H v_jk."""
    gain = scale[None, :] * row[:, :, i]
    y = (scale[None, :] * np.einsum("cjk,cjk->cj", row, s)).sum(axis=1) + w
    return gain, y


def mrt_chunk(gram, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
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


def zf_chunk(gram, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
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
