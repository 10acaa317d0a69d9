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
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12

# Largest per-chunk complex temporary, in entries: 64 KiB, half of glibc's
# default mmap threshold, so chunk buffers come from the heap and are not
# mapped and page-faulted in afresh on every chunk.
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


def zf_chunk(gram, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
    G, t = _estimate_gram(gram, alpha_own, c_rx, i)
    K = G.shape[-1]
    ev = np.linalg.eigvalsh(G)
    if np.any(ev[..., 0] <= 0) or np.any(ev[..., -1] > COND_LIMIT * ev[..., 0]):
        raise np.linalg.LinAlgError("estimated channel matrix is rank deficient")
    uq = np.linalg.solve(G, np.stack((t, s), axis=-1))        # G^-1 [ghat^H g_rx, s]
    gain, y = _outputs(uq[..., 0].conj(), s, w, scale, i)
    power = rho_d * np.einsum("cjk,cjk->cj", s.conj(), uq[..., 1]).real / (lam[None, :] * K)
    return gain, y, power
