"""Bartlett-factor kernels for the link-level verification oracle.

Every oracle output at BS j is an inner product of the contaminated MMSE
estimates ghat_jk = alpha_jkj * obs_jk and the receiver's channel
g_rx = c_j * obs_ji + e_j. The kernels therefore take, per trial and cell,
the min(M, K+1) x (K+1) upper-trapezoidal factor F of the Gram matrix
W = F^H F of [obs_j1..obs_jK, e_j] (`estimation.sample_gram`). F keeps every
inner product: with g = c_j F[:, i] + F[:, K], MRT's g_rx^H ghat_k is
alpha_k g^H F[:, k]. The kernels produce, per cell j:

  gain_j  = scale_j * g_rx^H w_{j,i}      (coefficient of the pilot partner)
  power_j = rho_d * ||x_j||^2 / K         (radiated per-user power check)

plus the full received sample y. The randoms are drawn by the caller in a
fixed order. Pure numpy; the cost per trial does not depend on M.

ZF has M > K, so R = F[:K, :K] diag(alpha) is upper triangular and the
estimate Gram is G = R^H R. One triangular inverse gives G^-1 t = R^-1 g[:K],
s^H G^-1 s = ||R^-H s||^2 and the guard: zf_chunk rejects its chunk as rank
deficient when any G has an eigenvalue <= 0 or lambda_max > COND_LIMIT *
lambda_min, and tr(G) tr(G^-1) = ||R||_F^2 ||R^-1||_F^2 bounds cond_2(G).
Only the trials that bound cannot clear go to eigvalsh.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12

# Largest per-chunk complex temporary, in entries (64 KiB): a chunk's factors
# F. The chunk size orders the random draws, so another value changes every
# oracle output. On the oracle benchmarks (2 CPUs), 32x larger chunks ran no
# faster and raised peak RSS from 38.9 to 50.5 MB, and the first job's page
# faults from 9-10 to 13 700 (oracle-verify) and 5-6 to 6 850 (oracle-large-m).
_CHUNK_ENTRIES = 4096


def chunk_trials(L: int, K: int) -> int:
    """Trials per random-draw chunk. Deterministic in the problem shape only
    (never in M, thread count or memory pressure), so accumulation order and
    the generator stream are reproducible."""
    return int(np.clip(_CHUNK_ENTRIES // (L * (K + 1) ** 2), 1, 256))


def _outputs(row, s, w, scale, i):
    """gain and y from row_jk = g_rx^H v_jk."""
    gain = scale[None, :] * row[:, :, i]
    y = (scale[None, :] * np.einsum("cjk,cjk->cj", row, s)).sum(axis=1) + w
    return gain, y


def _sq_norms(X):
    """|X|^2 summed along X's last axis, read as its contiguous float view."""
    Xf = X.view(np.float64)
    return np.einsum("...z,...z->...", Xf, Xf)


def mrt_chunk(F, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
    K = alpha_own.shape[1]
    g = c_rx[None, :, None] * F[..., i] + F[..., K]
    row = alpha_own * (g.conj()[..., None, :] @ F[..., :K])[..., 0, :]
    gain, y = _outputs(row, s, w, scale, i)
    tx = (F[..., :K] @ (alpha_own * s)[..., None])[..., 0]      # sum_k ghat_k s_k
    power = rho_d * _sq_norms(tx) / (lam[None, :] * K)
    return gain, y, power


def _triu_inv(U):
    """Inverse of each upper-triangular U, built column by column:
    X[:j, j] = -X[:j, :j] U[:j, j] / U[j, j]. A zero pivot gives inf/NaN."""
    n = U.shape[-1]
    X = np.zeros_like(U)
    neg_inv_d = -1.0 / U.diagonal(axis1=-2, axis2=-1)[..., None, :]
    np.einsum("...ii->...i", X)[...] = -neg_inv_d[..., 0, :]
    for j in range(1, n):
        np.multiply(X[..., :j, :j] @ U[..., :j, j:j + 1], neg_inv_d[..., j:j + 1],
                    out=X[..., :j, j:j + 1])
    return X


def zf_chunk(F, s, w, alpha_own, c_rx, i, scale, lam, rho_d):
    K = alpha_own.shape[1]
    U = F[..., :K, :K]                                          # R = U diag(alpha)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        X = _triu_inv(U)                                        # R^-1 = X / alpha[:, None]
        # half the limit leaves room for rounding; NaN and inf bounds fail,
        # so a trial that passes has no zero pivot and G is positive definite
        col2 = (np.einsum("...rk,...rk->...k", U.real, U.real)
                + np.einsum("...rk,...rk->...k", U.imag, U.imag))
        bound = (col2 * alpha_own**2).sum(axis=-1) * (_sq_norms(X) / alpha_own**2).sum(axis=-1)
        unsure = ~(bound <= 0.5 * COND_LIMIT)
    if unsure.any():
        # the bound cannot clear these trials: decide by the exact eigenvalues
        R = U[unsure] * np.broadcast_to(alpha_own, unsure.shape + (K,))[unsure][:, None, :]
        ev = np.linalg.eigvalsh(R.conj().swapaxes(-1, -2) @ R)
        if np.any(ev[:, 0] <= 0) or np.any(ev[:, -1] > COND_LIMIT * ev[:, 0]):
            raise np.linalg.LinAlgError("estimated channel matrix is rank deficient")
    g_top = c_rx[None, :, None] * F[..., :K, i] + F[..., :K, K]
    u = (X @ g_top[..., None])[..., 0] / alpha_own              # G^-1 t
    gain, y = _outputs(u.conj(), s, w, scale, i)
    v = ((s.conj() / alpha_own)[..., None, :] @ X)[..., 0, :]   # (R^-H s)^*
    power = rho_d * _sq_norms(v) / (lam[None, :] * K)
    return gain, y, power
