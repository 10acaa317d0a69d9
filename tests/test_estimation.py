import math

import numpy as np
import pytest

from pcdl.estimation import compute_alpha, crandn, own_links, sample_gram
from conftest import toy_scenario
from reference import sample_channels


def own_error_variance(scenario, stats):
    """Per-antenna own-link error variance beta_jkj (1 - sqrt(rho_p) alpha_jkj)."""
    srp = math.sqrt(scenario.rho_p)
    return own_links(scenario.beta) * (1.0 - srp * own_links(stats.alpha))


def test_alpha_single_cell_hand_value():
    scenario = toy_scenario(np.ones((1, 1, 1)), rho_p=1.0)
    stats = compute_alpha(scenario)
    assert stats.alpha[0, 0, 0] == pytest.approx(0.5, rel=1e-15)
    assert stats.est_var[0, 0, 0] == pytest.approx(0.5, rel=1e-15)
    assert own_error_variance(scenario, stats)[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_alpha_vanishing_pilot_energy():
    beta = np.full((2, 3, 2), 2.0)
    scenario = toy_scenario(beta, rho_p=1e-18)
    stats = compute_alpha(scenario)
    assert np.all(stats.alpha < 1e-8)
    assert np.allclose(own_error_variance(scenario, stats), own_links(beta), rtol=1e-8)


def test_alpha_equal_gain_links():
    b = 0.7
    beta = np.full((2, 1, 2), b)
    stats = compute_alpha(toy_scenario(beta, rho_p=1.0))
    assert stats.alpha[0, 0, 0] == stats.alpha[0, 0, 1]
    # own-link quality cannot exceed the share of the own path in the pilot
    assert math.sqrt(1.0) * stats.alpha[0, 0, 0] < 0.5


def test_alpha_invariants(paper_drop):
    scenario, stats = paper_drop
    srp = math.sqrt(scenario.rho_p)
    own_alpha = own_links(stats.alpha)
    assert np.all(srp * own_alpha > 0)
    assert np.all(srp * own_alpha < 1)
    # MMSE variance split on the own link
    split = own_links(stats.est_var) + own_error_variance(scenario, stats)
    assert np.allclose(split, own_links(scenario.beta), rtol=1e-12)
    # the denominator is shared across cells of one pilot
    ratio_alpha = stats.alpha[:, :, 0] / stats.alpha[:, :, 1]
    ratio_beta = scenario.beta[:, :, 0] / scenario.beta[:, :, 1]
    assert np.allclose(ratio_alpha, ratio_beta, rtol=1e-12)


def test_crandn_moments():
    rng = np.random.default_rng(0)
    x = crandn(rng, 200_000)
    assert abs(x.mean()) < 0.01
    assert np.mean(x.real ** 2 + x.imag ** 2) == pytest.approx(1.0, abs=0.01)


def test_sample_channels_shapes_and_decomposition(small_drop):
    scenario, stats = small_drop
    rng = np.random.default_rng(1)
    real = sample_channels(scenario, stats, M=8, rng=rng)
    L, K = scenario.n_cells, scenario.users_per_cell
    assert real.g.shape == (L, K, L, 8)
    assert real.g_hat.shape == (L, K, 8)
    recomposed = real.g_hat + real.eps
    assert np.allclose(recomposed, own_links(real.g), rtol=1e-12, atol=0)


def test_sample_channels_rejects_small_m(small_drop):
    scenario, stats = small_drop
    with pytest.raises(ValueError, match="M=2 must be >= K"):
        sample_channels(scenario, stats, M=2, rng=np.random.default_rng(0))


def test_contaminated_estimates_collinear(small_drop):
    scenario, stats = small_drop
    rng = np.random.default_rng(2)
    real = sample_channels(scenario, stats, M=16, rng=rng)
    for j in range(scenario.n_cells):
        for k in range(scenario.users_per_cell):
            for l in range(scenario.n_cells):
                cross = real.cross_estimate(j, k, l, scenario.rho_p)
                ratio = scenario.beta[j, k, l] / scenario.beta[j, k, j]
                assert np.allclose(cross, ratio * real.g_hat[j, k],
                                   rtol=1e-12, atol=0)


def test_zero_pilot_snr_gives_zero_estimate():
    scenario = toy_scenario(np.full((1, 2, 1), 0.3), rho_p=0.0)
    stats = compute_alpha(scenario)
    real = sample_channels(scenario, stats, M=4, rng=np.random.default_rng(3))
    assert np.all(real.g_hat == 0)
    assert np.allclose(real.eps, own_links(real.g), atol=0)


def _pooled_realizations(scenario, stats, M, trials, seed):
    rng = np.random.default_rng(seed)
    ghats = np.empty((trials, M), dtype=complex)
    epss = np.empty((trials, M), dtype=complex)
    for t in range(trials):
        real = sample_channels(scenario, stats, M, rng)
        ghats[t] = real.g_hat[0, 0]
        epss[t] = real.eps[0, 0]
    return ghats, epss


def test_estimate_variance_statistical(small_drop):
    # sample mean of |ghat|^2 matches the closed-form per-antenna variance
    scenario, stats = small_drop
    M, trials = 16, 10_000
    ghats, epss = _pooled_realizations(scenario, stats, M, trials, seed=11)
    pow_samples = (np.abs(ghats) ** 2).mean(axis=1)
    se = pow_samples.std(ddof=1) / math.sqrt(trials)
    target = stats.est_var[0, 0, 0]
    assert abs(pow_samples.mean() - target) < 5 * se
    # variance split: var(ghat) + var(eps) = beta on the own link
    err_samples = (np.abs(epss) ** 2).mean(axis=1)
    se2 = (pow_samples + err_samples).std(ddof=1) / math.sqrt(trials)
    beta_own = scenario.beta[0, 0, 0]
    assert abs((pow_samples + err_samples).mean() - beta_own) < 5 * se2


def test_mmse_orthogonality_statistical(small_drop):
    # E[eps^H ghat] -> 0: the error is uncorrelated with the estimate
    scenario, stats = small_drop
    M, trials = 16, 10_000
    ghats, epss = _pooled_realizations(scenario, stats, M, trials, seed=12)
    inner = (epss.conj() * ghats).sum(axis=1) / M
    for part in (inner.real, inner.imag):
        se = part.std(ddof=1) / math.sqrt(trials)
        assert abs(part.mean()) < 5 * se


@pytest.mark.parametrize("M", [3, 64])
def test_sample_gram_wishart_moments(M):
    # the sampled factor F gives W = F^H F complex Wishart(M, diag(var)):
    # E[W] = M diag(var) and E|W_ab|^2 = M var_a var_b (+ M^2 var_a^2 on
    # the diagonal); M = 3 < K + 1 = 5 is the rank-deficient branch
    K, trials = 4, 20_000
    var = np.array([0.5, 1.0, 2.0, 3.0, 0.25])
    F = sample_gram(np.random.default_rng(M), var, M, trials)
    W = F.conj().swapaxes(-1, -2) @ F
    n = K + 1
    assert W.shape == (trials, n, n)
    assert np.allclose(W, W.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)
    assert np.linalg.matrix_rank(W[0]) == min(M, n)
    mean_expect = M * np.diag(var)
    sq_expect = M * np.outer(var, var) + M * M * np.diag(var * var)

    def z(samples, expect):
        se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        return (samples.mean(axis=0) - expect) / se

    assert np.all(np.abs(z(W.real, mean_expect)) <= 5)
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.abs(z(W.imag[:, off], 0.0)) <= 5)
    assert np.all(np.abs(z(np.abs(W) ** 2, sq_expect)) <= 5)
    with pytest.raises(ValueError, match="M=0 must be >= 1"):
        sample_gram(np.random.default_rng(0), var, 0, 1)
