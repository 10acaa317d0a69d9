import csv
import math
import warnings

import numpy as np
import pytest

from pcdl import _kernels, mc_oracle
from pcdl.estimation import crandn, own_links, sample_gram
from pcdl.mc_oracle import (N_BATCHES, _batch_bounds, _batch_sums, _chunk_iter,
                            _gram_law, empirical_moments, verification_rows,
                            write_report_csv)
from pcdl.rate_core import Precoder, effective_gain, power_decomposition
from reference import (hardening_check, mrt_chunk_gram, sample_channels,
                       sample_gram_matrix, zf_chunk_gram, zf_precoder)


def test_zf_precoder_single_column():
    rng = np.random.default_rng(0)
    g = crandn(rng, (16, 1))
    v = zf_precoder(g)
    expect = g / np.linalg.norm(g) ** 2
    assert np.allclose(v, expect, rtol=1e-12)


def test_zf_precoder_residual_identity():
    rng = np.random.default_rng(1)
    g = crandn(rng, (64, 15))
    v = zf_precoder(g)
    residual = v.conj().T @ g - np.eye(15)
    assert np.abs(residual).max() < 1e-9


def test_zf_precoder_rejects_near_singular():
    rng = np.random.default_rng(2)
    col = crandn(rng, (2, 1))
    g = np.hstack([col, col * (1 + 1e-14)])  # nearly parallel columns
    with pytest.raises(np.linalg.LinAlgError):
        zf_precoder(g)


def test_zf_precoder_rejects_wide_matrix():
    with pytest.raises(ValueError):
        zf_precoder(np.ones((2, 4), dtype=complex))


def test_trial_count_guards(small_drop):
    scenario, stats = small_drop
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="1000 trials"):
        empirical_moments(scenario, stats, 8, Precoder.MRT, (0, 0), 10, rng)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        hardening_check(scenario, stats, [8, 16], 0, rng)
    with pytest.raises(ValueError, match="strictly increasing"):
        hardening_check(scenario, stats, [16, 8], 5, rng)


def test_receiver_bounds(small_drop):
    scenario, stats = small_drop
    with pytest.raises(ValueError, match="out of range"):
        empirical_moments(scenario, stats, 8, Precoder.MRT, (9, 0), 1000,
                          np.random.default_rng(0))


@pytest.mark.parametrize("precoder", [Precoder.MRT, Precoder.ZF])
def test_moments_match_closed_forms(small_drop, precoder):
    scenario, stats = small_drop
    M, trials = 16, 4000
    rng = np.random.default_rng(99)
    mom = empirical_moments(scenario, stats, M, precoder, (1, 1), trials, rng)
    theta = effective_gain(scenario, stats, M, precoder, (1, 1)).theta
    noise = power_decomposition(scenario, stats, M, precoder, (1, 1), ()).noise
    assert np.all(np.abs(mom.mean_gain - theta) < 5 * mom.gain_se)
    assert abs(mom.noise_var - noise) < 5 * mom.noise_se
    assert np.all(np.abs(mom.power - scenario.rho_d) < 5 * mom.power_se)


def test_moments_deterministic_given_seed(small_drop):
    scenario, stats = small_drop
    a = empirical_moments(scenario, stats, 8, Precoder.ZF, (0, 0), 1500,
                          np.random.default_rng(5))
    b = empirical_moments(scenario, stats, 8, Precoder.ZF, (0, 0), 1500,
                          np.random.default_rng(5))
    assert np.array_equal(a.mean_gain, b.mean_gain)
    assert a.noise_var == b.noise_var
    assert np.array_equal(a.power, b.power)


def test_moments_build_the_effective_channel_once(small_drop, monkeypatch):
    scenario, stats = small_drop
    calls = []

    def counted(*args):
        calls.append(args)
        return effective_gain(*args)

    monkeypatch.setattr(mc_oracle, "effective_gain", counted)
    for prec in (Precoder.MRT, Precoder.ZF):
        calls.clear()
        empirical_moments(scenario, stats, 8, prec, (0, 1), 1000, np.random.default_rng(6))
        assert len(calls) == 1


def test_moments_single_cell_single_user():
    # L = 1 and K = 1 exercise the kernels' degenerate shapes
    from conftest import toy_scenario
    from pcdl.estimation import compute_alpha
    scenario = toy_scenario(np.ones((1, 1, 1)), rho_d=4.0, rho_p=1.0)
    stats = compute_alpha(scenario)
    for prec in (Precoder.MRT, Precoder.ZF):
        mom = empirical_moments(scenario, stats, 4, prec, (0, 0), 2000,
                                np.random.default_rng(31))
        theta = effective_gain(scenario, stats, 4, prec, (0, 0)).theta
        assert abs(mom.mean_gain[0] - theta[0]) < 5 * mom.gain_se[0]
        assert abs(mom.power[0] - scenario.rho_d) < 5 * mom.power_se[0]


def test_chunk_rule_shape_only(small_drop):
    scenario, stats = small_drop
    L, K = scenario.n_cells, scenario.users_per_cell

    def sizes(M):
        eff = effective_gain(scenario, stats, M, Precoder.MRT, (0, 0))
        return [y.shape[0] for _, _, y, _, _ in _chunk_iter(
            scenario, stats, M, Precoder.MRT, (0, 0), eff, 1000, np.random.default_rng(0))]

    assert sizes(16) == sizes(10**6)
    assert sizes(16)[0] == _kernels.chunk_trials(L, K)
    # temporaries stay small: a chunk's Gram matrices fit the entry budget
    for shape in [(2, 15), (2, 4), (3, 30), (1, 1)]:
        c = _kernels.chunk_trials(*shape)
        assert 1 <= c <= 256
        assert c * shape[0] * (shape[1] + 1) ** 2 <= _kernels._CHUNK_ENTRIES


def test_hardening_deviation_decreases(small_drop):
    scenario, stats = small_drop
    rng = np.random.default_rng(17)
    table = hardening_check(scenario, stats, [64, 256, 1024, 4096], 200, rng)
    devs = [d for _, d in table]
    assert devs[0] > devs[1] > devs[2] > devs[3]


def test_zf_gram_guard_in_kernel():
    # two identical observation columns make the estimate Gram singular
    L, K, M = 2, 3, 8
    rng = np.random.default_rng(4)
    x = crandn(rng, (1, L, M, K + 1))
    x[..., 1] = x[..., 0]
    factor = np.linalg.qr(x, mode="r")  # factor^H factor = x^H x
    s = crandn(rng, (1, L, K))
    w = crandn(rng, (1,))
    args = (factor, s, w, np.ones((L, K)), np.ones(L), 0, np.ones(L), np.ones(L), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
        _kernels.zf_chunk(*args)


def test_zf_exact_zero_pivot_is_rank_deficient():
    # an exact zero on the factor's diagonal makes the triangular inverse
    # divide by zero: the guard must reject the chunk without a warning
    L, K = 2, 4
    rng = np.random.default_rng(9)
    factor = np.triu(crandn(rng, (1, L, K + 1, K + 1)))
    factor[0, 1, 2, 2] = 0.0
    args = (factor, crandn(rng, (1, L, K)), crandn(rng, (1,)), np.ones((L, K)),
            np.ones(L), 0, np.ones(L), np.ones(L), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            _kernels.zf_chunk(*args)


def _vectors_with_spectrum(ev, rng):
    """x = diag(sqrt(ev)) U^H for a random unitary U: x^H x = U diag(ev) U^H."""
    n = len(ev)
    U, _ = np.linalg.qr(crandn(rng, (n, n)))
    return np.sqrt(np.asarray(ev))[:, None] * U.conj().T


def _guard_case(name):
    """(vectors x with estimate Gram G = x^H x, eigvalsh calls the guard may
    make) of a named case."""
    K = 15
    rng = np.random.default_rng(12)
    if name == "cond 1e11":   # the trace bound clears it alone
        return _vectors_with_spectrum(np.logspace(0, -11, K), rng), {0}
    if name == "cond 9e11":   # clustered small eigenvalues: the bound reads
        # tr(G) tr(G^-1) = 1.3e13, so only the eigenvalues clear it
        return _vectors_with_spectrum([1.0] + [1 / 9e11] * (K - 1), rng), {1}
    if name == "cond 1e13":
        return _vectors_with_spectrum(np.logspace(0, -13, K), rng), {1}
    x = crandn(rng, (64, K))  # cond inf: two identical columns; the factor
    x[:, 1] = x[:, 0]         # may hold an exact zero pivot
    return x, {0, 1}


@pytest.mark.parametrize("case", ["cond 1e11", "cond 9e11", "cond 1e13", "cond inf"])
def test_zf_guard_decides_like_eigenvalue_rule(monkeypatch, case):
    x, allowed_calls = _guard_case(case)
    G = x.conj().T @ x
    K = G.shape[-1]
    ev = np.linalg.eigvalsh(G)
    reject = ev[0] <= 0 or ev[-1] > _kernels.COND_LIMIT * ev[0]
    assert reject == (case in ("cond 1e13", "cond inf"))

    # unit alphas, c_j and scale make R^H R = G the kernel's estimate Gram
    factor = np.zeros((1, 1, K + 1, K + 1), dtype=complex)
    factor[0, 0, :K, :K] = np.linalg.qr(x, mode="r")
    factor[0, 0, K, K] = 1.0
    rng = np.random.default_rng(3)
    args = (factor, crandn(rng, (1, 1, K)), crandn(rng, (1,)), np.ones((1, K)),
            np.ones(1), 0, np.ones(1), np.ones(1), 1.0)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    if reject:
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            _kernels.zf_chunk(*args)
    else:
        _kernels.zf_chunk(*args)
    assert len(calls) in allowed_calls


@pytest.mark.parametrize("M", [64, 256])
def test_zf_oracle_needs_no_eigenvalues(monkeypatch, small_drop, M):
    scenario, stats = small_drop
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rows = verification_rows(scenario, stats, M, Precoder.ZF, (1, 0), (0, 1), 1000,
                             np.random.default_rng(M))
    assert len(rows) == 6
    assert calls == []


def _per_batch_loop(chunks, theta, bounds, L):
    """Batch sums as a per-chunk loop over the batches, with math.fsum over
    the chunks per entry: the reference for the one-pass accumulation."""
    parts = []
    for t0, gain, y, power, s_i in chunks:
        c = y.shape[0]
        wprime = y - s_i @ theta
        part = np.zeros((N_BATCHES, 2 * L + 1))
        lo = np.clip(bounds[:-1] - t0, 0, c)
        hi = np.clip(bounds[1:] - t0, 0, c)
        for b in range(N_BATCHES):
            if hi[b] > lo[b]:
                seg = slice(lo[b], hi[b])
                part[b, :L] = gain[seg].real.sum(axis=0)
                part[b, L] = (wprime[seg].real ** 2 + wprime[seg].imag ** 2).sum()
                part[b, L + 1:] = power[seg].sum(axis=0)
        parts.append(part)
    stacked = np.stack(parts)
    out = np.empty(stacked.shape[1:])
    for idx in np.ndindex(out.shape):
        out[idx] = math.fsum(stacked[(slice(None),) + idx])
    return out


@pytest.mark.parametrize("trials", [1000, 1003])
def test_batch_sums_match_per_batch_loop(small_drop, trials):
    # chunks of chunk_trials(L, K) trials do not align with the batch bounds
    scenario, stats = small_drop
    L = scenario.n_cells
    bounds = _batch_bounds(trials)
    assert any(b % _kernels.chunk_trials(L, scenario.users_per_cell) for b in bounds)
    eff = effective_gain(scenario, stats, 16, Precoder.ZF, (0, 1))

    def chunks():
        return _chunk_iter(scenario, stats, 16, Precoder.ZF, (0, 1), eff, trials,
                           np.random.default_rng(trials))

    got = _batch_sums(chunks(), eff.theta, bounds)
    want = _per_batch_loop(chunks(), eff.theta, bounds, L)
    assert got.shape == (N_BATCHES, 2 * L + 1)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_oracle_vs_sampled_realization_consistency(small_drop):
    # zf_precoder on a sampled realization satisfies the defining identity
    scenario, stats = small_drop
    real = sample_channels(scenario, stats, 16, np.random.default_rng(8))
    for j in range(scenario.n_cells):
        ghat = real.g_hat[j].T  # (M, K)
        v = zf_precoder(ghat)
        residual = v.conj().T @ ghat - np.eye(scenario.users_per_cell)
        assert np.abs(residual).max() < 1e-9


def test_verification_rows_and_csv(tmp_path, small_drop):
    scenario, stats = small_drop
    rng = np.random.default_rng(21)
    rows = verification_rows(scenario, stats, 16, Precoder.MRT, (0, 0),
                             omega=(0, 1), trials=2000, rng=rng)
    names = [r.quantity.split("@")[0] for r in rows]
    assert names == ["theta_cell1", "theta_cell2", "noise_var",
                     "power_cell1", "power_cell2", "p1_omega12"]
    assert all(r.passed for r in rows)
    out = tmp_path / "report.csv"
    write_report_csv(rows, str(out))
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "quantity,closed_form,empirical,std_err,z_score,pass"
    assert len(lines) == 1 + len(rows)
    assert lines[1].endswith(",true")


def test_report_csv_round_trips_quantities(tmp_path, small_drop):
    # quantity names hold commas ("...@M=16,zf,rcvr=(1,2)"), so they are quoted
    scenario, stats = small_drop
    rows = verification_rows(scenario, stats, 16, Precoder.ZF, (0, 1), omega=(1,),
                             trials=1000, rng=np.random.default_rng(4))
    out = tmp_path / "report.csv"
    write_report_csv(rows, str(out))
    with open(out, encoding="utf-8", newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["quantity", "closed_form", "empirical", "std_err", "z_score",
                      "pass"]
    assert len(body) == len(rows)
    for fields, r in zip(body, rows):
        assert len(fields) == 6
        assert "," in r.quantity and fields[0] == r.quantity
        assert float(fields[1]) == r.closed_form
        assert fields[5] == str(r.passed).lower()


def _vector_trial(real, s, w, scenario, eff, precoder, receiver):
    """gain (L,), y and power (L,) of one trial from full M-vectors: the
    precoder applied to real.g_hat and the received sample over real.g."""
    L, K = scenario.n_cells, scenario.users_per_cell
    i, l = receiver
    scale = np.sqrt(scenario.rho_d / eff.lam)
    gain = np.empty(L, dtype=complex)
    power = np.empty(L)
    y = w
    for j in range(L):
        ghat = real.g_hat[j].T                                  # (M, K)
        v = ghat if precoder is Precoder.MRT else zf_precoder(ghat)
        row = real.g[j, i, l].conj() @ v                        # g_rx^H v_k
        gain[j] = scale[j] * row[i]
        y = y + scale[j] * row @ s[j]
        tx = v @ s[j]
        power[j] = scenario.rho_d * np.vdot(tx, tx).real / (eff.lam[j] * K)
    return gain, y, power


@pytest.mark.parametrize("precoder", [Precoder.MRT, Precoder.ZF])
def test_kernels_match_vector_algebra(small_drop, precoder):
    # a factor of the Gram of [obs_j1..obs_jK, e_j], the R of the sampled
    # vectors' QR, gives the kernels the same outputs as the precoder
    # applied to those vectors
    scenario, stats = small_drop
    L, K = scenario.n_cells, scenario.users_per_cell
    M, receiver, trials = 12, (1, 0), 5
    i, l = receiver
    eff = effective_gain(scenario, stats, M, precoder, receiver)
    _, c_rx = _gram_law(scenario, receiver)
    rng = np.random.default_rng(11)
    reals = [sample_channels(scenario, stats, M, rng) for _ in range(trials)]
    s = crandn(rng, (trials, L, K))
    w = crandn(rng, (trials,))
    x = np.empty((trials, L, M, K + 1), dtype=complex)
    for t, real in enumerate(reals):
        obs = real.pilot_observation(scenario.rho_p)            # (L, K, M)
        x[t, :, :, :K] = obs.transpose(0, 2, 1)
        x[t, :, :, K] = real.g[:, i, l] - c_rx[:, None] * obs[:, i]
    factor = np.linalg.qr(x, mode="r")
    kernel = _kernels.mrt_chunk if precoder is Precoder.MRT else _kernels.zf_chunk
    gain, y, power = kernel(factor, s, w, own_links(stats.alpha), c_rx, i,
                            np.sqrt(scenario.rho_d / eff.lam), eff.lam,
                            scenario.rho_d)
    for t, real in enumerate(reals):
        g_v, y_v, p_v = _vector_trial(real, s[t], w[t], scenario, eff, precoder,
                                      receiver)
        assert np.allclose(gain[t], g_v, rtol=1e-9, atol=0)
        assert np.isclose(y[t], y_v, rtol=1e-9, atol=0)
        assert np.allclose(power[t], p_v, rtol=1e-9, atol=0)


def _route_inputs(scenario, stats, M, precoder, receiver, trials, seed):
    """(F, W, args): the factors F and the Gram matrices W = F^H F of the
    same draws, from the library's sampler and the reference one, and the
    kernels' other arguments."""
    L, K = scenario.n_cells, scenario.users_per_cell
    eff = effective_gain(scenario, stats, M, precoder, receiver)
    var, c_rx = _gram_law(scenario, receiver)
    F = sample_gram(np.random.default_rng(seed), var, M, trials)
    W = sample_gram_matrix(np.random.default_rng(seed), var, M, trials)
    rng = np.random.default_rng(seed + 1)
    args = (crandn(rng, (trials, L, K)), crandn(rng, (trials,)), own_links(stats.alpha),
            c_rx, receiver[0], np.sqrt(scenario.rho_d / eff.lam), eff.lam, scenario.rho_d)
    return F, W, args


@pytest.mark.parametrize("precoder, M", [(Precoder.MRT, 3), (Precoder.MRT, 12),
                                         (Precoder.MRT, 64), (Precoder.ZF, 6),
                                         (Precoder.ZF, 64), (Precoder.ZF, 10**6)])
def test_factor_kernels_match_gram_kernels(small_drop, precoder, M):
    # the same draws through the factor route and the former Gram route;
    # MRT at M = 3 < K + 1 has a 3-row factor, ZF at M = K + 2 is the
    # smallest M above K + 1
    scenario, stats = small_drop
    assert (M < scenario.users_per_cell + 1) == (M == 3)
    F, W, args = _route_inputs(scenario, stats, M, precoder, (1, 0), 64, M)
    assert F.shape[-2] == min(M, scenario.users_per_cell + 1)
    if precoder is Precoder.MRT:
        new, old = _kernels.mrt_chunk(F, *args), mrt_chunk_gram(W, *args)
    else:
        new, old = _kernels.zf_chunk(F, *args), zf_chunk_gram(W, *args)
    for got, want in zip(new, old):       # gain, y, power
        assert np.allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("precoder", [Precoder.MRT, Precoder.ZF])
def test_factor_moments_match_gram_moments(small_drop, monkeypatch, precoder):
    scenario, stats = small_drop

    def moments():
        return empirical_moments(scenario, stats, 16, precoder, (0, 1), 1000,
                                 np.random.default_rng(23))

    new = moments()
    monkeypatch.setattr(mc_oracle, "sample_gram", sample_gram_matrix)
    monkeypatch.setattr(_kernels, "mrt_chunk", mrt_chunk_gram)
    monkeypatch.setattr(_kernels, "zf_chunk", zf_chunk_gram)
    old = moments()
    for field in ("mean_gain", "gain_se", "noise_var", "noise_se", "power", "power_se"):
        assert np.allclose(getattr(new, field), getattr(old, field), rtol=1e-10, atol=0), field


@pytest.mark.parametrize("precoder", [Precoder.MRT, Precoder.ZF])
@pytest.mark.parametrize("M", [64, 256])
def test_gram_sampler_matches_vector_path(small_drop, precoder, M):
    # two-sample |z| <= 5 on the gain, noise and power means
    scenario, stats = small_drop
    L = scenario.n_cells
    receiver, trials = (1, 1), 2000
    i, l = receiver
    eff = effective_gain(scenario, stats, M, precoder, receiver)
    mom = empirical_moments(scenario, stats, M, precoder, receiver, 4000,
                            np.random.default_rng(M))
    rng = np.random.default_rng(1000 + M)
    gain = np.empty((trials, L))
    noise = np.empty(trials)
    power = np.empty((trials, L))
    for t in range(trials):
        real = sample_channels(scenario, stats, M, rng)
        s = crandn(rng, (L, scenario.users_per_cell))
        w = crandn(rng, ())
        g, y, p = _vector_trial(real, s, w, scenario, eff, precoder, receiver)
        gain[t], power[t] = g.real, p
        noise[t] = abs(y - eff.theta @ s[:, i]) ** 2

    def z(vec_samples, mean, se):
        vec_se = vec_samples.std(axis=0, ddof=1) / math.sqrt(trials)
        return (mean - vec_samples.mean(axis=0)) / np.hypot(se, vec_se)

    assert np.all(np.abs(z(gain, mom.mean_gain, mom.gain_se)) <= 5)
    assert abs(z(noise, mom.noise_var, mom.noise_se)) <= 5
    assert np.all(np.abs(z(power, mom.power, mom.power_se)) <= 5)


@pytest.mark.parametrize("precoder", [Precoder.MRT, Precoder.ZF])
@pytest.mark.parametrize("M", [10**4, 10**6])
def test_oracle_large_m(paper_drop, precoder, M):
    # the regime of criteria 5 and 6, reachable since a trial's cost is M-free
    scenario, stats = paper_drop
    rows = verification_rows(scenario, stats, M, precoder, (0, 1), (0, 1),
                             10_000, np.random.default_rng(7))
    assert len(rows) == 6
    assert all(r.passed for r in rows), [(r.quantity, r.z_score) for r in rows
                                         if not r.passed]
