import decimal
import math

import numpy as np
import pytest

from pcdl.estimation import compute_alpha
from pcdl.geometry import build_scenario
from pcdl.harness import DEFAULT_M_VALUES
from pcdl.rate_core import (Precoder, _normalization, capacity_bits,
                            decode_sets, effective_gain, link_budget,
                            link_budgets, m_eff, power_decomposition)
from pcdl.schemes import Budgets
from conftest import toy_scenario
from reference import (PowerTerms, c_lb, exact_unit_budget, p2_mrt_compact,
                       power_decomposition_mrt, power_decomposition_zf,
                       power_terms, theta_per_cell, tin_lb, ulps,
                       unit_budget_per_cell)


def unit_scenario(rho_p=1.0, rho_d=1.0):
    """Single cell, single user, beta = 1."""
    return toy_scenario(np.ones((1, 1, 1)), rho_d=rho_d, rho_p=rho_p)


def lam(scenario, stats, M, precoder, j):
    """Cell j's precoder normalization lambda_j at one M."""
    return _normalization(scenario, stats, M, precoder)[j]


def test_lambda_mrt_hand_value():
    # gamma = sqrt(rho_p)*beta*alpha = 2 requires a scaled toy link
    scenario = toy_scenario(np.ones((1, 1, 1)) * 4.0, rho_p=1.0)
    stats = compute_alpha(scenario)
    gamma = stats.gamma()[0, 0]
    expect = 100 * gamma
    assert lam(scenario, stats, 100, Precoder.MRT, 0) == pytest.approx(expect, rel=1e-15)


def test_lambda_mrt_linear_in_m(paper_drop):
    scenario, stats = paper_drop
    for j in range(2):
        l1 = lam(scenario, stats, 64, Precoder.MRT, j)
        l2 = lam(scenario, stats, 128, Precoder.MRT, j)
        assert l2 == pytest.approx(2 * l1, rel=1e-15)


def test_lambda_zf_hand_value():
    scenario = unit_scenario()
    stats = compute_alpha(scenario)  # gamma = 0.5
    assert lam(scenario, stats, 2, Precoder.ZF, 0) == pytest.approx(2.0, rel=1e-15)


def test_lambda_zf_inverse_m_decay(paper_drop):
    scenario, stats = paper_drop
    K = scenario.users_per_cell
    v1 = lam(scenario, stats, 2 ** 10, Precoder.ZF, 0) * (2 ** 10 - K)
    v2 = lam(scenario, stats, 2 ** 14, Precoder.ZF, 0) * (2 ** 14 - K)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_lambda_zf_rejects_m_le_k(paper_drop):
    scenario, stats = paper_drop
    K = scenario.users_per_cell
    with pytest.raises(ValueError, match="ZF requires M > K"):
        lam(scenario, stats, K, Precoder.ZF, 0)


def test_effective_gain_zf_own_link(paper_drop):
    # own-cell beta ratio is 1, so theta_l = sqrt(rho_d / lambda_l)
    scenario, stats = paper_drop
    for l in range(2):
        eff = effective_gain(scenario, stats, 256, Precoder.ZF, (0, l))
        expect = math.sqrt(scenario.rho_d / lam(scenario, stats, 256, Precoder.ZF, l))
        assert eff.theta[l] == pytest.approx(expect, rel=1e-15)


def test_mrt_theta_matches_hardening_coefficient(paper_drop):
    # theta_j / sqrt(M) equals the large-M limit coefficient for every M
    scenario, stats = paper_drop
    srp = math.sqrt(scenario.rho_p)
    K = scenario.users_per_cell
    for M in (4, 64, 1024, 2 ** 18):
        for l in range(2):
            eff = effective_gain(scenario, stats, M, Precoder.MRT, (0, l))
            for j in range(2):
                gsum = math.fsum(stats.gamma()[j])
                limit = (math.sqrt(K * scenario.rho_d * scenario.rho_p)
                         * scenario.beta[j, 0, l] * stats.alpha[j, 0, j]
                         / math.sqrt(gsum))
                assert abs(eff.theta[j] / math.sqrt(M) - limit) <= 1e-12 * limit


def test_power_decomposition_empty_omega(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        pd = power_decomposition(scenario, stats, 64, prec, (0, 0), omega=())
        assert pd.p1 == 0.0
        assert c_lb(pd) == 0.0


def test_power_decomposition_rejects_bad_omega(paper_drop):
    scenario, stats = paper_drop
    with pytest.raises(ValueError, match="omega entries"):
        power_decomposition(scenario, stats, 64, Precoder.MRT, (0, 0), omega=(2,))


def test_decode_sets_cover_every_nonempty_subset_by_size():
    assert decode_sets(1) == [(0,)]
    assert decode_sets(2) == [(0,), (1,), (0, 1)]
    assert decode_sets(3) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_mrt_single_cell_snr_slope():
    # K = 1, all beta equal: P1 / P2 = M * sqrt(rho_p) * alpha
    scenario = unit_scenario()
    stats = compute_alpha(scenario)
    alpha = stats.alpha[0, 0, 0]
    for M in (8, 128):
        pd = power_decomposition_mrt(scenario, stats, M, (0, 0), omega=(0,))
        assert pd.p1 / pd.p2 == pytest.approx(M * alpha, rel=1e-12)
        assert pd.p3 == 0.0  # no other users


def test_p2_mrt_two_part_sum_equals_compact(paper_drop):
    scenario, stats = paper_drop
    for M in (32, 256, 4096):
        for rcvr in [(0, 0), (0, 1), (7, 0)]:
            pd = power_decomposition_mrt(scenario, stats, M, rcvr, omega=())
            compact = p2_mrt_compact(scenario, stats, M, rcvr)
            assert abs(pd.p2 - compact) <= 1e-12 * compact


def test_p1_equals_coherent_power(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        eff = effective_gain(scenario, stats, 128, prec, (0, 1))
        for j in range(2):
            pd = power_terms(scenario, stats, 128, prec, (0, 1), omega=(j,))
            assert pd.p1 == pytest.approx(eff.theta[j] ** 2, rel=1e-12)


def test_p1_additive_and_clb_monotone_in_omega(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        p = {om: power_decomposition(scenario, stats, 64, prec, (0, 0), om)
             for om in [(0,), (1,), (0, 1)]}
        assert p[(0, 1)].p1 == pytest.approx(p[(0,)].p1 + p[(1,)].p1, rel=1e-12)
        assert c_lb(p[(0, 1)]) >= max(c_lb(p[(0,)]), c_lb(p[(1,)]))


def test_zf_decomposition_hand_example():
    scenario = unit_scenario()
    stats = compute_alpha(scenario)
    pd = power_decomposition_zf(scenario, stats, 2, (0, 0), omega=(0,))
    assert pd.p1 == pytest.approx(0.5, rel=1e-15)
    assert pd.p2 == pytest.approx(0.5, rel=1e-15)
    assert pd.p3 == 1.0 and pd.p4 == 0.0
    assert c_lb(pd) == pytest.approx(math.log2(1 + 0.5 / 1.5), rel=1e-15)
    assert c_lb(pd) == pytest.approx(0.415, abs=5e-4)
    lib = power_decomposition(scenario, stats, 2, Precoder.ZF, (0, 0), omega=(0,))
    assert lib.noise == pytest.approx(1.5, rel=1e-15)


def test_zf_p2_vanishes_with_perfect_csi():
    # isolated cells and huge pilot power drive the error term to zero
    beta = np.zeros((2, 1, 2))
    beta[0, 0, 0] = beta[1, 0, 1] = 1.0
    beta[0, 0, 1] = beta[1, 0, 0] = 1e-30
    scenario = toy_scenario(beta, rho_d=1.0, rho_p=1e12)
    stats = compute_alpha(scenario)
    pd = power_decomposition_zf(scenario, stats, 4, (0, 0), omega=(0,))
    assert pd.p2 < 1e-10 * pd.p1


def test_c_lb_direct_values():
    pd = PowerTerms(p1=3.0, p2=0.25, p3=0.5, p4=0.25, omega=frozenset({0}))
    assert c_lb(pd) == pytest.approx(2.0, rel=1e-15)
    assert capacity_bits(0.0) == 0.0


def test_tin_single_cell_reduces_to_single_user_bound():
    scenario = unit_scenario()
    stats = compute_alpha(scenario)
    pd = power_decomposition_mrt(scenario, stats, 16, (0, 0), omega=(0,))
    assert tin_lb(scenario, stats, 16, Precoder.MRT, (0, 0)) == \
        pytest.approx(c_lb(pd), rel=1e-15)


def test_tin_negligible_interferer_matches_single_user_bound():
    # one cross link driven to ~zero gain: TIN collapses to the own-signal
    # bound at that receiver
    beta = np.zeros((2, 1, 2))
    beta[0, 0, 0] = beta[1, 0, 1] = 1e-10
    beta[1, 0, 0] = beta[0, 0, 1] = 1e-40
    scenario = toy_scenario(beta, rho_d=1e12, rho_p=1e12)
    stats = compute_alpha(scenario)
    tin = tin_lb(scenario, stats, 64, Precoder.MRT, (0, 0))
    own = c_lb(power_decomposition_mrt(scenario, stats, 64, (0, 0), omega=(0,)))
    assert tin == pytest.approx(own, rel=1e-9)


def test_tin_log_ratio_identity(paper_drop):
    # TIN = C_LB(both) - C_LB(other): same log ratio written two ways
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        for l in range(2):
            t = tin_lb(scenario, stats, 512, prec, (0, l))
            both = c_lb(power_terms(scenario, stats, 512, prec, (0, l), (0, 1)))
            other = c_lb(power_terms(scenario, stats, 512, prec, (0, l), (1 - l,)))
            assert t == pytest.approx(both - other, abs=1e-9)


def test_tin_saturates_in_m_zf(paper_drop):
    # by M = 1e6 the ZF link is interference limited and TIN has flattened
    scenario, stats = paper_drop
    for l in range(2):
        a = tin_lb(scenario, stats, 10 ** 6, Precoder.ZF, (0, l))
        b = tin_lb(scenario, stats, 10 ** 7, Precoder.ZF, (0, l))
        assert abs(b - a) < 0.01


def test_tin_bounded_above_uniformly(paper_drop):
    # tin(M) increases toward the coherent-interference ceiling C(S_own/S_int),
    # whose powers scale identically in M, so the ceiling is M-independent
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        theta, _ = link_budget(scenario, stats, 1024, prec, (0, 0))
        ceiling = capacity_bits((theta[0] / theta[1]) ** 2)
        prev = -1.0
        for M in (64, 1024, 2 ** 16, 2 ** 22, 2 ** 28):
            t = tin_lb(scenario, stats, M, prec, (0, 0))
            assert prev < t < ceiling
            prev = t


def test_decode_bounds_gain_one_bit_per_doubling(paper_drop):
    # sum bounds carry the strong own-cell signal and are in the log-linear
    # regime by M = 2^18
    scenario, stats = paper_drop
    M = 2 ** 18
    for prec in (Precoder.MRT, Precoder.ZF):
        for l in range(2):
            lo = c_lb(power_decomposition(scenario, stats, M, prec, (0, l), (0, 1)))
            hi = c_lb(power_decomposition(scenario, stats, 2 * M, prec, (0, l), (0, 1)))
            assert hi - lo == pytest.approx(1.0, abs=0.05)


def test_every_decode_bound_reaches_one_bit_per_doubling(paper_drop):
    # cross-signal-only bounds trail (their coherent power is tiny at this
    # geometry) but reach the same one-bit slope once they clear the noise
    scenario, stats = paper_drop
    M = 2 ** 24
    for prec in (Precoder.MRT, Precoder.ZF):
        for l in range(2):
            for omega in [(0,), (1,), (0, 1)]:
                lo = c_lb(power_decomposition(scenario, stats, M, prec, (0, l), omega))
                hi = c_lb(power_decomposition(scenario, stats, 2 * M, prec, (0, l), omega))
                assert hi - lo == pytest.approx(1.0, abs=0.05)


def test_link_budget_consistent(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        theta, noise = link_budget(scenario, stats, 64, prec, (0, 0))
        eff = effective_gain(scenario, stats, 64, prec, (0, 0))
        pd = power_decomposition(scenario, stats, 64, prec, (0, 0), omega=())
        assert np.array_equal(theta, eff.theta)
        assert noise == pd.noise


def test_link_budget_noise_equals_reference_terms(paper_config):
    # N is one closed form per precoder: lambda (proportional to M, or to
    # 1/(M - K)) cancels in every noise term, and only coherent power
    # depends on the decode set
    omegas = [(), (0,), (1,), (0, 1)]
    for drop in range(5):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        K = scenario.users_per_cell
        for prec in (Precoder.MRT, Precoder.ZF):
            for rcvr in [(i, l) for i in (0, 7, 14) for l in (0, 1)]:
                seen = set()
                for M in (K + 2, 32, 1024, 10 ** 6):
                    _, noise = link_budget(scenario, stats, M, prec, rcvr)
                    terms = power_terms(scenario, stats, M, prec, rcvr, omega=())
                    assert abs(noise - terms.noise) <= 1e-12 * terms.noise
                    seen.add(noise)
                    seen.update(power_decomposition(scenario, stats, M, prec, rcvr,
                                                    om).noise for om in omegas)
                assert len(seen) == 1, (drop, prec, rcvr, seen)


def test_link_budgets_over_m_equal_the_single_m_reads(paper_config):
    # one unit-M_eff budget per (drop, precoder, pilot index) gives every M;
    # each scalar view at one M reads the same floats as M_eff S1 and the
    # per-cell loop
    K, L = paper_config.K, paper_config.L
    m_values = sorted(set(DEFAULT_M_VALUES) | {K + 1, K + 2, 2 ** 20})
    for drop in range(5):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            for i in range(K):
                S1, noise = link_budgets(scenario, stats, prec, i)
                assert S1.shape == (L, L) and noise.shape == (L,)
                for l in range(L):
                    assert S1[l].tolist() == unit_budget_per_cell(scenario, stats, prec, (i, l))
                for m, M in zip(m_eff(m_values, prec, K), m_values):
                    for l in range(L):
                        eff = effective_gain(scenario, stats, M, prec, (i, l))
                        t, n = link_budget(scenario, stats, M, prec, (i, l))
                        assert np.array_equal(eff.theta, np.sqrt(m * S1[l]))
                        assert np.array_equal(t, eff.theta) and noise[l] == n
                        assert np.array_equal(eff.theta,
                                              theta_per_cell(scenario, stats, M, prec, (i, l)))
                        for j in range(L):
                            pd = power_decomposition(scenario, stats, M, prec, (i, l), (j,))
                            assert pd.p1 == m * S1[l, j] and pd.noise == n


def test_link_budgets_reject_zf_at_m_le_k(paper_drop):
    # m_eff owns the check, so the budgets over M and the scalar views share it
    scenario, stats = paper_drop
    K = scenario.users_per_cell
    for m_values in ((K,), (K - 1, K + 1), (32, K)):
        with pytest.raises(ValueError, match=f"ZF requires M > K \\(got M={min(m_values)}"):
            Budgets.of(scenario, stats, m_values, Precoder.ZF, 0)
    with pytest.raises(ValueError, match="ZF requires M > K"):
        effective_gain(scenario, stats, K, Precoder.ZF, (0, 0))
    with pytest.raises(ValueError, match="M must be >= 1"):
        Budgets.of(scenario, stats, (0, 64), Precoder.MRT, 0)
    Budgets.of(scenario, stats, (K + 1,), Precoder.ZF, 0)


def test_link_budgets_reject_a_bad_pilot_index(paper_drop):
    scenario, stats = paper_drop
    for i in (-1, scenario.users_per_cell):
        with pytest.raises(ValueError, match="out of range"):
            link_budgets(scenario, stats, Precoder.MRT, i)


# Largest distance from the 50-digit budget, in ulps, over drops 0..19 of the
# default config, pilot index 0, both receivers and the 10 reference M.
# Measured maxima: S1 5.49 (MRT) and 3.31 (ZF); M_eff S1 6.49 and 3.77; N
# 1.15 (MRT). ZF's N reads 4131 ulps (5.3e-13 relative) on drop 5: its term
# 1 - sqrt(rho_p) alpha_jil cancels where the own link's sqrt(rho_p) alpha is
# 0.9997. Each bound sits 21% (N under ZF) to 74% (N under MRT) above its
# maximum.
EXACT_ULPS = {"S1": 8.0, "S": 8.0, "N_mrt": 2.0, "N_zf": 5000.0}


def test_budgets_lie_within_a_few_ulps_of_the_exact_budget(paper_config):
    K, L = paper_config.K, paper_config.L
    worst = dict.fromkeys(EXACT_ULPS, 0.0)
    for drop in range(20):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            S1, N = link_budgets(scenario, stats, prec, 0)
            S1_exact, N_exact = exact_unit_budget(scenario, prec, 0)
            n_key = "N_mrt" if prec is Precoder.MRT else "N_zf"
            for l in range(L):
                worst[n_key] = max(worst[n_key], ulps(float(N[l]), N_exact[l]))
                for j in range(L):
                    worst["S1"] = max(worst["S1"], ulps(float(S1[l, j]), S1_exact[l][j]))
                    for m in m_eff(DEFAULT_M_VALUES, prec, K):
                        with decimal.localcontext() as ctx:
                            ctx.prec = 50
                            exact = decimal.Decimal(int(m)) * S1_exact[l][j]
                        worst["S"] = max(worst["S"], ulps(float(m * S1[l, j]), exact))
    assert all(worst[k] <= EXACT_ULPS[k] for k in EXACT_ULPS), worst
