import decimal
import inspect
import math

import numpy as np
import pytest

from pcdl.estimation import compute_alpha
from pcdl.geometry import build_scenario
from pcdl.harness import DEFAULT_M_VALUES
from pcdl.rate_core import Precoder, capacity_bits, link_budget, power_decomposition
from pcdl import schemes
from pcdl.schemes import (PdSplit, _pd_symmetric_grid, rate_sd, rate_snd, rate_tin,
                          sym_rate_pd, sym_rate_sd, sym_rate_snd, sym_rate_tin)
from conftest import toy_scenario
from reference import (MiTerms2, RateRegion2, RegionConstraint, c_lb,
                       exact_rates_2cell, intersect, mi_table, mi_terms, pd_mi_terms,
                       pd_terms_from_budget, pd_tie_break, snd_region, tin_lb)


def random_mi_triple(rng):
    """(i_own, i_oth, i_12) with max <= i_12 <= i_own + i_oth."""
    a = float(rng.uniform(0.0, 6.0))
    b = float(rng.uniform(0.0, 6.0))
    lo, hi = max(a, b), a + b
    c = float(rng.uniform(lo, hi))
    return a, b, c


def test_mi_terms_invariants(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        for l in range(2):
            mi = mi_terms(scenario, stats, 256, prec, 0, l)
            assert mi.i_1_given_2 >= 0 and mi.i_2_given_1 >= 0
            assert mi.i_12 <= mi.i_1_given_2 + mi.i_2_given_1
            assert mi.i_12 >= max(mi.i_1_given_2, mi.i_2_given_1)


def test_mi_terms_requires_two_cells():
    scenario = toy_scenario(np.ones((1, 1, 1)))
    stats = compute_alpha(scenario)
    with pytest.raises(ValueError):
        mi_terms(scenario, stats, 8, Precoder.MRT, 0, 0)


def test_tin_symmetric_scenario_mirror():
    # mirror-image gains: both receivers see the same budget
    beta = np.zeros((2, 1, 2))
    beta[0, 0, 0] = beta[1, 0, 1] = 1e-10
    beta[1, 0, 0] = beta[0, 0, 1] = 1e-12
    scenario = toy_scenario(beta, rho_d=1e12, rho_p=1e12)
    stats = compute_alpha(scenario)
    r0 = tin_lb(scenario, stats, 64, Precoder.MRT, (0, 0))
    r1 = tin_lb(scenario, stats, 64, Precoder.MRT, (0, 1))
    assert r0 == pytest.approx(r1, rel=1e-12)
    assert sym_rate_tin(scenario, stats, 64, Precoder.MRT, 0) == min(r0, r1)


def test_region_bisection_matches_mac_diagonal():
    # two-user MAC with bounds (3, 3, 4): diagonal point is min(3, 3, 2)
    region = RateRegion2(constraints=(
        RegionConstraint(1, 0, 3.0), RegionConstraint(0, 1, 3.0),
        RegionConstraint(1, 1, 4.0)))
    assert region.max_symmetric() == pytest.approx(2.0, abs=1e-9)


def test_region_degenerate_zero():
    region = RateRegion2(constraints=(RegionConstraint(1, 1, 0.0),))
    assert region.max_symmetric() == 0.0


def test_sd_diagonal_from_scenario(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        vals = []
        for l in range(2):
            mi = mi_terms(scenario, stats, 128, prec, 0, l)
            vals.append(min(mi.i_1_given_2, mi.i_2_given_1, mi.i_12 / 2))
        assert sym_rate_sd(scenario, stats, 128, prec, 0) == \
            pytest.approx(min(vals), rel=1e-12)


def test_snd_hand_example():
    assert rate_snd(mi_table(3.0, 1.0, 3.5))[0] == pytest.approx(2.5, rel=1e-15)


def test_snd_reduces_to_mac_diagonal_when_interference_strong():
    # i_oth >= i_12 / 2 turns the min-form constraint into the sum bound
    assert rate_snd(mi_table(2.0, 1.9, 3.0))[0] == pytest.approx(1.5, rel=1e-15)


def test_snd_closed_form_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        i_own, i_oth, i_12 = random_mi_triple(rng)
        mi = MiTerms2(receiver=(0, 0), i_1_given_2=i_own,
                      i_2_given_1=i_oth, i_12=i_12)
        oracle = snd_region(mi, own_cell=0).max_symmetric(tol=1e-12)
        closed = rate_snd(mi_table(i_own, i_oth, i_12))[0]
        worst = max(worst, abs(closed - oracle))
    assert worst < 1e-9


def test_snd_dominates_tin_and_sd_closed_forms():
    # both are reductions over the same table, so no tolerance
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        b = mi_table(*random_mi_triple(rng))
        snd = rate_snd(b)[0]
        assert snd >= rate_tin(b)[0]
        assert snd >= rate_sd(b)[0]


def test_snd_network_value_and_region_intersection(paper_drop):
    # reducing to the diagonal before or after intersecting the two
    # receivers' regions gives the same symmetric rate
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        closed = sym_rate_snd(scenario, stats, 512, prec, 0)
        regions = [snd_region(mi_terms(scenario, stats, 512, prec, 0, l), l)
                   for l in range(2)]
        oracle = intersect(*regions).max_symmetric(tol=1e-12)
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_snd_requires_two_cells():
    scenario = toy_scenario(np.ones((1, 1, 1)))
    stats = compute_alpha(scenario)
    with pytest.raises(ValueError):
        sym_rate_snd(scenario, stats, 8, Precoder.MRT, 0)


def test_pd_terms_hand_denominator():
    # mu_int = 0.5 with s_int = 2 and noise 1 puts 2 in every denominator
    t = pd_terms_from_budget(s_own=6.0, s_int=2.0, noise=1.0,
                             mu_own=0.5, mu_int=0.5)
    assert t.r_full == pytest.approx(math.log2(1 + 6 / 2), rel=1e-15)
    assert t.r_outer == pytest.approx(math.log2(1 + 3 / 2), rel=1e-15)
    assert t.r_full_joint == pytest.approx(math.log2(1 + 7 / 2), rel=1e-15)
    assert t.r_outer_joint == pytest.approx(math.log2(1 + 4 / 2), rel=1e-15)


def test_pd_terms_full_outer_layer_is_tin(paper_drop):
    scenario, stats = paper_drop
    theta, noise = link_budget(scenario, stats, 128, Precoder.MRT, (0, 0))
    t = pd_mi_terms(scenario, stats, 128, Precoder.MRT, 0,
                    PdSplit(1.0, 1.0), receiver_cell=0)
    tin = math.log2(1 + theta[0] ** 2 / (noise + theta[1] ** 2))
    assert t.r_full == pytest.approx(tin, rel=1e-15)
    # outer layer carries the full budget, inner layers are empty
    assert t.r_outer == t.r_full
    assert t.r_full_joint == t.r_full
    assert t.r_outer_joint == t.r_full


def test_pd_terms_empty_outer_layer(paper_drop):
    scenario, stats = paper_drop
    theta, noise = link_budget(scenario, stats, 128, Precoder.MRT, (0, 0))
    t = pd_mi_terms(scenario, stats, 128, Precoder.MRT, 0,
                    PdSplit(0.0, 0.0), receiver_cell=0)
    assert t.r_outer == 0.0
    both = math.log2(1 + (theta[0] ** 2 + theta[1] ** 2) / noise)
    assert t.r_full_joint == pytest.approx(both, rel=1e-15)


def test_pd_split_validation():
    with pytest.raises(ValueError):
        PdSplit(-0.1, 0.5)
    with pytest.raises(ValueError):
        PdSplit(0.5, 1.1)


def test_pd_symmetric_value_matches_region_bisection(paper_drop):
    # independent route: the 7 superposition constraints as an explicit
    # region, reduced to the diagonal by bisection
    scenario, stats = paper_drop
    mu_points = [PdSplit(0.0, 0.0), PdSplit(0.3, 0.75), PdSplit(1.0, 0.45)]
    for prec in (Precoder.MRT, Precoder.ZF):
        for split in mu_points:
            t1 = pd_mi_terms(scenario, stats, 128, prec, 0, split, 0)
            t2 = pd_mi_terms(scenario, stats, 128, prec, 0, split, 1)
            region = RateRegion2(constraints=(
                RegionConstraint(1, 0, t1.r_full),
                RegionConstraint(0, 1, t2.r_full),
                RegionConstraint(1, 1, t1.r_full_joint + t2.r_outer),
                RegionConstraint(1, 1, t2.r_full_joint + t1.r_outer),
                RegionConstraint(1, 1, t1.r_outer_joint + t2.r_outer_joint),
                RegionConstraint(2, 1, t1.r_full_joint + t1.r_outer + t2.r_outer_joint),
                RegionConstraint(1, 2, t2.r_full_joint + t2.r_outer + t1.r_outer_joint),
            ))
            oracle = region.max_symmetric(tol=1e-12)
            direct = min(t1.r_full, t2.r_full,
                         (t1.r_full_joint + t2.r_outer) / 2,
                         (t2.r_full_joint + t1.r_outer) / 2,
                         (t1.r_outer_joint + t2.r_outer_joint) / 2,
                         (t1.r_full_joint + t1.r_outer + t2.r_outer_joint) / 3,
                         (t2.r_full_joint + t2.r_outer + t1.r_outer_joint) / 3)
            assert direct == pytest.approx(oracle, abs=1e-9)


def test_pd_grid_vectorization_matches_scalar_loop():
    s1, n1 = (900.0, 250.0), 1.3
    s2, n2 = (400.0, 30.0), 1.1
    mu = np.linspace(0.0, 1.0, 7)
    grid = _pd_symmetric_grid(s1, n1, s2, n2, len(mu))
    for i1, m1 in enumerate(mu):
        for i2, m2 in enumerate(mu):
            t1 = pd_terms_from_budget(*s1, n1, m1, m2)
            t2 = pd_terms_from_budget(*s2, n2, m2, m1)
            expect = min(t1.r_full, t2.r_full,
                         (t1.r_full_joint + t2.r_outer) / 2,
                         (t2.r_full_joint + t1.r_outer) / 2,
                         (t1.r_outer_joint + t2.r_outer_joint) / 2,
                         (t1.r_full_joint + t1.r_outer + t2.r_outer_joint) / 3,
                         (t2.r_full_joint + t2.r_outer + t1.r_outer_joint) / 3)
            assert grid[i1, i2] == pytest.approx(expect, rel=1e-12)


def test_pd_grid_max_agrees_with_fine_grid(paper_config):
    # fixtures whose optimum sits on the coarse grid: the 21-point maximum
    # equals the exhaustive 101-point one (the coarse grid is a subset)
    for drop, M in [(0, 256), (2, 32)]:
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        coarse, _ = sym_rate_pd(scenario, stats, M, Precoder.ZF, 0, grid=21)
        fine, _ = sym_rate_pd(scenario, stats, M, Precoder.ZF, 0, grid=101)
        assert coarse == pytest.approx(fine, rel=1e-12)


def test_pd_fine_grid_never_below_coarse(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        for M in (32, 256, 1024):
            coarse, _ = sym_rate_pd(scenario, stats, M, prec, 0, grid=21)
            fine, _ = sym_rate_pd(scenario, stats, M, prec, 0, grid=101)
            assert fine >= coarse


def test_pd_includes_tin_grid_point(paper_drop):
    scenario, stats = paper_drop
    for prec in (Precoder.MRT, Precoder.ZF):
        for M in (32, 256):
            rate, _ = sym_rate_pd(scenario, stats, M, prec, 0, grid=5)
            assert rate >= sym_rate_tin(scenario, stats, M, prec, 0)


def test_pd_tie_break_rule():
    # one isolated weak link caps the value, so whole plateaus of splits tie;
    # the argmax must be the lexicographic (mu1 + mu2, mu1) minimum of the tie
    beta = np.zeros((2, 1, 2))
    beta[0, 0, 0] = 1e-12          # weak own link caps the symmetric rate
    beta[1, 0, 1] = 1e-9
    beta[1, 0, 0] = beta[0, 0, 1] = 1e-45
    scenario = toy_scenario(beta, rho_d=1e12, rho_p=1e12)
    stats = compute_alpha(scenario)
    grid = 11
    rate, split = sym_rate_pd(scenario, stats, 64, Precoder.MRT, 0, grid=grid)

    budgets = []
    for l in range(2):
        own, cross = (power_decomposition(scenario, stats, 64, Precoder.MRT, (0, l), (j,))
                      for j in (l, 1 - l))
        budgets.append(((own.p1, cross.p1), own.noise))
    mu = np.linspace(0.0, 1.0, grid)
    values = _pd_symmetric_grid(*budgets[0], *budgets[1], grid)
    ties = np.argwhere(values == values.max())
    assert len(ties) > 1  # the fixture does produce a plateau
    expect = min((mu[i1] + mu[i2], mu[i1], mu[i2]) for i1, i2 in ties)
    assert rate == values.max()
    assert (split.mu1, split.mu2) == (expect[1], expect[2])


@pytest.mark.parametrize("grid", [2, 3, 5, 21, 101])
def test_pd_tie_order_matches_the_search_over_every_maximum(grid):
    mu = schemes._pd_mesh(grid)[0]
    i1, i2 = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    rng = np.random.default_rng(grid)
    cases = {
        "constant": np.full((grid, grid), 0.7),
        "diagonal": np.where(i1 == i2, 2.0, 1.0),
        "anti-diagonal": np.where(i1 + i2 == grid - 1, 2.0, 1.0),
        "equal mu1 + mu2": np.where(i1 + i2 == grid // 2, 2.0, 1.0),
        "few levels": rng.integers(0, 3, (grid, grid)).astype(float),
        "distinct": rng.random((grid, grid)),
        # the smaller mu1 + mu2 wins over the smaller mu1
        "sum before mu1": np.where(((i1 == 1) & (i2 == 1)) | ((i1 == 0) & (i2 == grid - 1)),
                                   2.0, 1.0),
    }
    for name, values in cases.items():
        best, b1, b2 = schemes._pd_argmax(values)
        assert best == values.max()
        assert (b1, b2) == pd_tie_break(values, mu), name


def test_pd_tie_order_cache_is_read_only():
    for grid in (2, 5, 21, 101):
        order = schemes._pd_tie_order(grid)
        assert order is schemes._pd_tie_order(grid)
        np.testing.assert_array_equal(np.sort(order), np.arange(grid * grid))
        assert not order.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 1


def test_pd_grid_cache_is_read_only():
    for grid in (5, 21, 101):
        mu, m1, m2 = schemes._pd_mesh(grid)
        np.testing.assert_array_equal(mu, np.linspace(0.0, 1.0, grid))
        for cached in (mu, m1, m2):
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.5


def test_pd_grid_sizes_do_not_share_state(paper_drop):
    scenario, stats = paper_drop
    first = sym_rate_pd(scenario, stats, 256, Precoder.ZF, 0, grid=21)
    mesh = schemes._pd_mesh(21)
    for grid in (5, 21, 101):
        sym_rate_pd(scenario, stats, 256, Precoder.ZF, 0, grid=grid)
    assert sym_rate_pd(scenario, stats, 256, Precoder.ZF, 0, grid=21) == first
    assert all(a is b for a, b in zip(schemes._pd_mesh(21), mesh))
    np.testing.assert_array_equal(mesh[0], np.linspace(0.0, 1.0, 21))


def test_pd_grid_values_are_fresh():
    # rate_pd writes the (1, 1) corner of the value array in place, so each
    # call must get an array of its own, apart from the cached mesh
    s1, n1 = (900.0, 250.0), 1.3
    s2, n2 = (400.0, 30.0), 1.1
    first = _pd_symmetric_grid(s1, n1, s2, n2, 21)
    assert first.flags.writeable
    expect = first.copy()
    first[-1, -1] = -1.0
    second = _pd_symmetric_grid(s1, n1, s2, n2, 21)
    np.testing.assert_array_equal(second, expect)
    assert not any(np.shares_memory(first, a) for a in (second, *schemes._pd_mesh(21)))


def test_pd_split_shrinks_for_large_m(paper_config):
    # needs a drop where both cross links are strong enough that decoding
    # the whole interferer pays off by M = 1e6 (drop 11 under seed 1)
    scenario = build_scenario(paper_config, 11)
    stats = compute_alpha(scenario)
    for prec in (Precoder.MRT, Precoder.ZF):
        _, split = sym_rate_pd(scenario, stats, 10 ** 6, prec, 0, grid=21)
        assert split.mu1 <= 0.1 and split.mu2 <= 0.1


def test_pd_grid_validation(paper_drop):
    scenario, stats = paper_drop
    with pytest.raises(ValueError):
        sym_rate_pd(scenario, stats, 64, Precoder.MRT, 0, grid=1)


def test_containment_chain_every_drop(paper_config):
    from pcdl.geometry import build_scenario
    for drop in range(10):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            for M in (64, 1024):
                tin = sym_rate_tin(scenario, stats, M, prec, 0)
                sd = sym_rate_sd(scenario, stats, M, prec, 0)
                snd = sym_rate_snd(scenario, stats, M, prec, 0)
                pd, _ = sym_rate_pd(scenario, stats, M, prec, 0, grid=11)
                assert pd >= tin
                assert snd >= tin
                assert snd >= sd
                assert 0.0 <= sd and math.isfinite(pd)


def test_snd_is_tin_exactly_where_decoding_does_not_pay(paper_drop):
    # on drop 0 the SND region's best point is the TIN point: the reduction
    # picks D = {l}, TIN's own bound, so the two agree bit for bit
    scenario, stats = paper_drop
    M, prec = 256, Precoder.ZF
    mi = mi_terms(scenario, stats, M, prec, 0, 0)
    assert mi.i_2_given_1 < mi.i_12 / 2  # the interferer is too weak to decode
    assert sym_rate_snd(scenario, stats, M, prec, 0) == sym_rate_tin(scenario, stats, M, prec, 0)


def test_pd_corner_floor_rejects_a_real_deficit(monkeypatch, paper_drop):
    scenario, stats = paper_drop
    original = schemes._pd_symmetric_grid

    def low_corner(*args):
        values = original(*args)
        values[-1, -1] -= 1e-9
        return values

    monkeypatch.setattr(schemes, "_pd_symmetric_grid", low_corner)
    with pytest.raises(ArithmeticError, match=r"PD grid corner \(1, 1\) is 1e-09 bits "
                       r"below TIN at M=64, MRT, receiver \(2,1\) and \(2,2\)"):
        sym_rate_pd(scenario, stats, 64, Precoder.MRT, 1, grid=5)


def test_rates_nondecreasing_in_m(paper_config):
    # S_j grows with M (as M under MRT, M - K under ZF) and N does not, so
    # every scheme's rate is nondecreasing in M; a budget read at another M
    # than the one asked for can break this
    rates = {"TIN": sym_rate_tin, "SD": sym_rate_sd, "SND": sym_rate_snd,
             "PD": lambda *args: sym_rate_pd(*args)[0]}
    for drop in range(5):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            for name, rate in rates.items():
                values = [rate(scenario, stats, M, prec, 0) for M in DEFAULT_M_VALUES]
                for M, a, b in zip(DEFAULT_M_VALUES[1:], values, values[1:]):
                    assert b >= a - 1e-12, (name, drop, prec, M, a, b)


def test_schemes_read_only_the_link_budget():
    # every rate is a function of (S, N); the per-decode-set power
    # decompositions belong to the oracle and the test references
    for name in ("power_decomposition", "c_lb"):
        assert not hasattr(schemes, name)
        assert name not in inspect.getsource(schemes)


def test_three_cell_sums_stay_compensated():
    # receiver 0 sees 1 + 1e-16 + 1e-16: summed left to right that is 1.0,
    # correctly rounded (math.fsum) it is 1 + 2^-52
    tiny = 1e-16
    S = np.array([[[4.0, tiny, tiny], [tiny, 4.0, tiny], [tiny, tiny, 4.0]]])
    b = schemes.Budgets(S, np.ones(3), Precoder.MRT, (64,), 0,
                        schemes.bound_table(S, np.ones(3)))
    den = math.fsum([1.0, tiny, tiny])
    assert den != (1.0 + tiny) + tiny
    assert schemes.rate_tin(b)[0] == capacity_bits(4.0 / den)
    assert schemes.rate_sd(b)[0] == min(
        capacity_bits(math.fsum(S[0, l, list(omega)]) / 1.0) / len(omega)
        for l in range(3) for omega in schemes.decode_sets(3))


def test_three_cell_tin_equals_the_reference_bound(paper_config):
    from dataclasses import replace
    config = replace(paper_config, L=3)
    for drop in range(3):
        scenario = build_scenario(config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            b = schemes.Budgets.of(scenario, stats, DEFAULT_M_VALUES, prec, 0)
            tin = schemes.rate_tin(b)
            for m, M in enumerate(DEFAULT_M_VALUES):
                assert tin[m] == min(tin_lb(scenario, stats, M, prec, (0, l))
                                     for l in range(3))


@pytest.mark.parametrize("L", [2, 3])
def test_bound_table_equals_the_reference_bounds(paper_config, L):
    # every bound Budgets.of fills, in decode_sets(L) order, against the
    # scalar route of one receiver, one M and one decode set: G[m, l, d, t]
    # = C(S_T / (N_l + S_{not D})) / |T| for l in D and T in D; cells outside
    # D hold 0 and subsets outside D +inf
    from dataclasses import replace
    config = replace(paper_config, L=L)
    sets = schemes.decode_sets(L)
    for drop in range(4):
        scenario = build_scenario(config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            b = schemes.Budgets.of(scenario, stats, DEFAULT_M_VALUES, prec, 0)
            assert b.G.shape == (len(DEFAULT_M_VALUES), L, len(sets), len(sets))
            for m, M in enumerate(DEFAULT_M_VALUES):
                for l in range(L):
                    receiver = (0, l)
                    assert b.G[m, l, l, l] == tin_lb(scenario, stats, M, prec, receiver)
                    for d, D in enumerate(sets):
                        outside = [power_decomposition(scenario, stats, M, prec, receiver,
                                                       (j,)).p1
                                   for j in range(L) if j not in D]
                        for t, T in enumerate(sets):
                            if l not in D:
                                assert b.G[m, l, d, t] == 0.0
                            elif not set(T) <= set(D):
                                assert b.G[m, l, d, t] == np.inf
                            else:
                                pd = power_decomposition(scenario, stats, M, prec, receiver, T)
                                noise = math.fsum([pd.noise] + outside)
                                ref = c_lb(replace(pd, noise=noise)) / len(T)
                                assert b.G[m, l, d, t] == ref, (drop, prec, M, l, D, T)


# Largest distance of TIN, SD and SND from the 50-digit 2-cell rates, in
# bits, over drops 0..19 of the default config, pilot index 0, both
# precoders and the 10 reference M. Measured maxima: TIN and SND 1.23e-15
# (MRT, drop 1, M = 1e6, 13.97 bits: under one ulp of the rate, 1.78e-15),
# SD 9.9e-16 (ZF). The bound sits 63% above the largest.
EXACT_RATE_BITS = 2e-15


def test_two_cell_rates_lie_within_an_ulp_of_the_exact_rates(paper_config):
    worst = {}
    for drop in range(20):
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for prec in (Precoder.MRT, Precoder.ZF):
            b = schemes.Budgets.of(scenario, stats, DEFAULT_M_VALUES, prec, 0)
            exact = exact_rates_2cell(scenario, prec, 0, DEFAULT_M_VALUES)
            for name, rate in (("TIN", rate_tin), ("SD", rate_sd), ("SND", rate_snd)):
                for value, ref in zip(rate(b), exact[name]):
                    err = float(abs(decimal.Decimal(float(value)) - ref))
                    worst[name, prec.name] = max(worst.get((name, prec.name), 0.0), err)
    assert max(worst.values()) <= EXACT_RATE_BITS, worst
