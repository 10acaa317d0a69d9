"""Property tests of the per-receiver rate formulas over link budgets with
every coherent power and noise level anywhere in 1e-12..1e12, of the link
budget's scaling in M, and of the config file format."""

import itertools
import math
import os
import tempfile
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcdl.geometry import (ScenarioConfig, parse_key_values,
                           scenario_config_from_dict)
from pcdl.harness import SCHEMES, SweepConfig, sweep_config_from_dict
from pcdl.rate_core import Precoder, capacity_bits, link_budgets, m_eff
from pcdl.schemes import (CLAMP_TOL_BITS, Budgets, _pd_symmetric_grid, bound_table,
                          decode_sets, rate_sd, rate_snd, rate_tin)

# deterministic, and no example database written next to the sources
PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)

power = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _tin(s_own, s_int, noise):
    return capacity_bits(s_own / (noise + s_int))


@PROPERTY_SETTINGS
@given(power, power, power, power, power, power)
def test_pd_grid_holds_its_tin_corner(s1_own, s1_int, n1, s2_own, s2_int, n2):
    values = _pd_symmetric_grid((s1_own, s1_int), n1, (s2_own, s2_int), n2, 21)
    tin = min(_tin(s1_own, s1_int, n1), _tin(s2_own, s2_int, n2))
    # mu = (1, 1): both cells send only outer layers, which is TIN
    assert abs(values[-1, -1] - tin) <= CLAMP_TOL_BITS
    assert values.max() >= tin - CLAMP_TOL_BITS


@st.composite
def receiver_budgets(draw):
    """(S, N) of L = 2..4 receivers at one M: S (1, L, L) and N (L,)."""
    L = draw(st.integers(2, 4))
    S = draw(st.lists(power, min_size=L * L, max_size=L * L))
    N = draw(st.lists(power, min_size=L, max_size=L))
    return np.reshape(S, (1, L, L)), np.array(N)


def _budgets(S, N) -> Budgets:
    return Budgets(S, N, Precoder.MRT, (1,), 0, bound_table(S, N))


@PROPERTY_SETTINGS
@given(receiver_budgets())
def test_snd_never_below_tin_or_sd(budget):
    # D = {l} is TIN's bound and D = every cell keeps a subset of SD's, so
    # the reductions over one table order the rates exactly
    b = _budgets(*budget)
    snd = rate_snd(b)[0]
    assert snd >= rate_tin(b)[0]
    assert snd >= rate_sd(b)[0]


@PROPERTY_SETTINGS
@given(receiver_budgets())
def test_bound_table_is_a_polymatroid(budget):
    # under a fixed noise, C(S_T / noise) is a concave function of a sum of
    # nonnegative powers, so each (receiver l, decode set D) slice is
    # monotone and submodular over the subsets of D; and TIN's bound never
    # exceeds that of decoding the own signal alone
    S, N = budget
    L = len(N)
    G = bound_table(S, N)
    sets = decode_sets(L)
    for l in range(L):
        for d, D in enumerate(sets):
            if l not in D:
                continue
            bound = {frozenset(): 0.0}
            bound.update((frozenset(T), G[0, l, d, t] * len(T))
                         for t, T in enumerate(sets) if set(T) <= set(D))
            for a, b in itertools.product(bound, repeat=2):
                if a <= b:
                    assert bound[a] <= bound[b] + CLAMP_TOL_BITS
                assert (bound[a | b] + bound[a & b]
                        <= bound[a] + bound[b] + CLAMP_TOL_BITS)
        assert G[0, l, l, l] <= G[0, l, -1, l] + CLAMP_TOL_BITS


def _snd_by_bisection(S, N, tol=1e-12):
    """The largest R that every receiver l reaches with some decode set D
    holding l: |T| R <= log2(1 + S_T / (N_l + S_{not D})) for each T in D
    with l in T (Bandemer, El Gamal and Kim), from itertools and math.log2
    alone, by bisection on R."""
    L = len(N)
    cells = range(L)

    def caps(l):
        """Per decode set D holding l, the per-cell caps R <= bound / |T|."""
        for size in range(1, L + 1):
            for D in itertools.combinations(cells, size):
                if l in D:
                    noise = math.fsum([N[l]] + [S[l][j] for j in cells if j not in D])
                    yield [math.log2(1.0 + math.fsum(S[l][j] for j in T) / noise) / len(T)
                           for k in range(1, size + 1)
                           for T in itertools.combinations(D, k) if l in T]

    receivers = [list(caps(l)) for l in cells]

    def feasible(R):
        return all(any(all(R <= c for c in in_D) for in_D in per_D) for per_D in receivers)

    lo, hi = 0.0, max(c for per_D in receivers for in_D in per_D for c in in_D)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


@PROPERTY_SETTINGS
@given(receiver_budgets())
def test_snd_equals_the_brute_force_region(budget):
    # every decode set and subset enumerated afresh, scalar logs, and the
    # symmetric rate found by bisection; 1e-9 bits as for the 2-cell oracle
    S, N = budget
    brute = _snd_by_bisection(S[0].tolist(), N.tolist())
    assert abs(rate_snd(_budgets(S, N))[0] - brute) < 1e-9


@PROPERTY_SETTINGS
@given(st.sampled_from(Precoder), st.integers(0, 14), st.data())
def test_budgets_scale_the_unit_budget_by_m_eff(paper_drop, precoder, i, data):
    # S = M_eff S1 bit for bit at every M of any ascending list, and N and
    # each M's row are the ones a budget of that M alone gets
    scenario, stats = paper_drop
    K = scenario.users_per_cell
    lowest = K + 1 if precoder is Precoder.ZF else 1
    m_values = sorted(data.draw(st.lists(st.integers(lowest, 10 ** 30), min_size=1,
                                         max_size=12, unique=True)))
    S1, N = link_budgets(scenario, stats, precoder, i)
    b = Budgets.of(scenario, stats, m_values, precoder, i)
    assert (b.S == m_eff(m_values, precoder, K)[:, None, None] * S1).all()
    assert (b.N == N).all()
    for m, M in enumerate(m_values):
        one = Budgets.of(scenario, stats, (M,), precoder, i)
        assert (one.S[0] == b.S[m]).all() and (one.N == N).all()


# a config draws some 20 values, so fewer examples than the rate properties
ROUND_TRIP_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=200)
positive = st.floats(min_value=1e-300, max_value=1e300)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw):
    radius = draw(positive)
    return ScenarioConfig(
        # small cell counts often: which schemes a sweep may run depends on L
        L=draw(st.integers(1, 3) | st.integers(1, 10 ** 6)),
        K=draw(st.integers(1, 10 ** 6)),
        cell_radius_m=radius,
        min_bs_distance_m=draw(st.floats(0.0, radius, exclude_min=True,
                                         exclude_max=True)),
        bs_height_m=draw(positive), ue_height_m=draw(finite),
        carrier_freq_ghz=draw(positive),
        bs_total_power_w=draw(positive), ue_pilot_power_w=draw(positive),
        noise_power_dbm=draw(finite), n_drops=draw(st.integers(1, 10 ** 9)),
        seed=draw(st.integers(0, 2 ** 128)))


@st.composite
def sweep_configs(draw):
    scenario = draw(scenario_configs())
    precoders = draw(st.lists(st.sampled_from(("MRT", "ZF")), min_size=1, unique=True))
    lowest = scenario.K + 1 if "ZF" in precoders else 1
    m_values = draw(st.lists(st.integers(lowest, 10 ** 30), min_size=1, unique=True))
    # SD and SND need two cells or more, PD exactly two
    L = scenario.L
    fitting = [s for s in SCHEMES
               if s == "TIN" or (s in ("SD", "SND") and L >= 2) or (s == "PD" and L == 2)]
    return SweepConfig(
        scenario=scenario, m_values=tuple(sorted(m_values)),
        schemes=tuple(draw(st.lists(st.sampled_from(fitting), min_size=1, unique=True))),
        precoders=tuple(precoders),
        pilot_index=draw(st.integers(1, scenario.K)),
        mu_grid=draw(st.integers(2, 10 ** 6)))


def _scenario_lines(cfg: ScenarioConfig) -> list[str]:
    return [f"{f.name} = {getattr(cfg, f.name)!r}" for f in fields(cfg)]


def _read_back(lines: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# written by the round-trip test\n" + "\n".join(lines) + "\n")
        return parse_key_values(path)


@ROUND_TRIP_SETTINGS
@given(scenario_configs())
def test_scenario_config_file_round_trip(cfg):
    assert scenario_config_from_dict(_read_back(_scenario_lines(cfg))) == cfg


@ROUND_TRIP_SETTINGS
@given(sweep_configs())
def test_sweep_config_file_round_trip(cfg):
    lines = _scenario_lines(cfg.scenario) + [
        "m_values = " + ", ".join(str(M) for M in cfg.m_values),
        "schemes = " + ", ".join(cfg.schemes),
        "precoders = " + ", ".join(cfg.precoders),
        f"pilot_index = {cfg.pilot_index}",
        f"mu_grid = {cfg.mu_grid}",
    ]
    assert sweep_config_from_dict(_read_back(lines)) == cfg
