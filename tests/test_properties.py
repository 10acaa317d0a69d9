"""Property tests of the per-receiver rate formulas over link budgets with
every coherent power and noise level anywhere in 1e-12..1e12, and of the
config file format."""

import os
import tempfile
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from pcdl.geometry import (ScenarioConfig, parse_key_values,
                           scenario_config_from_dict)
from pcdl.harness import SCHEMES, SweepConfig, sweep_config_from_dict
from pcdl.rate_core import capacity_bits
from pcdl.schemes import CLAMP_TOL_BITS, _pd_symmetric_grid, _snd_at_receiver

# deterministic, and no example database written next to the sources
PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)

power = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _tin(s_own, s_int, noise):
    return capacity_bits(s_own / (noise + s_int))


@PROPERTY_SETTINGS
@given(power, power, power)
def test_snd_at_receiver_never_below_tin_or_sd(s_own, s_int, noise):
    i_own = capacity_bits(s_own / noise)
    i_oth = capacity_bits(s_int / noise)
    i_12 = capacity_bits((s_own + s_int) / noise)
    sd = min(i_own, i_oth, 0.5 * i_12)  # both signals decoded uniquely
    r = _snd_at_receiver(i_own, i_oth, i_12)
    assert r >= _tin(s_own, s_int, noise) - CLAMP_TOL_BITS
    assert r >= sd - CLAMP_TOL_BITS


@PROPERTY_SETTINGS
@given(power, power, power, power, power, power)
def test_pd_grid_holds_its_tin_corner(s1_own, s1_int, n1, s2_own, s2_int, n2):
    values = _pd_symmetric_grid((s1_own, s1_int), n1, (s2_own, s2_int), n2, 21)
    tin = min(_tin(s1_own, s1_int, n1), _tin(s2_own, s2_int, n2))
    # mu = (1, 1): both cells send only outer layers, which is TIN
    assert abs(values[-1, -1] - tin) <= CLAMP_TOL_BITS
    assert values.max() >= tin - CLAMP_TOL_BITS


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
        carrier_freq_ghz=draw(positive), bandwidth_hz=draw(positive),
        bs_total_power_w=draw(positive), ue_pilot_power_w=draw(positive),
        noise_power_dbm=draw(finite), n_drops=draw(st.integers(1, 10 ** 9)),
        seed=draw(st.integers(0, 2 ** 128)))


@st.composite
def sweep_configs(draw):
    scenario = draw(scenario_configs())
    precoders = draw(st.lists(st.sampled_from(("MRT", "ZF")), min_size=1, unique=True))
    lowest = scenario.K + 1 if "ZF" in precoders else 1
    m_values = draw(st.lists(st.integers(lowest, 10 ** 30), min_size=1, unique=True))
    # SD needs two cells or more, SND and PD exactly two
    L = scenario.L
    fitting = [s for s in SCHEMES
               if s == "TIN" or (s == "SD" and L >= 2) or (s in ("SND", "PD") and L == 2)]
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
