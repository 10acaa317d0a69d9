import math
from dataclasses import fields

import numpy as np
import pytest

from pcdl.geometry import (SQRT3, ScenarioConfig, bs_layout, build_beta,
                           build_scenario, drop_seed_sequence, hex_apothem,
                           hexagon_contains, parse_key_values, path_loss_db,
                           place_users, scenario_config_from_dict,
                           scenario_to_csv)
from reference import load_scenario_config, place_users_loop


def test_path_loss_reference_value():
    # hand evaluation: -13.54 - 39.08*2 - 20*log10(3.5) + 0
    assert path_loss_db(100.0, 3.5, 1.5) == pytest.approx(-102.5814, abs=5e-5)


def test_path_loss_all_log_terms_vanish():
    assert path_loss_db(1.0, 1.0, 1.5) == pytest.approx(-13.54, abs=1e-12)


def test_path_loss_doubling_distance_offset():
    step = -39.08 * math.log10(2.0)
    for d, fc, h in [(50.0, 3.5, 1.5), (613.0, 28.0, 1.8)]:
        got = path_loss_db(2 * d, fc, h) - path_loss_db(d, fc, h)
        assert got == pytest.approx(step, abs=1e-9)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 3.5, 1.5)
    with pytest.raises(ValueError):
        path_loss_db(-10.0, 3.5, 1.5)


def test_noise_power_and_snrs(paper_config):
    assert paper_config.noise_power_w == pytest.approx(7.943e-14, rel=1e-3)
    scenario = build_scenario(paper_config, 0)
    assert scenario.rho_d == pytest.approx(3.357e13, rel=1e-3)
    assert 10 * math.log10(scenario.rho_d) == pytest.approx(135.26, abs=0.01)
    assert scenario.rho_p == pytest.approx(0.2 / 7.943e-14, rel=1e-3)


def test_config_invariants():
    with pytest.raises(ValueError):
        ScenarioConfig(L=0)
    with pytest.raises(ValueError):
        ScenarioConfig(K=0)
    with pytest.raises(ValueError):
        ScenarioConfig(min_bs_distance_m=400.0, cell_radius_m=400.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_drops=0)
    with pytest.raises(ValueError):
        ScenarioConfig(bs_total_power_w=-1.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ScenarioConfig(seed=-1)
    assert ScenarioConfig(seed=0).seed == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)
                                  if isinstance(getattr(ScenarioConfig(), f.name), float)])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


def test_users_inside_hexagon_with_distance_floor(paper_config):
    r = paper_config.cell_radius_m
    for drop in range(3):
        scenario = build_scenario(paper_config, drop)
        assert scenario.user_positions.shape == (2, paper_config.K, 2)
        for l in range(2):
            center = scenario.bs_positions[l]
            for k in range(paper_config.K):
                dx, dy = scenario.user_positions[l, k] - center
                assert hexagon_contains(dx, dy, r)
                assert math.hypot(dx, dy) >= paper_config.min_bs_distance_m


def test_hexagon_membership_halfplanes():
    r = 400.0
    a = hex_apothem(r)
    assert hexagon_contains(0.0, 0.0, r)
    assert hexagon_contains(0.0, r, r)            # top vertex
    assert hexagon_contains(a, r / 2, r)          # shared-edge vertex
    assert not hexagon_contains(a + 1e-6, 0.0, r)
    assert not hexagon_contains(0.0, r + 1e-6, r)
    assert not hexagon_contains(a, r / 2 + 1e-3, r)


class _QueuedRng:
    """Feeds queued batches of (x, y) candidates to `place_users`."""

    def __init__(self, *batches):
        self._batches = [np.array(b, dtype=float) for b in batches]

    def uniform(self, low, high, size):
        return self._batches.pop(0)


def test_min_distance_candidate_redrawn():
    cfg = ScenarioConfig(L=1, K=1, cell_radius_m=400.0, min_bs_distance_m=35.0)
    rng = _QueuedRng([(6.0, 8.0), (100.0, 50.0)])  # first point is 10 m out
    x, y = place_users(cfg, rng).user_positions[0, 0]
    assert (x, y) == (100.0, 50.0)


@pytest.mark.parametrize("kwargs", [{}, dict(L=3, K=4, seed=7),
                                    dict(L=1, K=40, min_bs_distance_m=300.0)],
                         ids=["default", "L3-K4-seed7", "L1-K40-floor300"])
def test_array_scenario_equals_scalar_loops(kwargs):
    # the last config rejects three candidates in four, so batches run short
    cfg = ScenarioConfig(**kwargs)
    for drop in range(300):
        got = build_scenario(cfg, drop)
        want = place_users_loop(cfg, np.random.default_rng(drop_seed_sequence(cfg.seed, drop)))
        assert np.array_equal(got.user_positions, want.user_positions), drop
        assert np.array_equal(got.beta, want.beta), drop


def test_determinism_bit_identical(paper_config):
    a = build_scenario(paper_config, 5)
    b = build_scenario(paper_config, 5)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert np.array_equal(a.beta, b.beta)
    c = build_scenario(paper_config, 6)
    assert not np.array_equal(a.user_positions, c.user_positions)


def test_beta_positive_and_monotonic(paper_drop):
    scenario, _ = paper_drop
    assert np.all(scenario.beta > 0)
    # strict decrease with 3-D distance for fixed carrier and height
    d = np.linspace(50, 2000, 64)
    pl = np.array([path_loss_db(x, 3.5, 1.5) for x in d])
    assert np.all(np.diff(pl) < 0)


def test_bs_spacing_shared_edge():
    centers = bs_layout(2, 400.0)
    gap = np.linalg.norm(centers[1] - centers[0])
    assert gap == pytest.approx(2 * (SQRT3 / 2) * 400.0, rel=1e-15)
    assert gap == pytest.approx(692.8203, abs=5e-4)


def test_users_statistically_closer_to_own_bs(paper_config):
    own, cross = [], []
    for drop in range(100):
        scenario = build_scenario(paper_config, drop)
        for l in range(2):
            d = np.linalg.norm(scenario.user_positions[l]
                               - scenario.bs_positions[l], axis=1)
            x = np.linalg.norm(scenario.user_positions[l]
                               - scenario.bs_positions[1 - l], axis=1)
            own.append(d.mean())
            cross.append(x.mean())
    assert np.mean(own) < np.mean(cross)


def test_height_only_distance():
    cfg = ScenarioConfig(L=1, K=1)
    bs = np.zeros((1, 2))
    users = np.zeros((1, 1, 2))  # co-located in 2-D
    beta, _, _ = build_beta(cfg, bs, users)
    expect = 10 ** (path_loss_db(23.5, cfg.carrier_freq_ghz, cfg.ue_height_m) / 10)
    assert beta[0, 0, 0] == pytest.approx(expect, rel=1e-15)


def test_scenario_arrays_immutable(paper_drop):
    scenario, _ = paper_drop
    with pytest.raises(ValueError):
        scenario.beta[0, 0, 0] = 1.0


def test_config_file_parsing(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# paper defaults with a smaller K\n"
                    "L = 2\nK = 5\ncell_radius_m = 400\n"
                    "seed = 7   # pinned\n", encoding="utf-8")
    cfg = load_scenario_config(str(path))
    assert cfg.K == 5 and cfg.seed == 7 and cfg.L == 2
    assert cfg.bs_height_m == 25.0  # untouched default


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown scenario key"):
        scenario_config_from_dict({"radius": "400"})


def test_config_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("K 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_key_values(str(path))


def test_config_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("K = 5\nseed = 3\n  K=6  # again\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"dup.cfg:3: duplicate key 'K'"):
        parse_key_values(str(path))


def test_scenario_csv_dump(tmp_path, paper_drop):
    scenario, _ = paper_drop
    out = tmp_path / "drop.csv"
    scenario_to_csv(scenario, str(out))
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "cell,user,x_m,y_m,beta_bs1_db,beta_bs2_db"
    assert len(lines) == 1 + 2 * scenario.users_per_cell
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    # beta columns are dB values consistent with the tensor
    assert float(first[4]) == pytest.approx(10 * math.log10(scenario.beta[0, 0, 0]))


def test_place_users_accepts_external_rng(paper_config):
    rng = np.random.default_rng(123)
    s1 = place_users(paper_config, rng)
    rng = np.random.default_rng(123)
    s2 = place_users(paper_config, rng)
    assert np.array_equal(s1.user_positions, s2.user_positions)
