"""Physical scenario: hexagonal cells, random user drops, path loss, large-scale gains.

Cells are regular hexagons with a base station at the center. For L >= 2 the
hexagons are laid out in a row along the x axis so that neighbours share an
edge, which puts adjacent BS centers exactly sqrt(3) * cell_radius apart.
Large-scale gains follow the 3GPP-style urban macro NLOS law

    beta_dB = -13.54 - 39.08*log10(d3d_m) - 20*log10(fc_GHz) + 0.6*(h_ut - 1.5)

with the 3D distance including the BS/UE height difference. No shadow fading
term: beta is deterministic given positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Static system parameters for one simulation campaign."""

    L: int = 2                       # cells
    K: int = 15                      # users per cell (= pilots per cell)
    cell_radius_m: float = 400.0     # hexagon circumradius
    min_bs_distance_m: float = 35.0  # 2-D user-to-own-BS exclusion radius
    bs_height_m: float = 25.0
    ue_height_m: float = 1.5
    carrier_freq_ghz: float = 3.5
    bandwidth_hz: float = 20e6
    bs_total_power_w: float = 40.0
    ue_pilot_power_w: float = 0.2    # not pinned by the experiment description; 23 dBm default
    noise_power_dbm: float = -101.0
    n_drops: int = 150
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.min_bs_distance_m < self.cell_radius_m:
            raise ValueError("min_bs_distance_m must lie in (0, cell_radius_m)")
        if self.n_drops < 1:
            raise ValueError("n_drops must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("cell_radius_m", "bs_height_m", "carrier_freq_ghz",
                     "bandwidth_hz", "bs_total_power_w", "ue_pilot_power_w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class NetworkScenario:
    """One drop: BS/user coordinates, the gain tensor and the two SNR levels.

    beta[j, k, l] is the linear large-scale gain between BS j and user k of
    cell l. rho_d is the per-user downlink SNR, rho_p the pilot SNR.
    """

    bs_positions: np.ndarray    # (L, 2) meters
    user_positions: np.ndarray  # (L, K, 2) meters
    beta: np.ndarray            # (L, K, L) linear gains
    rho_d: float
    rho_p: float

    def __post_init__(self):
        for arr in (self.bs_positions, self.user_positions, self.beta):
            arr.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return self.beta.shape[0]

    @property
    def users_per_cell(self) -> int:
        return self.beta.shape[1]


def hex_apothem(radius: float) -> float:
    return 0.5 * SQRT3 * radius


def hexagon_contains(x: float, y: float, radius: float) -> bool:
    """Membership test for a hexagon centered at the origin with two vertical
    edges at x = +-apothem (vertices at +-radius on the y axis)."""
    a = hex_apothem(radius)
    return (abs(x) <= a
            and abs(0.5 * x + 0.5 * SQRT3 * y) <= a
            and abs(0.5 * x - 0.5 * SQRT3 * y) <= a)


def bs_layout(L: int, radius: float) -> np.ndarray:
    """Row of shared-edge hexagons: adjacent centers sqrt(3)*radius apart."""
    xs = np.arange(L) * (SQRT3 * radius)
    out = np.zeros((L, 2))
    out[:, 0] = xs
    return out


def path_loss_db(d3d_m: float, fc_ghz: float, ue_height_m: float) -> float:
    """Large-scale gain in dB at 3-D distance d3d_m (urban macro NLOS law)."""
    if d3d_m <= 0:
        raise ValueError("d3d_m must be positive")
    return (-13.54
            - 39.08 * math.log10(d3d_m)
            - 20.0 * math.log10(fc_ghz)
            + 0.6 * (ue_height_m - 1.5))


def _sample_hexagon_point(rng: np.random.Generator, radius: float, min_dist: float):
    """Uniform point in the hexagon, at least min_dist from the center.

    Rejection from the bounding box; terminates since min_dist < radius.
    """
    a = hex_apothem(radius)
    while True:
        x = rng.uniform(-a, a)
        y = rng.uniform(-radius, radius)
        if hexagon_contains(x, y, radius) and math.hypot(x, y) >= min_dist:
            return x, y


def place_users(config: ScenarioConfig, rng: np.random.Generator) -> NetworkScenario:
    """Drop K users uniformly in each hexagon (2-D own-BS distance floor applied)."""
    L, K = config.L, config.K
    centers = bs_layout(L, config.cell_radius_m)
    pos = np.zeros((L, K, 2))
    for l in range(L):
        for k in range(K):
            x, y = _sample_hexagon_point(rng, config.cell_radius_m, config.min_bs_distance_m)
            pos[l, k, 0] = centers[l, 0] + x
            pos[l, k, 1] = centers[l, 1] + y
    beta, rho_d, rho_p = build_beta(config, centers, pos)
    return NetworkScenario(bs_positions=centers, user_positions=pos,
                           beta=beta, rho_d=rho_d, rho_p=rho_p)


def build_beta(config: ScenarioConfig, bs_positions: np.ndarray,
               user_positions: np.ndarray):
    """Gain tensor beta[j, k, l] plus (rho_d, rho_p) from the power budget.

    d3D folds in the BS/UE height difference; rho_d = (P_bs / K) / N0,
    rho_p = P_pilot / N0, all linear.
    """
    L, K = config.L, config.K
    dz = config.bs_height_m - config.ue_height_m
    beta = np.zeros((L, K, L))
    for j in range(L):
        d2 = np.hypot(user_positions[:, :, 0] - bs_positions[j, 0],
                      user_positions[:, :, 1] - bs_positions[j, 1])  # (L, K)
        d3 = np.hypot(d2, dz)
        for l in range(L):
            for k in range(K):
                pl = path_loss_db(float(d3[l, k]), config.carrier_freq_ghz,
                                  config.ue_height_m)
                beta[j, k, l] = 10.0 ** (pl / 10.0)
    noise_w = config.noise_power_w
    rho_d = (config.bs_total_power_w / K) / noise_w
    rho_p = config.ue_pilot_power_w / noise_w
    return beta, rho_d, rho_p


def drop_seed_sequence(master_seed: int, drop_index: int) -> np.random.SeedSequence:
    """Derivation rule for per-drop generator streams (documented so alternate
    runners can reproduce a drop without replaying earlier ones)."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(drop_index)))


def build_scenario(config: ScenarioConfig, drop_index: int = 0) -> NetworkScenario:
    """Scenario for one drop, pure in (config, drop_index)."""
    rng = np.random.default_rng(drop_seed_sequence(config.seed, drop_index))
    return place_users(config, rng)


# --- config file / CSV I/O -------------------------------------------------

_INT_FIELDS = {"L", "K", "n_drops", "seed"}


def parse_key_values(path: str) -> dict:
    """Plain-text "key = value" file, '#' comments, blank lines ignored; a
    key may appear once."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key '{key}'")
            out[key] = val
    return out


def scenario_config_from_dict(kv: dict) -> ScenarioConfig:
    names = {f.name for f in fields(ScenarioConfig)}
    kwargs = {}
    for key, val in kv.items():
        if key not in names:
            raise ValueError(f"unknown scenario key: {key}")
        kwargs[key] = int(val) if key in _INT_FIELDS else float(val)
    return ScenarioConfig(**kwargs)


def scenario_to_csv(scenario: NetworkScenario, path: str) -> None:
    """Dump one drop: row per user, beta columns per BS in dB."""
    L, K = scenario.n_cells, scenario.users_per_cell
    header = ["cell", "user", "x_m", "y_m"] + [f"beta_bs{j + 1}_db" for j in range(L)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for l in range(L):
            for k in range(K):
                row = [str(l + 1), str(k + 1),
                       repr(float(scenario.user_positions[l, k, 0])),
                       repr(float(scenario.user_positions[l, k, 1]))]
                for j in range(L):
                    row.append(repr(10.0 * math.log10(float(scenario.beta[j, k, l]))))
                fh.write(",".join(row) + "\n")
