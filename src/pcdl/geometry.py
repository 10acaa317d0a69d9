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
    bs_total_power_w: float = 40.0
    ue_pilot_power_w: float = 0.2    # not pinned by the experiment description; 23 dBm default
    noise_power_dbm: float = -101.0  # over the whole band: thermal noise of 20 MHz
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
                     "bs_total_power_w", "ue_pilot_power_w"):
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


def hexagon_contains(x, y, radius: float):
    """Membership test for a hexagon centered at the origin with two vertical
    edges at x = +-apothem (vertices at +-radius on the y axis); elementwise
    over arrays x and y."""
    a = hex_apothem(radius)
    return ((np.abs(x) <= a)
            & (np.abs(0.5 * x + 0.5 * SQRT3 * y) <= a)
            & (np.abs(0.5 * x - 0.5 * SQRT3 * y) <= a))


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


def place_users(config: ScenarioConfig, rng: np.random.Generator) -> NetworkScenario:
    """Drop K users uniformly in each hexagon (2-D own-BS distance floor applied).

    Candidates (x, y) are drawn from the bounding box in batches and accepted
    in draw order, cell 0's K users first: the order of one scalar rejection
    loop per user. A batch may draw candidates it does not keep, so an
    external rng advances past them.
    """
    L, K = config.L, config.K
    r, a = config.cell_radius_m, hex_apothem(config.cell_radius_m)
    draws, masks, n_ok = [], [], 0
    while n_ok < L * K:
        xy = rng.uniform((-a, -r), (a, r), size=(2 * L * K, 2))
        x, y = xy.T
        ok = hexagon_contains(x, y, r) & (np.hypot(x, y) >= config.min_bs_distance_m)
        draws.append(xy)
        masks.append(ok)
        n_ok += np.count_nonzero(ok)
    # a stable sort of the mask picks the accepted candidates in sizes fixed
    # by L, K and the batch count. A boolean selection's size changes from
    # drop to drop (16 sizes over the 150 reference drops); with it, those
    # drops page-faulted 18-21 times instead of 8-11, at each of 12 heap
    # offsets tried.
    first = np.argsort(~np.concatenate(masks), kind="stable")[:L * K]
    centers = bs_layout(L, r)
    pos = np.concatenate(draws)[first].reshape(L, K, 2) + centers[:, None, :]
    beta, rho_d, rho_p = build_beta(config, centers, pos)
    return NetworkScenario(bs_positions=centers, user_positions=pos,
                           beta=beta, rho_d=rho_d, rho_p=rho_p)


def build_beta(config: ScenarioConfig, bs_positions: np.ndarray,
               user_positions: np.ndarray):
    """Gain tensor beta[j, k, l] plus (rho_d, rho_p) from the power budget.

    d3D folds in the BS/UE height difference; rho_d = (P_bs / K) / N0,
    rho_p = P_pilot / N0, all linear. The path loss runs per entry with
    libm's log10 and pow: numpy's SIMD versions differ from them in the last
    bit on a few percent of inputs, so beta would depend on the host.
    """
    dz = config.bs_height_m - config.ue_height_m
    delta = user_positions[None] - bs_positions[:, None, None]  # (j, l, k, 2)
    d2 = np.hypot(delta[..., 0], delta[..., 1])
    d3 = np.hypot(d2, dz).transpose(0, 2, 1)                    # (j, k, l)
    fc, h = config.carrier_freq_ghz, config.ue_height_m
    beta = np.fromiter((10.0 ** (path_loss_db(float(d), fc, h) / 10.0) for d in d3.flat),
                       float, count=d3.size).reshape(d3.shape)
    noise_w = config.noise_power_w
    rho_d = (config.bs_total_power_w / config.K) / noise_w
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

# the annotations are strings under `from __future__ import annotations`
_INT_FIELDS = {f.name for f in fields(ScenarioConfig) if f.type == "int"}


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


def parse_value(key: str, text: str, kind: type):
    """kind(text), the value of config key `key`; text that does not parse
    raises a ValueError that names the key."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {text!r}") from None


def scenario_config_from_dict(kv: dict) -> ScenarioConfig:
    names = {f.name for f in fields(ScenarioConfig)}
    kwargs = {}
    for key, val in kv.items():
        if key not in names:
            raise ValueError(f"unknown scenario key: {key}")
        kwargs[key] = parse_value(key, val, int if key in _INT_FIELDS else float)
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
