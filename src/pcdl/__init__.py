"""Downlink of a pilot-contaminated multi-cell massive MIMO system: closed-form
symmetric spectral efficiencies for TIN/SD/SND/PD under MRT and ZF precoding,
validated by a Monte Carlo channel-sampling oracle."""

from .estimation import EstimationStats, compute_alpha
from .geometry import (NetworkScenario, ScenarioConfig, build_beta,
                       build_scenario, path_loss_db, place_users)
from .harness import SweepConfig, SweepResult, run_sweep, write_sweep_csv
from .mc_oracle import EmpiricalMoments, empirical_moments
from .rate_core import (EffectiveChannel, PowerDecomposition, Precoder,
                        effective_gain, link_budget)
from .schemes import (PdSplit, sym_rate_pd, sym_rate_sd, sym_rate_snd,
                      sym_rate_tin)

__version__ = "0.1.0"

__all__ = [
    "EstimationStats", "compute_alpha",
    "NetworkScenario", "ScenarioConfig", "build_beta", "build_scenario",
    "path_loss_db", "place_users",
    "SweepConfig", "SweepResult", "run_sweep", "write_sweep_csv",
    "EmpiricalMoments", "empirical_moments",
    "EffectiveChannel", "PowerDecomposition", "Precoder",
    "effective_gain", "link_budget",
    "PdSplit", "sym_rate_pd", "sym_rate_sd", "sym_rate_snd", "sym_rate_tin",
    "__version__",
]
