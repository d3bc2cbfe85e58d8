"""Resource allocation for full-duplex D2D pairs underlaying cellular uplinks.

Per-combination power allocation for the four transmission schemes (FD/HD,
with and without mutual SIC), optimal D2D-to-CU channel assignment, a
brute-force grid validator and a Monte Carlo campaign engine.
"""

from .assignment import Assignment, RateTable, hungarian_max
from .model import (
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    pu_min,
    scenario_rates,
    watts_to_dbm,
)
from .oracle import GridSpec, brute_force
from .sim import (
    CampaignResult,
    Deployment,
    SimConfig,
    gains_from_deployment,
    generate_deployment,
    run_campaign,
)
from .solvers import solve_all, solve_fd_sic_order, sufficient_feasibility

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CampaignResult",
    "ChannelGains",
    "DecodingOrder",
    "Deployment",
    "GridSpec",
    "PaSolution",
    "PowerLimits",
    "PowerTriplet",
    "RateTable",
    "Scenario",
    "ScenarioKind",
    "SimConfig",
    "SystemParams",
    "brute_force",
    "db_to_linear",
    "dbm_to_watts",
    "gains_from_deployment",
    "generate_deployment",
    "hungarian_max",
    "pu_min",
    "run_campaign",
    "scenario_rates",
    "solve_all",
    "solve_fd_sic_order",
    "sufficient_feasibility",
    "watts_to_dbm",
    "__version__",
]
