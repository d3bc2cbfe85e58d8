"""The benchmark's workloads: how each builds its inputs, runs one op and
checks the op's output.

Every input is made from the workload seed; the program sees only the
inputs.  ``d2dpa`` must be importable before this module is imported.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from d2dpa import assignment, sim

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Campaign trials are drawn from a pool of single-trial campaigns with master
# seeds 1..POOL, whose outputs are stored in reference/.  The workload seed
# fixes the order in which a run visits the pool.
POOL = 3000

# Totals must match the stored reference to this relative tolerance.  A
# solver that is off by 1e-6 fails; a rewrite that agrees to about 1e-9 (the
# closed-form FD no-SIC solve) passes.  Selected-SIC counts must match exactly.
CAMPAIGN_RTOL = 1e-7

# assign_dense builds its tables from this many D=32, K=64 deployments, four
# tables (one per scheme) each, seeded by DENSE_DEPLOYMENT_SEED.
DENSE_DEPLOYMENTS = 4
DENSE_DEPLOYMENT_SEED = 1
DENSE_PAIRS = 32
DENSE_USERS = 64

# The assigned total may differ from the optimum's by summation order only.
MAPPING_RTOL = 1e-12


class CampaignWorkload:
    """One op is one trial: ``run_campaign`` with ``trials=1``."""

    setup_units = 0

    def __init__(self, name: str, **overrides) -> None:
        self.name = name
        self.config = sim.SimConfig(trials=1, **overrides)

    def setup(self, seed: int) -> None:
        with open(REFERENCE_DIR / f"{self.name}.json") as f:
            ref = json.load(f)
        self.schemes = ref["schemes"]
        self.reference = ref["trials"]
        self.order = np.random.default_rng(seed).permutation(POOL) + 1

    def inputs(self):
        return (int(m) for m in self.order)

    def run(self, master_seed: int):
        return sim.run_campaign(dataclasses.replace(self.config, master_seed=master_seed))

    def summary(self, result) -> dict[str, list]:
        """Assigned total and selected-SIC count per scheme."""
        return {
            kind.name: [float(result.totals_bps[kind][0]), int(result.sic_pairs[kind][0])]
            for kind in result.totals_bps
        }

    def failure(self, result) -> str | None:
        bad = [k for k, (total, _) in self.summary(result).items() if not math.isfinite(total)]
        return f"non-finite total for {bad}" if bad else None

    def mismatch(self, master_seed: int, result) -> str | None:
        got = self.summary(result)
        want = dict(zip(self.schemes, self.reference[master_seed - 1]))
        if set(got) != set(want):
            return f"master_seed {master_seed}: schemes {sorted(got)} != {sorted(want)}"
        for kind, (total, sic) in want.items():
            g_total, g_sic = got[kind]
            if not abs(g_total - total) <= CAMPAIGN_RTOL * max(abs(total), 1.0):
                return f"master_seed {master_seed} {kind}: total {g_total!r} != reference {total!r}"
            if g_sic != sic:
                return f"master_seed {master_seed} {kind}: SIC pairs {g_sic} != reference {sic}"
        return None


class AssignDenseWorkload:
    """One op is ``hungarian_max`` on one D=32 x K=64 rate table.

    Set-up builds the tables through the campaign engine from a fixed set of
    deployments.  Each op takes the next built table with its pairs and CUs
    renumbered by a permutation drawn from the workload seed: that is the
    table of the same deployment under another numbering, and the
    tie-break's cost depends on the numbering.  The deployments do not vary
    with the seed because op times differ more between deployments than a
    run has tables to average over (a table costs about 0.25 s to build).
    """

    name = "assign_dense"
    setup_units = 4 * DENSE_DEPLOYMENTS

    def setup(self, seed: int) -> None:
        self.seed = seed
        config = sim.SimConfig(k_users=DENSE_USERS, d_pairs=DENSE_PAIRS, trials=1)
        self.tables = []
        for b in range(DENSE_DEPLOYMENTS):
            base = (DENSE_DEPLOYMENT_SEED, b)
            deployment = sim.generate_deployment(config, np.random.SeedSequence((*base, 0)))
            gains = sim.gains_from_deployment(deployment, config, np.random.SeedSequence((*base, 1)))
            tables = sim.build_rate_tables(gains, config.system_params(), config.power_limits())
            self.tables.extend(tables.values())

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        for j in itertools.count():
            base = self.tables[j % len(self.tables)]
            rows = rng.permutation(DENSE_PAIRS)
            cols = rng.permutation(DENSE_USERS)
            yield assignment.RateTable(
                base.rates[rows][:, cols],
                sic_applied=base.sic_applied[rows][:, cols],
                infeasible=base.infeasible[rows][:, cols],
            )

    def run(self, table):
        return assignment.hungarian_max(table)

    def summary(self, result) -> tuple:
        mapping, total = result
        return tuple(mapping.pair_to_cu), total

    def failure(self, result) -> str | None:
        return None if math.isfinite(result[1]) else f"non-finite total {result[1]!r}"

    def mismatch(self, table, result) -> str | None:
        """The total must equal scipy's optimum exactly, and the mapping must be
        injective and reach it."""
        mapping, total = self.summary(result)
        rates = table.rates
        rows, cols = linear_sum_assignment(rates, maximize=True)
        optimum = float(rates[rows, cols].sum())
        if total != optimum:
            return f"total {total!r} != optimum {optimum!r}"
        d, k = rates.shape
        if len(mapping) != d or len(set(mapping)) != d or not all(0 <= c < k for c in mapping):
            return f"mapping {mapping} is not an injective map of {d} rows into {k} columns"
        reached = float(rates[np.arange(d), list(mapping)].sum())
        if reached < optimum - MAPPING_RTOL * max(1.0, abs(optimum)):
            return f"mapping reaches {reached!r}, below the optimum {optimum!r}"
        return None


def make(name: str):
    if name == "campaign_fig4a":
        return CampaignWorkload(name)
    if name == "campaign_far_pairs":
        return CampaignWorkload(name, eta_db=-130.0, d_max_m=200.0, pair_distance_law="fixed")
    if name == "assign_dense":
        return AssignDenseWorkload()
    raise KeyError(name)


NAMES = ("campaign_fig4a", "campaign_far_pairs", "assign_dense")
