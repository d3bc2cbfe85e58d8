"""Command line front end: single-instance solving, campaign sweeps, grid
verification and rate-table assignment.

Exit codes: 0 success, 1 usage or parse problems, 2 infeasibility or a
verification violation.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .assignment import hungarian_max
from .model import (
    GAIN_FIELDS,
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    Scenario,
    ScenarioKind,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    pu_min,
    watts_to_dbm,
)
from .oracle import GridSpec, check_solution
from .sim import (
    INT_FIELDS,
    SCENARIOS,
    SimConfig,
    check_campaign,
    run_campaign,
    sample_combo_gains,
)
from .solvers import solve_all, sufficient_feasibility

USAGE_EXIT = 1
VIOLATION_EXIT = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise CliError(message)


# Each quantity that input files may give in either of two units: its key,
# its key in the other unit, and the conversion from that unit.
_ALTERNATES = {
    **{k: (k + "_db", db_to_linear) for k in GAIN_FIELDS},
    "noise_w": ("noise_dbm", dbm_to_watts),
    "eta1": ("eta1_db", db_to_linear),
    "eta2": ("eta2_db", db_to_linear),
    "r_u_min_bps": ("r_u_min_mbps", lambda v: v * 1e6),
    **{k: (k[:-2] + "_dbm", dbm_to_watts) for k in ("p1_max_w", "p2_max_w", "pu_max_w")},
}


def _read_kv_file(path: str, known) -> dict[str, tuple[int, str]]:
    """The ``key = value`` lines of ``path`` as {key: (lineno, value)}, in
    file order: each key in ``known``, given once, and no quantity of
    `_ALTERNATES` given in both units."""
    entries: dict[str, tuple[int, str]] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                if key in entries:
                    raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
                entries[key] = (lineno, value)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    for base, (alt, _) in _ALTERNATES.items():
        if base in entries and alt in entries:
            raise CliError(f"{path}: give only one of {base!r} and {alt!r}")
    return entries


def _to_float(path: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise CliError(f"{path}:{lineno}: key {key!r} needs a number, got {value!r}") from exc


# ---------------------------------------------------------------------------
# solve


# Each other-unit key of `_ALTERNATES`, with its quantity's key and conversion.
_BY_ALTERNATE = {alt: (base, convert) for base, (alt, convert) in _ALTERNATES.items()}


def _load_instance(path: str) -> tuple[ChannelGains, SystemParams, PowerLimits]:
    entries = _read_kv_file(path, {"bandwidth_hz", *_ALTERNATES, *_BY_ALTERNATE})
    values = {}
    for key, (lineno, value) in entries.items():
        base, convert = _BY_ALTERNATE.get(key, (key, float))
        values[base] = convert(_to_float(path, lineno, key, value))
    for key in ("bandwidth_hz", *_ALTERNATES):
        if key not in values:
            alt = f" (or {_ALTERNATES[key][0]!r})" if key in _ALTERNATES else ""
            raise CliError(f"{path}: missing required key {key!r}{alt}")
    return (
        ChannelGains(**{k: values[k] for k in GAIN_FIELDS}),
        SystemParams(**{f.name: values[f.name] for f in fields(SystemParams)}),
        PowerLimits(**{f.name: values[f.name] for f in fields(PowerLimits)}),
    )


def _fmt_power(p_w: float) -> str:
    dbm = watts_to_dbm(p_w) if p_w > 0.0 else -math.inf
    return f"{dbm:.4f} dBm ({p_w:.6e} W)"


def _print_solution(kind: ScenarioKind, sol: PaSolution) -> None:
    print(f"== {kind.value} ==")
    if not sol.feasible:
        print("  infeasible: CU rate floor unreachable; rate 0")
        return
    order = "-"
    if sol.scenario.order is not None:
        order = str(sol.scenario.order.value)
    print(f"  sic_applied: {'yes' if sol.sic_applied else 'no'}   decoding_order: {order}")
    if isinstance(sol.powers, tuple):
        first, second = sol.powers
        flags = sol.scenario.slot_sic or (False, False)
        print(f"  slot1 (sic={'yes' if flags[0] else 'no'}): P1 {_fmt_power(first.p1_w)}   Pu {_fmt_power(first.pu_w)}")
        print(f"  slot2 (sic={'yes' if flags[1] else 'no'}): P2 {_fmt_power(second.p2_w)}   Pu {_fmt_power(second.pu_w)}")
    else:
        p = sol.powers
        print(f"  P1 {_fmt_power(p.p1_w)}   P2 {_fmt_power(p.p2_w)}   Pu {_fmt_power(p.pu_w)}")
    print(f"  R_D2D: {sol.r_d2d_bps / 1e6:.4f} Mbps   R_u: {sol.r_u_bps / 1e6:.4f} Mbps")


def cmd_solve(args) -> int:
    gains, params, limits = _load_instance(args.instance)
    solutions = solve_all(gains, params, limits)
    for kind in SCENARIOS:
        _print_solution(kind, solutions[kind])
    if not any(sol.feasible for sol in solutions.values()):
        return VIOLATION_EXIT
    return 0


# ---------------------------------------------------------------------------
# sweep


_SWEEP_KEYS = ("eta_db", "r_u_min_mbps", "d_max_m", "k_users", "d_pairs")
_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}
# The other-unit keys of `SimConfig`'s quantities, which a sweep file takes.
_SWEEP_ALTERNATES = {
    alt: (base, convert) for alt, (base, convert) in _BY_ALTERNATE.items() if base in _CONFIG_FIELDS
}


def _load_sweep_config(path: str) -> tuple[SimConfig, str, list[float]]:
    overrides: dict[str, float | int | str] = {}
    sweep: tuple[str, list[float]] | None = None
    entries = _read_kv_file(path, _CONFIG_FIELDS | _SWEEP_ALTERNATES.keys())
    for key, (lineno, value) in entries.items():
        if key == "pair_distance_law":
            overrides[key] = value
        elif "," in value:
            if key not in _SWEEP_KEYS:
                raise CliError(f"{path}:{lineno}: key {key!r} cannot be swept")
            if sweep is not None:
                raise CliError(f"{path}:{lineno}: a campaign takes exactly one sweep axis")
            sweep = (key, [_to_float(path, lineno, key, v) for v in value.split(",")])
        else:
            overrides.update(_sweep_override(key, _to_float(path, lineno, key, value)))
    if sweep is None:
        raise CliError(f"{path}: no sweep axis found (one key must hold a comma list)")
    return SimConfig(**overrides), sweep[0], sweep[1]


def _sweep_override(key: str, value: float) -> dict[str, float | int]:
    if key in _SWEEP_ALTERNATES:
        base, convert = _SWEEP_ALTERNATES[key]
        return {base: convert(value)}
    if key in INT_FIELDS:
        if not value.is_integer():
            raise CliError(f"key {key!r} needs an integer, got {value!r}")
        return {key: int(value)}
    return {key: value}


CSV_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "scenario",
    "mean_total_bps",
    "mean_per_pair_bps",
    "mean_sic_pairs",
    "ci95_bps",
    "trials",
    "seed",
)


def _g9(x: float) -> str:
    return f"{x:.9g}"


def cmd_sweep(args) -> int:
    base, sweep_key, sweep_values = _load_sweep_config(args.config)
    if args.trials is not None:
        base = replace(base, trials=args.trials)
    if args.seed is not None:
        base = replace(base, master_seed=args.seed)
    # every sweep point is validated before the first campaign runs
    configs = [replace(base, **_sweep_override(sweep_key, v)) for v in sweep_values]
    for config in configs:
        check_campaign(config)
    # and so is --out, opened in append mode to leave an existing file as it
    # is; a file the probe created is removed again if the sweep fails
    created = not os.path.exists(args.out)
    try:
        open(args.out, "a").close()
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    try:
        rows = []
        for value, config in zip(sweep_values, configs):
            result = run_campaign(config)
            for kind in SCENARIOS:
                stats = (result.mean_total_bps(kind), result.mean_per_pair_bps(kind),
                         result.mean_sic_pairs(kind), result.ci95_bps(kind))
                rows.append((sweep_key, _g9(value), kind.value, *map(_g9, stats),
                             str(config.trials), str(config.master_seed)))
        try:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                writer.writerows(rows)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    config = SimConfig(k_users=1, d_pairs=1, trials=1)
    limits = config.power_limits()
    grid = GridSpec(args.grid_n)
    wanted = set(s.value for s in SCENARIOS) if args.scenario is None else {args.scenario}
    worst: dict[str, float] = {s: -math.inf for s in wanted}
    violations = 0
    checked = 0

    for _ in range(args.count):
        eta_db = rng.uniform(-130.0, -80.0)
        params = replace(config, eta_db=eta_db).system_params()
        gains = sample_combo_gains(rng, config)
        solutions = solve_all(gains, params, limits)
        pu_m = pu_min(params, gains.h_b_u)
        for kind in SCENARIOS:
            if kind.value not in wanted:
                continue
            sol = solutions[kind]
            if kind is ScenarioKind.FD_SIC:
                scenarios = [
                    Scenario(kind, order=order)
                    for order in DecodingOrder
                    if sufficient_feasibility(gains, params, limits, pu_m, order)
                ]
            else:
                scenarios = [sol.scenario]
            for scenario in scenarios:
                gap, violation = check_solution(scenario, sol, gains, params, limits, grid)
                violations += violation
                if gap is not None:
                    checked += 1
                    worst[kind.value] = max(worst[kind.value], gap)

    print(f"instances: {args.count}   comparisons: {checked}")
    for name in sorted(worst):
        w = worst[name]
        shown = "n/a" if w == -math.inf else f"{w:.6e} bit/s"
        print(f"  {name}: worst (grid - solver) gap = {shown}")
    print(f"violations: {violations}")
    return VIOLATION_EXIT if violations else 0


# ---------------------------------------------------------------------------
# assign


def cmd_assign(args) -> int:
    try:
        with open(args.table, newline="") as fh:
            rows = [
                [float(v) for v in row]
                for row in csv.reader(fh)
                if row and any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise CliError(f"cannot read {args.table}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{args.table}: rate table must be numeric: {exc}") from exc
    if not rows:
        raise CliError(f"{args.table}: empty rate table")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CliError(f"{args.table}: ragged rows in rate table")
    table = np.array(rows)
    assignment, total = hungarian_max(table)
    for pair, cu in enumerate(assignment.pair_to_cu):
        print(f"pair {pair} -> cu {cu}   rate {_g9(table[pair, cu])} bit/s")
    print(f"total {_g9(total)} bit/s")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="d2dpa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file for all four schemes")
    p_solve.add_argument("instance", help="key = value file with gains, params and limits")

    p_sweep = sub.add_parser("sweep", help="run a campaign sweep and write a CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="compare every solver against the grid oracle")
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid-n", type=int, default=60)
    p_verify.add_argument(
        "--scenario", choices=[s.value for s in SCENARIOS], default=None
    )

    p_assign = sub.add_parser("assign", help="assign a rate-table CSV and print the mapping")
    p_assign.add_argument("--table", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "solve": cmd_solve,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "assign": cmd_assign,
        }[args.command]
        return handler(args)
    except (CliError, ValueError, OverflowError) as exc:  # bad input or values out of range
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
