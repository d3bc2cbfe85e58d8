"""Command line front end: single-instance solving, campaign sweeps, grid
verification and rate-table assignment.

Exit codes: 0 success, 1 usage or parse problems, 2 infeasibility or a
verification violation.
"""

from __future__ import annotations

import argparse
import csv
import math
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


def _parse_kv_file(path: str) -> list[tuple[int, str, str]]:
    entries = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = line.split("=", 1)
                entries.append((lineno, key.strip(), value.strip()))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return entries


def _to_float(path: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise CliError(f"{path}:{lineno}: key {key!r} needs a number, got {value!r}") from exc


# ---------------------------------------------------------------------------
# solve


_PARAM_KEYS = {
    "bandwidth_hz",
    "noise_w",
    "noise_dbm",
    "eta1",
    "eta1_db",
    "eta2",
    "eta2_db",
    "r_u_min_bps",
    "r_u_min_mbps",
}
_LIMIT_KEYS = {
    "p1_max_w",
    "p1_max_dbm",
    "p2_max_w",
    "p2_max_dbm",
    "pu_max_w",
    "pu_max_dbm",
}


def _load_instance(path: str) -> tuple[ChannelGains, SystemParams, PowerLimits]:
    known = set(GAIN_FIELDS) | {k + "_db" for k in GAIN_FIELDS} | _PARAM_KEYS | _LIMIT_KEYS
    values: dict[str, float] = {}
    for lineno, key, value in _parse_kv_file(path):
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _to_float(path, lineno, key, value)

    def pick(base: str, alt: str, convert, required: bool = True, default: float = 0.0) -> float:
        if base in values and alt in values:
            raise CliError(f"{path}: give only one of {base!r} and {alt!r}")
        if base in values:
            return values[base]
        if alt in values:
            return convert(values[alt])
        if required:
            raise CliError(f"{path}: missing required key {base!r} (or {alt!r})")
        return default

    if "bandwidth_hz" not in values:
        raise CliError(f"{path}: missing required key 'bandwidth_hz'")
    gains = ChannelGains(**{k: pick(k, k + "_db", db_to_linear) for k in GAIN_FIELDS})
    params = SystemParams(
        bandwidth_hz=values["bandwidth_hz"],
        noise_w=pick("noise_w", "noise_dbm", dbm_to_watts),
        eta1=pick("eta1", "eta1_db", db_to_linear),
        eta2=pick("eta2", "eta2_db", db_to_linear),
        r_u_min_bps=pick("r_u_min_bps", "r_u_min_mbps", lambda v: v * 1e6),
    )
    limits = PowerLimits(
        p1_max_w=pick("p1_max_w", "p1_max_dbm", dbm_to_watts),
        p2_max_w=pick("p2_max_w", "p2_max_dbm", dbm_to_watts),
        pu_max_w=pick("pu_max_w", "pu_max_dbm", dbm_to_watts),
    )
    return gains, params, limits


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


def _load_sweep_config(path: str) -> tuple[SimConfig, str, list[float]]:
    config_names = {f.name for f in fields(SimConfig)}
    known = config_names | {"r_u_min_mbps"}
    scalars: dict[str, float] = {}
    strings: dict[str, str] = {}
    sweep: tuple[str, list[float]] | None = None
    for lineno, key, value in _parse_kv_file(path):
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "pair_distance_law":
            strings[key] = value
            continue
        if "," in value:
            if key not in _SWEEP_KEYS:
                raise CliError(f"{path}:{lineno}: key {key!r} cannot be swept")
            if sweep is not None:
                raise CliError(f"{path}:{lineno}: a campaign takes exactly one sweep axis")
            sweep = (key, [_to_float(path, lineno, key, v) for v in value.split(",")])
        else:
            scalars[key] = _to_float(path, lineno, key, value)
    if sweep is None:
        raise CliError(f"{path}: no sweep axis found (one key must hold a comma list)")

    overrides: dict[str, float | int] = {}
    for k, v in scalars.items():
        overrides.update(_sweep_override(k, v))
    base = SimConfig(**overrides, **strings)
    return base, sweep[0], sweep[1]


def _sweep_override(key: str, value: float) -> dict[str, float | int]:
    if key == "r_u_min_mbps":
        return {"r_u_min_bps": value * 1e6}
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
    # and so is --out, opened in append mode to leave an existing file as it is
    try:
        open(args.out, "a").close()
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    rows = []
    for value, config in zip(sweep_values, configs):
        result = run_campaign(config)
        for kind in SCENARIOS:
            rows.append(
                (
                    sweep_key,
                    _g9(value),
                    kind.value,
                    _g9(result.mean_total_bps(kind)),
                    _g9(result.mean_per_pair_bps(kind)),
                    _g9(result.mean_sic_pairs(kind)),
                    _g9(result.ci95_bps(kind)),
                    str(config.trials),
                    str(config.master_seed),
                )
            )
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OverflowError) as exc:  # input values out of range
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
