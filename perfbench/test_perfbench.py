"""Tests of the benchmark itself: output checks, tracing and the command line.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402
from d2dpa import assignment, solvers  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def cli(*args, cwd=BENCH_DIR.parent):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.fixture(scope="module")
def fig4a():
    workload = workloads.make("campaign_fig4a")
    workload.setup(1)
    return workload


def test_campaign_check_tolerance(fig4a):
    result = fig4a.run(7)
    assert fig4a.mismatch(7, result) is None
    for factor, ok in ((1.0 + 1e-9, True), (1.0 - 1e-9, True), (1.0 + 1e-6, False)):
        scaled = dataclasses.replace(
            result, totals_bps={k: v * factor for k, v in result.totals_bps.items()}
        )
        assert (fig4a.mismatch(7, scaled) is None) == ok, factor
    kind = next(iter(result.sic_pairs))
    moved = dataclasses.replace(result, sic_pairs={**result.sic_pairs, kind: result.sic_pairs[kind] + 1})
    assert "SIC pairs" in fig4a.mismatch(7, moved)


def test_wrong_solver_fails_the_check(fig4a, monkeypatch):
    original = solvers.solve_hd_nosic

    def off_by_1e6(*args, **kwargs):
        sol = original(*args, **kwargs)
        return dataclasses.replace(sol, r_d2d_bps=sol.r_d2d_bps * (1.0 - 1e-6))

    monkeypatch.setattr(solvers, "solve_hd_nosic", off_by_1e6)
    assert "HD_NOSIC" in fig4a.mismatch(7, fig4a.run(7))


def test_assignment_check():
    workload = workloads.AssignDenseWorkload()
    rng = np.random.default_rng(0)
    table = assignment.RateTable(rng.uniform(size=(6, 9)))
    mapping, total = assignment.hungarian_max(table)
    assert workload.mismatch(table, (mapping, total)) is None
    assert "optimum" in workload.mismatch(table, (mapping, np.nextafter(total, 0.0)))
    cols = list(mapping.pair_to_cu)
    spare = next(c for c in range(9) if c not in cols)
    worse = assignment.Assignment(tuple(cols[:-1] + [spare]))
    assert "below the optimum" in workload.mismatch(table, (worse, total))
    repeated = object.__new__(assignment.Assignment)  # bypasses the injectivity check
    object.__setattr__(repeated, "pair_to_cu", tuple(cols[:-1] + [cols[0]]))
    assert "injective" in workload.mismatch(table, (repeated, total))


def test_tracing_changes_no_result(fig4a):
    tracer = Tracer()
    assert tracer.missing == []
    plain = [fig4a.summary(fig4a.run(m)) for m in (3, 4)]
    with tracer.installed():
        traced = [fig4a.summary(fig4a.run(m)) for m in (3, 4)]
    assert traced == plain
    assert {span[0].split(".")[0] for span in tracer.spans} == {
        "sim", "solvers", "fdnosic", "fdsic", "assignment", "model"
    }
    # Uninstalled wrappers record nothing more.
    n = len(tracer.spans)
    fig4a.run(5)
    assert len(tracer.spans) == n


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans.extend([
        ["sim.build_rate_tables", 0.0, 10.0, -1, 0],
        ["solvers.solve_all", 1.0, 4.0, 0, 0],
        ["solvers.solve_all", 5.0, 9.0, 0, 0],
    ])
    metrics = tracer.layer_metrics(n_ops=2, n_setup=0)
    assert metrics["sim.build_rate_tables.self_ms"][0] == pytest.approx(3.0 / 2 * 1e3)
    assert metrics["solvers.self_ms"][0] == pytest.approx(7.0 / 2 * 1e3)


def test_traced_runs_cli_match_benchmark_json_and_repeat_counts():
    results = []
    for _ in range(2):
        proc = cli("--workload", "campaign_far_pairs", "--seed", "3", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    result = results[0]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    exact = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("ratio", "count", "calls", "calls/op")]
    exact.remove("trace.overhead_share")
    assert {n: results[0]["metrics"][n] for n in exact} == {n: results[1]["metrics"][n] for n in exact}


def test_untraced_run_cli_matches_benchmark_json():
    proc = cli("--workload", "campaign_fig4a", "--seed", "4", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == run.WARMUP_OPS + run.MIN_OPS
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "campaign_fig4a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
