import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import d2dpa
from d2dpa.cli import main
from d2dpa.sim import SCENARIOS, SimConfig, run_campaign
from d2dpa.solvers import solve_all


INSTANCE = """
# one D2D-CU combination
h_d = 2.5e-7
h_b_d1 = 4.0e-9
h_b_d2 = 6.0e-9
h_d1_u = 8.0e-8
h_d2_u = 5.0e-8
h_b_u = 3.0e-10
bandwidth_hz = 312500
noise_dbm = -119
eta1_db = -110
eta2_db = -110
r_u_min_mbps = 1.5
p1_max_dbm = 24
p2_max_dbm = 24
pu_max_dbm = 24
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(INSTANCE)
    return str(path)


class TestSolve:
    def test_outputs_match_library(self, instance_file, capsys):
        assert main(["solve", instance_file]) == 0
        out = capsys.readouterr().out
        from d2dpa.cli import _load_instance

        gains, params, limits = _load_instance(instance_file)
        solutions = solve_all(gains, params, limits)
        for kind in SCENARIOS:
            block = out.split(f"== {kind.value} ==")[1].split("==")[0]
            m = re.search(r"R_D2D: ([0-9.]+) Mbps", block)
            assert m, block
            assert float(m.group(1)) == pytest.approx(
                solutions[kind].r_d2d_bps / 1e6, abs=1e-4
            )

    def test_unknown_key_rejected_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("h_d = 1e-6\nbogus_key = 3\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err
        assert ":2:" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("h_d 1e-6\n")
        assert main(["solve", str(path)]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_missing_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "partial.txt"
        path.write_text("h_d = 1e-6\n")
        assert main(["solve", str(path)]) == 1
        assert "missing required" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("h_d = 1e-6\nh_d = 2e-6\n")
        assert main(["solve", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "noise_dbm = nan",
            "bandwidth_hz = nan",
            "p1_max_dbm = inf",
            "pu_max_dbm = -inf",
            "r_u_min_mbps = inf",
            "eta1_db = nan",
            "h_d = nan",
            "p2_max_dbm = 1e10",
        ],
    )
    def test_non_finite_value_exits_1(self, tmp_path, capsys, line):
        key = line.split(" =")[0]
        path = tmp_path / "bad.txt"
        path.write_text(re.sub(rf"^{key} = .*$", line, INSTANCE, flags=re.M))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "R_D2D" not in captured.out

    def test_overflowing_rate_exits_1(self, tmp_path, capsys):
        """A gain so large that the D2D rate overflows is an error, not an
        infinite rate."""
        path = tmp_path / "huge.txt"
        path.write_text(INSTANCE.replace("h_d = 2.5e-7", "h_d = 1e308"))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert "fd_nosic: D2D rate inf" in captured.err
        assert "R_D2D" not in captured.out

    def test_overflowing_rate_prints_only_the_error(self, tmp_path):
        """Run as a program, the overflowing instance prints the error line
        and no numpy warning above it."""
        path = tmp_path / "huge.txt"
        path.write_text(INSTANCE.replace("h_d = 2.5e-7", "h_d = 1e308"))
        src = str(Path(d2dpa.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "d2dpa", "solve", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: fd_nosic: D2D rate inf")

    def test_infeasible_instance_exits_2(self, tmp_path):
        path = tmp_path / "infeasible.txt"
        path.write_text(
            INSTANCE.replace("h_b_u = 3.0e-10", "h_b_u = 1.0e-16").replace(
                "pu_max_dbm = 24", "pu_max_dbm = -60"
            )
        )
        assert main(["solve", str(path)]) == 2


SWEEP_CONFIG = """
k_users = 4
d_pairs = 2
d_max_m = 100
r_u_min_mbps = 1.5
trials = 2
master_seed = 11
eta_db = -130, -110, -90
"""


class TestSweep:
    def test_row_count_and_determinism(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        rows = list(csv.reader(out1.read_text().splitlines()))
        assert len(rows) == 1 + 3 * 4  # header + values x scenarios

    def test_six_point_sweep_yields_24_rows(self, tmp_path):
        config = tmp_path / "sweep6.cfg"
        config.write_text(
            "k_users = 3\nd_pairs = 1\ntrials = 1\nmaster_seed = 4\n"
            "eta_db = -130, -120, -110, -100, -90, -80\n"
        )
        out = tmp_path / "six.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + 6 * 4

    def test_csv_round_trip_at_printed_precision(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for eta in (-130.0, -110.0, -90.0):
            cfg = SimConfig(
                k_users=4, d_pairs=2, d_max_m=100.0, r_u_min_bps=1.5e6,
                eta_db=eta, trials=2, master_seed=11,
            )
            result = run_campaign(cfg)
            for kind in SCENARIOS:
                row = next(
                    r
                    for r in rows
                    if r["scenario"] == kind.value and float(r["sweep_value"]) == eta
                )
                assert row["sweep_param"] == "eta_db"
                assert float(row["mean_total_bps"]) == pytest.approx(
                    result.mean_total_bps(kind), rel=1e-8
                )
                assert f"{float(row['mean_total_bps']):.9g}" == row["mean_total_bps"]
                assert int(row["trials"]) == 2
                assert int(row["seed"]) == 11

    def test_requires_exactly_one_sweep_axis(self, tmp_path, capsys):
        config = tmp_path / "none.cfg"
        config.write_text("k_users = 4\nd_pairs = 2\ntrials = 1\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        assert "sweep axis" in capsys.readouterr().err
        config2 = tmp_path / "two.cfg"
        config2.write_text("eta_db = -130,-110\nd_max_m = 20,100\ntrials = 1\n")
        assert main(["sweep", "--config", str(config2), "--out", str(tmp_path / "y.csv")]) == 1

    def test_rejects_non_sweepable_list(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("trials = 1, 2\neta_db = -110\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "z.csv")]) == 1
        assert "cannot be swept" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 7\neta_db = -130,-110\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "z.csv")]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["noise_dbm = nan\neta_db = -130,-110\n", "k_users = inf\neta_db = -130,-110\n",
         "eta_db = -130,nan\n"],
    )
    def test_non_finite_value_exits_1(self, tmp_path, capsys, text):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "text, message",
        [
            ("eta_db = -110, 5\n", "eta1 must lie in"),
            ("noise_dbm = -4000\neta_db = -130,-110\n", "noise_dbm must be finite"),
            ("r_u_min_mbps = 1.5, 1e6\n", "r_u_min_bps must be >= 0 and below"),
            ("total_bandwidth_mhz = 1e300\neta_db = -130,-110\n", "total_bandwidth_mhz must be"),
        ],
    )
    def test_invalid_derived_parameters_exit_1_before_any_campaign(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "bad.cfg"
        config.write_text("k_users = 4\nd_pairs = 2\ntrials = 1\n" + text)
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1_before_any_campaign(self, tmp_path, capsys, monkeypatch):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG)
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--seed", "-1"]) == 1
        assert "master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_1_before_any_campaign(self, tmp_path, capsys, monkeypatch):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG)
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_zero_pair_distance_exits_1_before_any_campaign(self, tmp_path, capsys, monkeypatch):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "zero.cfg"
        config.write_text("k_users = 4\nd_pairs = 2\ntrials = 1\nd_max_m = 50, 0\n")
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert "d_max_m must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_distance_beyond_cell_radius_exits_1_before_any_campaign(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "far.cfg"
        config.write_text(
            "k_users = 4\nd_pairs = 2\ntrials = 1\npair_distance_law = fixed\n"
            "d_max_m = 100, 700\n"
        )
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert "d_max_m must be <= cell_radius_m" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("k_users = 20.5\neta_db = -130,-110\n", "k_users"),
            ("trials = 2.5\neta_db = -130,-110\n", "trials"),
            ("master_seed = 1.5\neta_db = -130,-110\n", "master_seed"),
            ("n_channels = 64.25\neta_db = -130,-110\n", "n_channels"),
            ("k_users = 8\nd_pairs = 2, 2.5\n", "d_pairs"),
            ("k_users = 4, 4.5\nd_pairs = 1\n", "k_users"),
        ],
    )
    def test_non_integral_count_exits_1_before_any_campaign(
        self, tmp_path, capsys, monkeypatch, text, key
    ):
        def no_campaign(config):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr("d2dpa.cli.run_campaign", no_campaign)
        config = tmp_path / "frac.cfg"
        config.write_text(text)
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert f"key {key!r} needs an integer" in capsys.readouterr().err
        assert not out.exists()


VERIFY_GOLDEN = """\
instances: 40   comparisons: 123
  fd_nosic: worst (grid - solver) gap = -2.822261e+02 bit/s
  fd_sic: worst (grid - solver) gap = -1.594962e+02 bit/s
  hd_nosic: worst (grid - solver) gap = -4.948489e+02 bit/s
  hd_sic: worst (grid - solver) gap = 0.000000e+00 bit/s
violations: 0
"""


class TestVerify:
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_a_usage_error(self, capsys, count):
        """An empty run compares nothing, so it cannot report a pass."""
        assert main(["verify", "--count", count, "--seed", "1", "--grid-n", "20"]) == 1
        captured = capsys.readouterr()
        assert f"--count must be >= 1, got {count}" in captured.err
        assert "violations" not in captured.out

    def test_two_point_grid_is_vacuous(self, capsys):
        # the coarsest possible grid makes the per-cell tolerance huge
        assert main(["verify", "--count", "5", "--seed", "2", "--grid-n", "2"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_small_run_passes(self, capsys):
        assert main(["verify", "--count", "6", "--seed", "3", "--grid-n", "40"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_output_is_pinned(self, capsys):
        """Instances, comparison count and every scheme's worst gap, FD-SIC
        orders included, as the oracle and solvers gave them when pinned."""
        assert main(["verify", "--count", "40", "--seed", "3", "--grid-n", "40"]) == 0
        assert capsys.readouterr().out == VERIFY_GOLDEN

    def test_scenario_filter(self, capsys):
        assert (
            main(["verify", "--count", "4", "--seed", "3", "--grid-n", "30",
                  "--scenario", "hd_sic"]) == 0
        )


class TestAssign:
    def test_assignment_output(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("2.0,1.0\n1.0,2.0\n")
        assert main(["assign", "--table", str(table)]) == 0
        out = capsys.readouterr().out
        assert "pair 0 -> cu 0" in out
        assert "pair 1 -> cu 1" in out
        assert "total 4 bit/s" in out

    def test_rejects_overloaded_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1.0\n2.0\n")
        assert main(["assign", "--table", str(table)]) == 1
        assert "more D2D rows" in capsys.readouterr().err

    def test_rejects_non_finite_rate(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1.0,nan\n2.0,0.5\n")
        assert main(["assign", "--table", str(table)]) == 1
        assert "rate table entry (0, 1) must be finite, got nan" in capsys.readouterr().err

    def test_rejects_overflowing_total(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1e308,1e308\n1e308,1e308\n")
        assert main(["assign", "--table", str(table)]) == 1
        captured = capsys.readouterr()
        assert "rate table entries too large" in captured.err
        assert captured.out == ""

    def test_rejects_overflowing_range(self, tmp_path, capsys):
        """A row that mixes signs near the float limit exits 1 with the
        range named, and no overflow warning on the way."""
        table = tmp_path / "table.csv"
        table.write_text("1e308,-1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["assign", "--table", str(table)]) == 1
        captured = capsys.readouterr()
        assert "the range (largest entry minus smallest) is inf" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows",
        ["0.6e308,-0.6e308,0\n-0.6e308,0.6e308,0.6e308\n", "0.8e308,-0.8e308\n-0.8e308,0.8e308\n"],
    )
    def test_assigns_tables_near_the_float_limit(self, tmp_path, capsys, rows):
        """Tables whose range is finite but over half the float maximum,
        where sums of two slacks overflow, are assigned (pair 0 to CU 0,
        pair 1 to CU 1) with no overflow warning."""
        table = tmp_path / "table.csv"
        table.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["assign", "--table", str(table)]) == 0
        out = capsys.readouterr().out
        assert "pair 0 -> cu 0 " in out
        assert "pair 1 -> cu 1 " in out

    def test_rejects_ragged_rows(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1.0,2.0\n3.0\n")
        assert main(["assign", "--table", str(table)]) == 1
        assert "ragged" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["no-such-command"]) == 1
