import ast
import os
import pathlib
import subprocess
import sys

import d2dpa


def test_every_export_resolves():
    missing = [name for name in d2dpa.__all__ if not hasattr(d2dpa, name)]
    assert missing == []


def test_import_leaves_scipy_optimize_unloaded():
    """scipy's assignment solver is loaded on its first call, not on import."""
    home = str(pathlib.Path(d2dpa.__file__).resolve().parents[1])
    code = "import sys, d2dpa; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": home},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def _imported_names(module: str) -> set[str]:
    """Names that the d2dpa module file ``module`` imports with ``from``."""
    tree = ast.parse((pathlib.Path(d2dpa.__file__).resolve().parent / module).read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_kernel_modules_use_no_object_model_names():
    """`fdsic` and `fdnosic` hold array code only: turning their arrays into
    `PaSolution`s and the like is `solvers`' job."""
    model_names = {
        "ChannelGains", "PaSolution", "PowerTriplet", "Scenario", "ScenarioKind",
        "DecodingOrder", "gain_block",
    }
    for module in ("fdsic.py", "fdnosic.py"):
        assert not _imported_names(module) & model_names, module


def test_campaigns_total_tables_through_first_optimum():
    """`sim` imports no assignment solver: the rule that a table's total is
    its sum over scipy's first optimal mapping lives in
    `assignment.first_optimum` alone."""
    imported = _imported_names("sim.py")
    assert "linear_sum_assignment" not in imported
    assert "first_optimum" in imported
