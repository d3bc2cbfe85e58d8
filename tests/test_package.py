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
