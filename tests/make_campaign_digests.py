"""Write or check `data/campaign_digests.json`: bit-exact digests of seeded
campaign trials and of the solve kernel's tables.

Per trial of each config the file holds a digest of the four assigned
totals (`float.hex`) and the four selected-SIC counts, as `sim.run_trial`
returns them.  For the fig4a and far-pairs configs it also holds, per
trial, a digest of every `solvers.SchemeTable` field that
`solve_all_batch` returns for the trial's gain block in that run, so a last-bit change
in an entry the assignment does not pick shows too.  The numpy and scipy
versions and the platform that wrote the file are recorded with it (a
trial's totals and SIC counts are read at scipy's first optimal mapping, so
scipy's version matters where a table ties), and so is how many
FD-SIC pairs of the kernel-pinned trials go through the pull-in round and
how many have a split CU-cap side.

    python tests/make_campaign_digests.py          # regenerate the file
    python tests/make_campaign_digests.py --check  # list every moved trial
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import d2dpa.fdsic  # noqa: E402
from d2dpa import sim  # noqa: E402

PATH = Path(__file__).resolve().parent / "data" / "campaign_digests.json"

FAR_PAIRS = {"eta_db": -130.0, "d_max_m": 200.0, "pair_distance_law": "fixed"}

# name: (SimConfig overrides, trials, kernel digests too)
CONFIGS = {
    "fig4a": ({}, 200, True),
    "far_pairs": (FAR_PAIRS, 200, True),
    "no_rate_floor": ({"r_u_min_bps": 0.0}, 100, False),
    "tight_caps": ({"p_max_dbm": -5.0, "r_u_min_bps": 4e6}, 100, False),
    "dense": ({"d_pairs": 32, "k_users": 64}, 20, False),
}


def _digest(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _array_parts(x) -> list[str]:
    """A `SchemeTable` field as strings: arrays by dtype, shape and bytes."""
    if x is None:
        return ["none"]
    if isinstance(x, tuple):
        return ["("] + [p for v in x for p in _array_parts(v)] + [")"]
    a = np.asarray(x)
    return [f"{a.dtype.str}{a.shape}", a.tobytes().hex()]


def table_digest(tables) -> str:
    """Digest of every field of every scheme's `SchemeTable`."""
    return _digest(
        p
        for kind, table in tables.items()
        for f in dataclasses.fields(table)
        for p in [kind.name, f.name, *_array_parts(getattr(table, f.name))]
    )


def trial_digest(totals, counts) -> str:
    """Digest of one trial's four totals and four selected-SIC counts."""
    return _digest([f"{k.name}:{float(totals[k]).hex()}:{int(counts[k])}" for k in totals])


class _Recorder:
    """Records the tables `sim.run_trial` builds, and counts, over the FD-SIC
    batches it sees, the pairs that go through the pull-in round and the
    pairs whose CU-cap side is split in two pieces, by wrapping
    `sim.solve_all_batch`, `fdsic._point_tests` and `fdsic.segments`."""

    def __init__(self):
        self.tables, self.pull_in, self.split = [], 0, 0
        self._real = (sim.solve_all_batch, d2dpa.fdsic._point_tests, d2dpa.fdsic.segments)

    def __enter__(self):
        solve, tests, segs = self._real

        def solve_all_batch(*args, **kwargs):
            self.tables.append(solve(*args, **kwargs))
            return self.tables[-1]

        def point_tests(*args, **kwargs):
            ok = tests(*args, **kwargs)
            if ok.ndim > 1:  # the pull-in round: (step, segment, pair)
                self.pull_in += ok.shape[-1]
            return ok

        def segments(*args, **kwargs):
            seg = segs(*args, **kwargs)
            self.split += int(seg.has[3].sum())
            return seg

        sim.solve_all_batch = solve_all_batch
        d2dpa.fdsic._point_tests, d2dpa.fdsic.segments = point_tests, segments
        return self

    def __exit__(self, *exc):
        sim.solve_all_batch, d2dpa.fdsic._point_tests, d2dpa.fdsic.segments = self._real


def compute() -> dict:
    """Every config's digests, as the file stores them (without the header)."""
    out = {}
    for name, (overrides, trials, kernel) in CONFIGS.items():
        config = sim.SimConfig(trials=trials, **overrides)
        with _Recorder() as rec:
            campaign = [trial_digest(*sim.run_trial(config, t)) for t in range(trials)]
        out[name] = {"overrides": overrides, "campaign": campaign}
        if kernel:
            out[name].update(
                kernel=[table_digest(t) for t in rec.tables],
                pull_in_pairs=rec.pull_in,
                split_caps=rec.split,
            )
    return out


def platform_tag() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def moved_trials(stored: dict, got: dict) -> list[str]:
    """Every (config, digest kind, trial) whose digest moved, and every
    changed coverage count."""
    moved = []
    for name, want in stored["configs"].items():
        have = got.get(name, {})
        for kind in ("campaign", "kernel"):
            for t, (a, b) in enumerate(zip(want.get(kind, []), have.get(kind, []))):
                if a != b:
                    moved.append(f"{name} {kind} trial {t}")
        for count in ("pull_in_pairs", "split_caps"):
            if want.get(count) != have.get(count):
                moved.append(f"{name} {count}: {want.get(count)} -> {have.get(count)}")
    return moved


def mismatch_message(stored: dict, moved: list[str]) -> str:
    """The report of ``moved``, naming both platforms where they differ."""
    lines = [f"{len(moved)} digests moved:", *moved]
    here = platform_tag()
    if {k: stored[k] for k in here} != here:
        lines.append(
            f"The file was written with numpy {stored['numpy']} and scipy {stored['scipy']} "
            f"on {stored['platform']}; this run has numpy {here['numpy']} and scipy "
            f"{here['scipy']} on {here['platform']}. Another numpy or libm may move last "
            "bits, and another scipy may pick another of a table's optimal mappings."
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    got = compute()
    if "--check" in argv:
        stored = json.loads(PATH.read_text())
        moved = moved_trials(stored, got)
        print(mismatch_message(stored, moved) if moved else "all digests match")
        return 1 if moved else 0
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps({**platform_tag(), "configs": got}, indent=1) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
