"""Write the stored reference outputs of the campaign workloads.

For every single-trial campaign of the pool (master seeds 1..POOL) this
records each scheme's assigned total and selected-SIC count.  The reference
is the program's own output at the commit that defined the benchmark; it is
rewritten only when a change means to alter results, and that change says so.

    python3 perfbench/make_reference.py campaign_fig4a campaign_far_pairs
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets single-threaded BLAS first)

run.import_program()
import workloads  # noqa: E402


def main(names: list[str]) -> None:
    for name in names:
        workload = workloads.make(name)
        trials = []
        schemes = None
        for master_seed in range(1, workloads.POOL + 1):
            summary = workload.summary(workload.run(master_seed))
            schemes = schemes or list(summary)
            trials.append([[float(f"{t:.15g}"), s] for t, s in (summary[k] for k in schemes)])
        out = {
            "workload": name,
            "config": {k: v for k, v in vars(workload.config).items() if k != "master_seed"},
            "pool": f"run_campaign with trials=1 and master_seed 1..{workloads.POOL}, in order",
            "schemes": schemes,
            "trials": trials,
        }
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, separators=(",", ":")) + "\n")
        print(f"wrote {path} ({len(trials)} trials)")


if __name__ == "__main__":
    main(sys.argv[1:] or ["campaign_fig4a", "campaign_far_pairs"])
