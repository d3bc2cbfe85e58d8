"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by run.py (perfbench/runs/*.json).
For every workload, trace mode and metric found on both sides this prints
each side's median and quartiles over its runs and the change of the median.
Results whose two sides ran different kernel backends are refused (exit 2):
the compiled no-SIC kernel alone roughly halves the trial time.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BACKEND_KEYS = ("backend", "D2DPA_PURE")


def load(directory: str):
    runs = defaultdict(list)
    backends = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("correct"):
            raise SystemExit(f"{path}: run was not correct; compare only correct runs")
        runs[(record["workload"], record["trace"])].append(record["metrics"])
        backends.add(tuple(record["env"].get(k) for k in BACKEND_KEYS))
    return runs, backends


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(before_dir: str, after_dir: str) -> int:
    before, b_backends = load(before_dir)
    after, a_backends = load(after_dir)
    if len(b_backends | a_backends) != 1:
        print(f"refused: backends differ ({', '.join(BACKEND_KEYS)}): "
              f"before {sorted(b_backends)}, after {sorted(a_backends)}", file=sys.stderr)
        return 2
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(before[key])} runs before, {len(after[key])} after")
        names = [n for n in before[key][0] if all(n in m for m in before[key] + after[key])]
        for name in names:
            b = quartiles([m[name]["value"] for m in before[key]])
            a = quartiles([m[name]["value"] for m in after[key]])
            change = (a[1] / b[1] - 1.0) * 100.0 if b[1] else float("nan")
            print(f"  {name:40s} {b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}] -> "
                  f"{a[1]:12.5g} [{a[0]:.5g}, {a[2]:.5g}]  {change:+7.2f}% {before[key][0][name]['unit']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
