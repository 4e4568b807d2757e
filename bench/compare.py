"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python bench/compare.py A.json B.json

``A.json`` (the parent) and ``B.json`` (the change) are files written by
``bench/run.py --workload all --runs N --out FILE``. For every end-to-end
metric and workload it prints each side's median and quartiles and a
verdict:

* ``worse`` - B's median is worse than A's by more than the metric's bound;
* ``unresolved`` - A's own spread (its interquartile range over its median)
  is wider than the bound, so a change within it cannot be told from noise,
  unless every run of B reads better than every run of A;
* ``within bound`` - otherwise.

Exits with status 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    if (q3 - q1) / abs(med_a) > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "within bound" if all_better else "unresolved"
    worse_by = sign * (med_b - med_a) / abs(med_a)
    return "worse" if worse_by > bound else "within bound"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def compare(path_a: str, path_b: str) -> list[tuple[str, str, str]]:
    """Print the comparison table; return ``(workload, metric, verdict)`` rows."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(path_a), load(path_b)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<15} {'metric':<12} {'A q1 / median / q3':>32} "
          f"{'B q1 / median / q3':>32}  verdict")
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], metric["better"], metric["bound"])
            qa, qb = quartiles(a[key]), quartiles(b[key])
            print(
                f"{workload:<15} {metric['name']:<12} "
                f"{' / '.join(f'{v:.4g}' for v in qa):>32} "
                f"{' / '.join(f'{v:.4g}' for v in qb):>32}  {result}"
            )
            rows.append((workload, metric["name"], result))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    return 1 if any(result == "worse" for _, _, result in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
