"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 benchmarks/e2e/compare.py A/ B/

Each directory holds the saved output of ``--trace 0`` runs, one file per
run, named ``<workload>.<anything>`` (for example ``static_fast.s3.out``);
the last line of each file is the run's result JSON.  For every workload
and every end-to-end metric of ``BENCHMARK.json`` the script prints each
set's median and quartiles, their spread (quartile distance over median),
the ratio of B's median to A's, and a verdict:

* ``within bound``: B is no worse than A by more than the metric's bound;
* ``worse``: B is worse than A by more than the bound;
* ``unresolved``: a set's spread is wider than the bound, so the runs cannot
  tell, unless every run of B reads better than every run of A.

Exits 1 when any verdict is not ``within bound``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one value per run file."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        workload = path.name.split(".", 1)[0]
        result = json.loads(path.read_text().strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            runs[workload][metric].append(float(entry["value"]))
    return runs


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> str:
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    every_run_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
    if every_run_better:
        return "within bound"
    if (a3 - a1) / abs(a2) > bound or (b3 - b1) / abs(b2) > bound:
        return "unresolved"
    worsening = (b2 - a2) / abs(a2) if lower_is_better else (a2 - b2) / abs(a2)
    return "worse" if worsening > bound else "within bound"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="directory of the base runs")
    parser.add_argument("b", type=Path, help="directory of the runs to judge")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    print(
        f"{'workload':<20} {'metric':<16} {'A median [q1, q3]':>30} {'spread':>7} "
        f"{'B median [q1, q3]':>30} {'spread':>7} {'B/A':>7}  verdict"
    )
    failures = 0
    for workload in sorted(set(a_runs) | set(b_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_runs[workload][name], b_runs[workload][name]
            if not a or not b:
                print(f"{workload:<20} {name:<16} missing from {'A' if not a else 'B'}")
                failures += 1
                continue
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:>10.4g} [{q1:.4g}, {q3:.4g}]".rjust(30))
                cells.append(f"{(q3 - q1) / abs(q2):>7.3f}")
            ratio = quartiles(b)[1] / quartiles(a)[1]
            outcome = verdict(a, b, metric["bound"], metric["better"] == "lower")
            failures += outcome != "within bound"
            print(f"{workload:<20} {name:<16} {' '.join(cells)} {ratio:>7.3f}  {outcome}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
