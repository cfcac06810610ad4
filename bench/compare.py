"""Compare two sets of benchmark results metric by metric.

    python bench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a ``bench/run.py --out`` document, of one workload or
several.  Run the two commits alternately so that the ``i``-th base and
change results of a workload form a pair.  For every
workload and end-to-end metric the table shows each side's median and
quartiles, the share of pairs the change wins (ties count for neither)
and a verdict:

* ``gain`` - the change wins at least 9 in 10 pairs and the medians
  differ by more than the base's interquartile range;
* ``unresolved`` - a side's interquartile range is wider than the
  metric's bound, unless every change run beats every base run;
* ``regression`` - the change's median is worse than the base's by more
  than the bound in ``BENCHMARK.json``;
* ``no regression`` - otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], *, better: str, bound: float) -> tuple:
    """``(verdict, wins, pairs)`` under the rule in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c2 - b2) > b3 - b1:
        return "gain", wins, len(pairs)
    spread = max((b3 - b1) / abs(b2) if b2 else 0.0, (c3 - c1) / abs(c2) if c2 else 0.0)
    if spread > bound:
        every_run_better = (
            min(change) > max(base) if better == "higher" else max(change) < min(base)
        )
        return ("no regression" if every_run_better else "unresolved"), wins, len(pairs)
    worse = -sign * (c2 - b2) / abs(b2) if b2 else 0.0
    return ("regression" if worse > bound else "no regression"), wins, len(pairs)


def summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    declared = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base, change = load(args.base), load(args.change)
    workloads = [w for w in WORKLOADS if any(w in run for run in base + change)]
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>7}  verdict")
    regressions = 0
    for workload in workloads:
        for metric in declared:
            name = metric["name"]
            b = [run[workload]["end_to_end"][name]["value"] for run in base if workload in run]
            c = [run[workload]["end_to_end"][name]["value"] for run in change if workload in run]
            if not b or not c:
                continue
            result, wins, pairs = verdict(b, c, better=metric["better"], bound=metric["bound"])
            regressions += result == "regression"
            print(f"{workload:<14} {name:<16} {summary(b):>30} {summary(c):>30} "
                  f"{wins:>3}/{pairs:<3}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
