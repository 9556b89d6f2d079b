"""Summarize and compare sets of benchmark results.

    python3 perfbench/compare.py RESULTS              # one set: spreads
    python3 perfbench/compare.py BASE CHANGE          # two sets: verdicts

``RESULTS``, ``BASE`` and ``CHANGE`` are directories of captured
``run.py`` outputs (one file per run, as ``sweep.py`` writes them) or
single such files. For every workload and metric the command prints
each side's median and quartiles and the spread (quartile distance over
the median). With two sets it also prints the change of the median and
whether it stays within the metric's bound from ``BENCHMARK.json``:

* ``ok`` -- no worse than the bound;
* ``WORSE`` -- worse than the bound;
* ``unresolved`` -- the base's own spread exceeds the bound, and not
  every change run beats every base run.

It exits 1 when any metric is ``WORSE`` or any run is incorrect, and
when the share of failed operations differs between the two sets. It
refuses (exit 2) to put together runs of different lengths or trace
modes.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_run(path: Path) -> dict:
    """One run's detail record and result (its last two JSON lines)."""
    detail, result = None, None
    for line in path.read_text().splitlines():
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    if detail is None or result is None:
        raise ValueError(f"{path}: not a run.py output")
    return {"detail": detail, **result}


def load_set(path: Path) -> List[dict]:
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    return [load_run(f) for f in files]


def quartiles(values: List[float]) -> "tuple[float, float, float]":
    """First quartile, median, third quartile (as the driver takes them)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def by_metric(runs: List[dict]) -> Dict[tuple, List[float]]:
    table: Dict[tuple, List[float]] = defaultdict(list)
    for run in runs:
        for name, metric in run["metrics"].items():
            table[(run["detail"]["workload"], name)].append(metric["value"])
    return table


def failed_share(runs: List[dict]) -> Dict[str, float]:
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for run in runs:
        entry = totals[run["detail"]["workload"]]
        entry[0] += run["failed"]
        entry[1] += run["attempted"]
    return {w: failed / attempted for w, (failed, attempted) in totals.items()}


def declared() -> Dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(metric: dict, base: List[float], change: List[float]) -> str:
    bound = metric.get("bound")
    if bound is None:
        return ""
    higher = metric["better"] == "higher"
    if spread(base) > bound:
        # The base cannot resolve a change of the bound's size; only a
        # change whose every run beats every base run reads as one.
        all_better = (min(change) > max(base)) if higher else (max(change) < min(base))
        return "ok" if all_better else "unresolved"
    base_median = quartiles(base)[1]
    change_median = quartiles(change)[1]
    worse = (base_median - change_median) if higher else (change_median - base_median)
    return "ok" if worse <= bound * abs(base_median) else "WORSE"


def _row(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:14.6g} [{q1:.6g}, {q3:.6g}] spread {spread(values):6.2%}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_set(Path(a)) for a in args]
    modes = {(r["detail"]["seconds"], r["detail"]["trace"]) for runs in sets for r in runs}
    if len(modes) > 1:
        print(f"runs differ in (seconds, trace): {sorted(modes)}", file=sys.stderr)
        return 2
    metrics = declared()
    status = 0
    for label, runs in zip(("base", "change"), sets):
        bad = [r["detail"]["workload"] for r in runs if not r["correct"]]
        if bad:
            print(f"{label}: incorrect runs on {sorted(set(bad))}")
            status = 1
    tables = [by_metric(runs) for runs in sets]
    for key in sorted(tables[0]):
        workload, name = key
        metric = metrics.get(name, {"better": "?"})
        base = tables[0][key]
        line = f"{workload:18} {name:24} n={len(base):2} {_row(base)}"
        bound = metric.get("bound")
        if bound is not None and len(sets) == 1 and name != "setup_s":
            line += "  within bound" if spread(base) <= bound else "  SPREAD > bound"
        if len(sets) == 2 and key in tables[1]:
            change = tables[1][key]
            base_median = quartiles(base)[1]
            delta = (quartiles(change)[1] - base_median) / abs(base_median) if base_median else 0.0
            outcome = verdict(metric, base, change)
            line += f"\n{'':18} {'':24} n={len(change):2} {_row(change)}  {delta:+.2%} {outcome}"
            if outcome == "WORSE":
                status = 1
        print(line)
    if len(sets) == 2:
        shares = [failed_share(runs) for runs in sets]
        for workload in sorted(shares[0]):
            a, b = shares[0][workload], shares[1].get(workload)
            if b is not None and a != b:
                print(f"{workload}: failed share {a:.6f} -> {b:.6f}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
