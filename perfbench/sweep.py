"""Run the benchmark over several seeds, interleaving the workloads.

    python3 perfbench/sweep.py --label base --seeds 1-10 [--workloads a,b] [--trace 0]

Runs ``run.py`` once per (seed, workload), one after another, for
``BENCHMARK.json``'s ``run_seconds``, with the workloads interleaved
inside each seed so that a drift in the host's speed spreads over all
of them. Each run's output goes to
``.perfbench/results/<label>/<workload>-seed<seed>-trace<t>.txt``;
the summary of ``compare.py`` follows. Compare two labels with
``python3 perfbench/compare.py .perfbench/results/A .perfbench/results/B``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = ROOT / ".perfbench" / "results" / args.label
    out.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            path = out / f"{workload}-seed{seed}-trace{args.trace}.txt"
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            with path.open("w") as handle:
                code = subprocess.run(command, cwd=ROOT, stdout=handle).returncode
            print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
            if code != 0:
                return code
    return compare.main([str(out)])


if __name__ == "__main__":
    sys.exit(main())
