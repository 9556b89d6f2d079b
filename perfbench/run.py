"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
The run builds its inputs from ``--seed``, measures whole rounds of
operations for ``--seconds`` seconds, checks the program's outputs
against computations made apart from it, and prints two JSON lines:
a detail record (machine fingerprint, speed probe, percentiles, check
figures) and, last, the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Host times are reported in reference seconds: wall seconds scaled by
the host speed that ``machine.SpeedMeter`` samples through the same
interval, so that a busier or slower host does not read as a change.
The raw wall figures stay in the detail record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and
writes the spans to ``.perfbench/spans/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
"""Fresh interpreters timed per run for ``setup_s`` (their median)."""
READY = "perfbench-setup-ready"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
"""The declared workloads and metrics; a run must print exactly these."""




def _setup_seconds(workload: str, seed: int) -> "tuple[float, float]":
    """Interpreter start to the first timed operation, in a fresh process.

    Returns the raw wall seconds and the reference seconds (the wall
    time less the child's speed samples, scaled by its measured speed).
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        for line in child.stdout:
            if line.startswith(READY):
                elapsed = time.perf_counter() - start
                speed, sampling = (float(v) for v in line.split()[1:])
                break
        else:
            elapsed = None
        child.stdout.read()
        code = child.wait(timeout=120)
    if elapsed is None or code != 0:
        raise RuntimeError(f"set-up of {workload} failed in a fresh interpreter (exit {code})")
    return elapsed, (elapsed - sampling) * speed


def _measure(workload, seconds: float) -> "tuple[list, float, float]":
    """Whole rounds until ``seconds`` have passed.

    Returns the rounds, their wall seconds, and the peak RSS after the
    first round: later rounds' memory depends on how many the host's
    speed let run (decode sessions leak their rows), the first's does not.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        outcome = workload.round()
        if outcome.attempted == 0:
            break
        if not rounds:
            first_peak = machine.peak_rss_mb()
        rounds.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    return rounds, time.perf_counter() - start, first_peak


def _percentiles(samples: list) -> dict:
    """Raw median, plus p90 when at least ten samples lie beyond it."""
    figures = {"op_samples": len(samples), "raw_op_ms_p50": statistics.median(samples)}
    if len(samples) >= 100:
        figures["raw_op_ms_p90"] = statistics.quantiles(samples, n=10)[-1]
    return figures


def _untraced(workload, seconds: float, setup: list) -> "tuple[dict, list, dict]":
    with machine.SpeedMeter() as meter:
        rounds, wall, peak = _measure(workload, seconds)
    spans = [span for r in rounds for span in r.op_spans]
    samples = [(end - start) * share * 1e3 for start, end, share in spans]
    completed = sum(r.attempted - r.failed for r in rounds)
    # Host time in reference seconds: each interval less the speed
    # samples taken in it, scaled by the speed they measured (see
    # machine.SpeedMeter); an operation by the speed during itself.
    work = wall - meter.sampling_s()
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": peak,
        "ops_per_s": completed / (work * meter.speed()),
        "op_ms_p50": statistics.median(
            meter.reference_s(start, end) * share * 1e3 for start, end, share in spans
        ),
        **workload.sim_metrics(),
    }
    detail = {
        "rounds": len(rounds),
        "measured_s": wall,
        "speed": meter.speed(),
        "speed_samples": len(meter.samples),
        "raw_ops_per_s": completed / wall,
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        **_percentiles(samples),
    }
    return metrics, rounds, detail


def _round_ms(outcome, start: float) -> float:
    """Wall milliseconds per operation of a round begun at ``start``."""
    return (time.perf_counter() - start) * 1e3 / max(outcome.attempted, 1)


def _traced(workload, seconds: float, seed: int) -> "tuple[dict, list, dict]":
    """Traced and untraced rounds in turn until ``seconds`` have passed.

    The per-layer metrics come from the traced rounds. Each traced
    round's time per operation over the untraced round after it, in the
    same warm process, is one reading of the tracing overhead; the
    metric is their median.
    """
    from tracer import DeviceLedger, Tracer, install_layers

    tracer, ledger = Tracer(), DeviceLedger()
    rounds, overheads = [], []
    outer_ns = 0  # wall time around the traced rounds, taken apart from the spans
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rounds:
        for device in workload.long_lived_devices():
            ledger.track(device, existing=True)
        install_layers(tracer, ledger)
        begin, begin_ns = time.perf_counter(), time.perf_counter_ns()
        try:
            with tracer.root():
                traced = workload.round()
        finally:
            outer_ns += time.perf_counter_ns() - begin_ns
            tracer.uninstall()
            ledger.close()
        traced_ms = _round_ms(traced, begin)
        begin = time.perf_counter()
        untraced = workload.round()
        untraced_ms = _round_ms(untraced, begin)
        if traced.attempted == 0:
            break
        rounds.append(traced)
        if untraced.attempted == 0:
            break
        rounds.append(untraced)
        overheads.append((traced_ms / untraced_ms - 1.0) * 100.0)
    totals = ledger.totals
    wall_ns = tracer.wall_ns()
    ops = sum(r.attempted for r in rounds[::2])

    def ms(layer):
        return tracer.self_ns[layer] / 1e6 / ops

    def calls(layer):
        return tracer.calls[layer] / ops

    def count(name):
        return tracer.counts[name] / ops

    def ledger_per_op(name):
        return totals[name] / ops

    named = (
        "lower", "issue", "burst", "replay", "capture", "engine", "datapath",
        "kv_store", "graph", "graph_open", "gateway", "experiments",
    )
    metrics = {
        "lower.calls": calls("lower"),
        "lower.commands": count("lower.commands"),
        "lower.self_ms": ms("lower"),
        "issue.calls": calls("issue"),
        "issue.self_ms": ms("issue"),
        "burst.calls": calls("burst"),
        "burst.commands": count("burst.commands"),
        "burst.self_ms": ms("burst"),
        "replay.hits": ledger_per_op("replay.hits"),
        "replay.misses": ledger_per_op("replay.misses"),
        "replay.commands": ledger_per_op("replay.commands"),
        "replay.self_ms": ms("replay"),
        "capture.self_ms": ms("capture"),
        "engine.gemvs": calls("engine"),
        "engine.self_ms": ms("engine"),
        "datapath.self_ms": ms("datapath"),
        "kv_store.calls": calls("kv_store"),
        "kv_store.self_ms": ms("kv_store"),
        "graph.self_ms": ms("graph"),
        "graph.open_ms": ms("graph_open"),
        "graph.fused_gemvs": 0.0,
        "graph.gemvs": 0.0,
        "gateway.self_ms": ms("gateway"),
        "gateway.batches": 0.0,
        "gateway.mean_batch": 0.0,
        "experiments.self_ms": ms("experiments"),
        "commands.total": ledger_per_op("commands.total"),
        "remainder.self_ms": (wall_ns - sum(tracer.self_ns[n] for n in named)) / 1e6 / ops,
        "trace.wall_ms": wall_ns / 1e6 / ops,
        "trace.overhead_pct": statistics.median(overheads) if overheads else 0.0,
    }
    for bucket in ("cmd_bus", "act_window", "bank", "column", "data_bus", "tree_drain", "refresh", "tail"):
        metrics[f"cycles.{bucket}"] = ledger_per_op(f"cycles.{bucket}")
    metrics.update(workload.layer_counts())
    problems = []
    # The spans telescope, so their self times always sum to the root
    # spans' durations; the timer around the rounds is taken apart from
    # them, and differs only by the root spans' own entry and exit.
    if not 0 <= outer_ns - wall_ns <= outer_ns // 100:
        problems.append(f"layer self times sum to {wall_ns} ns, the traced wall is {outer_ns} ns")
    if totals["end_cycle"] != sum(totals[k] for k in totals if k.startswith("cycles.")):
        problems.append("cycle attribution does not sum to the devices' end cycles")
    spans = ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{seed}.json"
    tracer.write(spans, {"workload": workload.name, "seed": seed, "ops": ops})
    detail = {
        "rounds": len(rounds),
        "traced_ops": ops,
        "overhead_pct_readings": overheads,
        "devices_traced": ledger.devices,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": str(spans.relative_to(ROOT)),
        "trace_problems": problems,
    }
    return metrics, rounds, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        with machine.SpeedMeter() as meter:
            WORKLOADS[args.workload](args.seed)
        print(READY, meter.speed(), meter.sampling_s(), flush=True)
        return 0

    probe_ms = machine.speed_probe_ms()
    setup = [] if args.trace else [
        _setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
    ]
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, rounds, detail = _traced(workload, args.seconds, args.seed)
        wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        metrics, rounds, detail = _untraced(workload, args.seconds, setup)
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    verdict = workload.check()
    # Failed checks mark their operations failed; a fault no operation
    # explains makes the whole run wrong.
    unexplained = verdict.unexplained + detail.pop("trace_problems", [])

    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + verdict.failed_ops
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": workload.op,
        "fingerprint": machine.fingerprint(),
        "speed_probe_ms": probe_ms,
        "setup_samples_s": {
            "raw": [raw for raw, _ in setup],
            "reference": [ref for _, ref in setup],
        },
        **detail,
        "figures": verdict.figures,
        "failures": (unexplained + verdict.failures)[:20],
    }
    print(json.dumps({"detail": record}))
    print(
        json.dumps(
            {
                "correct": not unexplained,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": wanted[name]}
                    for name in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
