"""The compare command's verdicts and its refusal to mix run modes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json

import compare

LOWER = {"name": "op_ms_p50", "better": "lower", "bound": 0.1}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
NOISY = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]


def test_a_steady_base_and_an_in_bound_change_read_ok():
    assert compare.verdict(LOWER, STEADY, [v * 1.05 for v in STEADY]) == "ok"


def test_a_steady_base_and_a_change_past_the_bound_read_worse():
    assert compare.verdict(LOWER, STEADY, [v * 1.2 for v in STEADY]) == "WORSE"
    assert compare.verdict(HIGHER, STEADY, [v * 0.8 for v in STEADY]) == "WORSE"


def test_a_noisy_base_leaves_an_in_bound_change_unresolved():
    assert compare.spread(NOISY) > LOWER["bound"]
    assert compare.verdict(LOWER, NOISY, [v * 1.01 for v in NOISY]) == "unresolved"


def test_a_noisy_base_and_a_change_that_beats_every_run_read_ok():
    assert compare.verdict(LOWER, NOISY, [50.0] * 10) == "ok"


def _run_file(path, seconds, trace):
    detail = {"workload": "serve_steady", "seed": 1, "seconds": seconds, "trace": trace}
    result = {"correct": True, "attempted": 200, "failed": 0,
              "metrics": {"op_ms_p50": {"value": 9.3, "unit": "ms"}}}
    path.write_text(json.dumps({"detail": detail}) + "\n" + json.dumps(result) + "\n")


def test_sets_of_different_run_lengths_are_refused(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _run_file(tmp_path / "a" / "run.txt", 25, 0)
    _run_file(tmp_path / "b" / "run.txt", 10, 0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    _run_file(tmp_path / "b" / "run.txt", 25, 0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
