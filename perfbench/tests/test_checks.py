"""Each correctness check must fail when fed a corrupted result.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parents[2]

# Table III-compatible timing and the Section V evaluation geometry.
TIMING = dict(t_rrd=4, t_faw_aim=16, t_rcd=14, t_rp=14, t_ccd=4, t_cmd=4)
GEOMETRY = dict(channels=24, banks=16, group=4, cols_per_row=32, elems_per_col=16)
TOLERANCE = checks.closed_form_tolerance(t_aa=25, t_tree_drain=9, t_rcd=14, t_rp=14)

# Fig. 9 as the simulator reproduces it (gmean speedup over the GPU).
LADDER = [
    ("non-opt", 1.61),
    ("+gang", 15.95),
    ("+complex", 28.31),
    ("+reuse", 37.20),
    ("+four-bank", 39.54),
    ("+tFAW (Newton)", 47.99),
]


def flip_bit(values: np.ndarray, index: int, bit: int) -> np.ndarray:
    flipped = np.array(values, dtype=np.float32)
    flipped.view(np.uint32)[index] ^= np.uint32(1 << bit)
    return flipped


# -- paper_cold ---------------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, expected",
    # (layer shape, the closed form's cycles; the simulator measures
    # 4759, 9493, 1495, 5905, 47029, 5413 and 364 refresh-off)
    [(4096, 1024, 4744), (4096, 2048, 9488), (1024, 1024, 1480), (1024, 4096, 5920),
     (21632, 2048, 47024), (2048, 2048, 5408), (512, 256, 344)],
)
def test_closed_form_matches_table_ii(m, n, expected):
    assert checks.closed_form_layer_cycles(m, n, **TIMING, **GEOMETRY) == expected


def test_closed_form_accepts_the_simulated_cycles():
    rows = [("GNMTs1", 4759, 4744), ("BERTs1", 1495, 1480), ("DLRMs1", 364, 344)]
    assert checks.check_closed_form(rows, TOLERANCE) == []


def test_closed_form_rejects_a_missing_tile():
    # One DLRMs1 tile: tFAW * 3 activation stagger + tRCD + tRP + 16 * tCCD.
    one_tile = 16 * 3 + 28 + 16 * 4
    assert checks.check_closed_form([("DLRMs1", 364 - one_tile, 344)], TOLERANCE)


def test_ladder_in_order_passes():
    assert checks.check_ladder_monotonic(LADDER) == []


def test_ladder_with_two_steps_swapped_fails():
    swapped = list(LADDER)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert checks.check_ladder_monotonic(swapped)


def test_newton_must_beat_ideal_on_every_layer():
    assert checks.check_newton_beats_ideal([("AlexNetL7", 48.0, 5.4)]) == []
    assert checks.check_newton_beats_ideal([("AlexNetL7", 48.0, 5.4), ("DLRMs1", 5.0, 5.4)])


# -- serve_steady ---------------------------------------------------------------


def test_accounting_with_nothing_shed_passes():
    assert checks.check_serving_accounting(200, 200, 0) == []


def test_a_shed_request_fails():
    assert checks.check_serving_accounting(200, 199, 1)


def test_a_lost_request_fails():
    assert checks.check_serving_accounting(200, 199, 0)


def test_latency_below_one_gemv_is_flagged():
    assert checks.latency_floor_violations([124330.0, 300000.0], 124330.0) == 0
    assert checks.latency_floor_violations([124329.0, 300000.0], 124330.0) == 1


def test_replayed_batches_equal_to_the_twin_pass():
    recorded = [(2, 249658.0), (1, 124829.0)]
    assert checks.check_twin_batches(recorded, [249658.0, 124829.0]) == []


def test_a_replayed_batch_one_cycle_off_fails():
    recorded = [(2, 249658.0), (1, 124830.0)]
    assert checks.check_twin_batches(recorded, [249658.0, 124829.0]) == [1]


# -- decode_functional ----------------------------------------------------------


def _gemv(seed: int = 3):
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((64, 512)) / np.sqrt(512)).astype(np.float32)
    vector = rng.standard_normal(512).astype(np.float32)
    output = (checks.bf16_round(matrix) @ checks.bf16_round(vector)).astype(np.float32)
    return matrix, vector, output


def test_identical_steps_pass():
    steps = [np.linspace(-1, 1, 8, dtype=np.float32) for _ in range(3)]
    assert checks.bit_mismatches(steps, [s.copy() for s in steps]) == []


def test_one_flipped_output_bit_fails_the_twin_check():
    steps = [np.linspace(-1, 1, 8, dtype=np.float32) for _ in range(3)]
    corrupted = [s.copy() for s in steps]
    corrupted[1] = flip_bit(corrupted[1], 5, 0)
    assert checks.bit_mismatches(corrupted, steps) == [1]


def test_bf16_round_matches_round_to_nearest_even():
    values = np.array([1.0, 1.00390625, 1.005859375, -3.0e-3], dtype=np.float32)
    rounded = checks.bf16_round(values)
    assert rounded[0] == 1.0
    assert rounded[1] == 1.0  # a tie rounds to the even significand
    assert rounded[2] == 1.0078125
    assert abs(rounded[3] - -3.0e-3) <= 3.0e-3 * 2.0 ** -8


def test_gemv_within_the_bf16_bound_passes():
    matrix, vector, output = _gemv()
    assert checks.check_gemv_sample(matrix, vector, output, lanes=16, cols_per_row=32) == []


def test_gemv_with_a_flipped_exponent_bit_fails():
    matrix, vector, output = _gemv()
    corrupted = flip_bit(output, 7, 30)
    assert checks.check_gemv_sample(matrix, vector, corrupted, lanes=16, cols_per_row=32)


# -- the command itself -------------------------------------------------------------


def test_run_fails_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "paper_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
