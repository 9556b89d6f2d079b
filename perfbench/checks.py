"""Correctness checks, computed apart from the program.

Every function here takes plain numbers or arrays and returns the list
of failures it found (empty when the result is right), so the
self-tests in ``perfbench/tests`` can feed each one a corrupted result.
Nothing in this module imports the program.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# paper_cold


def closed_form_layer_cycles(
    m: int,
    n: int,
    *,
    t_rrd: int,
    t_faw_aim: int,
    t_rcd: int,
    t_rp: int,
    t_ccd: int,
    t_cmd: int,
    channels: int,
    banks: int,
    group: int,
    cols_per_row: int,
    elems_per_col: int,
) -> int:
    """Newton's refresh-free layer cycles from the Section III-F model.

    Per DRAM row in all banks: ``max(tRRD, tFAW) * (banks/group - 1) +
    tACT + col * tCCD`` with ``tACT = tRCD + tRP`` (no row double
    buffering). A layer is ``ceil(n / row)`` input chunks; each chunk
    first loads the global buffer (one GWRITE slot of ``tCMD`` per
    column) and then runs one row per tile of ``banks`` output rows of
    the largest channel's slice.
    """
    elems_per_row = elems_per_col * cols_per_row
    rows_on_channel = -(-m // channels)
    tiles = -(-rows_on_channel // banks)
    activation = max(t_rrd, t_faw_aim) * (banks // group - 1) + t_rcd + t_rp
    total = 0
    remaining = n
    while remaining > 0:
        chunk = min(remaining, elems_per_row)
        cols = -(-chunk // elems_per_col)
        total += cols * t_cmd + tiles * (activation + cols * t_ccd)
        remaining -= chunk
    return total


def closed_form_tolerance(*, t_aa: int, t_tree_drain: int, t_rcd: int, t_rp: int) -> int:
    """Cycles the per-row model may miss on a whole layer.

    The model counts steady-state rows only. A simulated layer also
    exposes its pipeline fill and drain once: the first row turnaround
    (``tRCD + tRP``), the last result read's column latency (``tAA``)
    and the adder-tree drain before it. Anything larger is a real
    disagreement: one tile too many or too few costs a whole row, the
    activation overhead plus ``cols * tCCD`` (140 cycles on DLRMs1, the
    smallest Table II layer, against a tolerance of 62).
    """
    return t_aa + t_tree_drain + t_rcd + t_rp


def check_closed_form(rows: Iterable[Tuple[str, int, int]], tolerance: int) -> List[str]:
    """``rows`` are ``(layer, simulated cycles, closed-form cycles)``."""
    return [
        f"{name}: simulated {sim} cycles, closed form {pred} (tolerance {tolerance})"
        for name, sim, pred in rows
        if abs(sim - pred) > tolerance
    ]


def check_ladder_monotonic(ladder: Sequence[Tuple[str, float]]) -> List[str]:
    """Fig. 9: the gmean speedup never decreases as an optimization is added."""
    return [
        f"Fig. 9 gmean falls from {a_name} ({a:.4f}) to {b_name} ({b:.4f})"
        for (a_name, a), (b_name, b) in zip(ladder, ladder[1:])
        if b < a
    ]


def check_newton_beats_ideal(rows: Iterable[Tuple[str, float, float]]) -> List[str]:
    """Fig. 8: ``rows`` are ``(layer, Newton speedup, Ideal Non-PIM speedup)``."""
    return [
        f"{name}: Newton {newton:.4f}x is not above Ideal Non-PIM {ideal:.4f}x"
        for name, newton, ideal in rows
        if not newton > ideal
    ]


# ---------------------------------------------------------------------------
# serve_steady


def check_serving_accounting(offered: int, completed: int, shed: int) -> List[str]:
    """Every offered request completes or is shed, and none is shed."""
    failures = []
    if completed + shed != offered:
        failures.append(f"{completed} completed + {shed} shed != {offered} offered")
    if shed:
        failures.append(f"{shed} requests shed at a load meant to shed none")
    return failures


def latency_floor_violations(latencies: Sequence[float], service_cycles: float) -> int:
    """Requests served faster than one GEMV takes (impossible)."""
    return int(np.sum(np.asarray(latencies, dtype=np.float64) < service_cycles))


def check_twin_batches(
    recorded: Sequence[Tuple[int, float]], twin_cycles: Sequence[float]
) -> List[int]:
    """Indices of batches whose replayed cycles differ from the
    per-command twin's (``recorded`` are ``(batch size, cycles)``)."""
    if len(recorded) != len(twin_cycles):
        return list(range(max(len(recorded), len(twin_cycles))))
    return [
        i
        for i, ((_, ours), theirs) in enumerate(zip(recorded, twin_cycles))
        if ours != theirs
    ]


# ---------------------------------------------------------------------------
# decode_functional


def bit_mismatches(ours: Sequence[np.ndarray], twin: Sequence[np.ndarray]) -> List[int]:
    """Steps whose outputs differ in any bit from the twin's."""
    mismatched = []
    for i in range(max(len(ours), len(twin))):
        if i >= len(ours) or i >= len(twin):
            mismatched.append(i)
            continue
        a = np.ascontiguousarray(ours[i], dtype=np.float32)
        b = np.ascontiguousarray(twin[i], dtype=np.float32)
        if a.shape != b.shape or not np.array_equal(a.view(np.uint32), b.view(np.uint32)):
            mismatched.append(i)
    return mismatched


def bf16_round(values) -> np.ndarray:
    """Round float32 values to bfloat16 (nearest, ties to even), as float64."""
    bits = np.asarray(values, dtype=np.float32).view(np.uint32).astype(np.uint64)
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000
    return rounded.astype(np.uint32).view(np.float32).astype(np.float64)


BF16_UNIT_ROUNDOFF = 2.0 ** -8
"""Unit roundoff of bfloat16 (8 significand bits, round to nearest)."""


def accumulation_terms(n: int, *, lanes: int, cols_per_row: int) -> int:
    """Roundings on the longest path from one product to the output.

    One for the bf16 product, ``log2(lanes)`` adder-tree levels, one
    latch accumulation per column access of a chunk, and one host
    accumulation per chunk (fp32, counted at bf16 precision to stay on
    the safe side).
    """
    chunks = -(-n // (lanes * cols_per_row))
    return 1 + int(math.log2(lanes)) + cols_per_row + chunks


def gemv_error_bound(matrix, vector, *, lanes: int, cols_per_row: int) -> np.ndarray:
    """Per-row bound ``gamma_k * sum_j |a_ij x_j|`` for bf16 accumulation."""
    a = bf16_round(matrix)
    x = bf16_round(vector)
    k = accumulation_terms(a.shape[1], lanes=lanes, cols_per_row=cols_per_row)
    gamma = k * BF16_UNIT_ROUNDOFF / (1.0 - k * BF16_UNIT_ROUNDOFF)
    return gamma * (np.abs(a) @ np.abs(x))


def check_gemv_sample(
    matrix, vector, output, *, lanes: int, cols_per_row: int
) -> List[str]:
    """One GEMV against float64 NumPy on the bf16-rounded operands."""
    reference = bf16_round(matrix) @ bf16_round(vector)
    bound = gemv_error_bound(matrix, vector, lanes=lanes, cols_per_row=cols_per_row)
    got = np.asarray(output, dtype=np.float64)
    if got.shape != reference.shape:
        return [f"output shape {got.shape} != reference {reference.shape}"]
    error = np.abs(got - reference)
    bad = np.flatnonzero(~(error <= bound))
    return [
        f"row {int(i)}: |{got[i]:.6g} - {reference[i]:.6g}| exceeds {bound[i]:.3g}"
        for i in bad[:3]
    ]
