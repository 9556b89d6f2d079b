"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up that ``setup_s`` times), then runs whole *rounds* of one kind of
operation: a paper pass, a trace of requests, or a decode session. A
round returns the operations it attempted, those that raised a
``repro.errors`` exception, and one host-time sample per operation.
``check()`` runs once after the measured interval, outside it, and
marks the operations whose outputs are wrong.

Every workload is single-process and single-threaded: timing-only and
functional devices run inline (``channel_workers=0``).
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import checks


@dataclass
class Round:
    """One round's operations."""

    attempted: int
    failed: int = 0
    op_spans: List[Tuple[float, float, float]] = field(default_factory=list)
    """``(start, end, share)`` per operation: the operation took ``share``
    of the host interval ``[start, end)`` (``perf_counter`` seconds)."""


@dataclass
class Verdict:
    """What ``check()`` found."""

    failed_ops: int = 0
    """Operations whose outputs failed a check (counted as failed)."""
    failures: List[str] = field(default_factory=list)
    """What those operations got wrong."""
    unexplained: List[str] = field(default_factory=list)
    """Wrong outputs that belong to no measured operation."""
    figures: Dict[str, float] = field(default_factory=dict)
    """Reference figures: simulated outputs and what the checks compared."""


class Workload:
    name = ""
    op = ""
    """What one operation is, for the README and the detail line."""

    def round(self) -> Round:  # pragma: no cover - interface
        raise NotImplementedError

    def check(self) -> Verdict:  # pragma: no cover - interface
        raise NotImplementedError

    def sim_metrics(self) -> Dict[str, float]:  # pragma: no cover - interface
        """``sim_speedup_vs_ideal`` and ``sim_cycles``; identical every run."""
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer counts the workload reads from the program's results."""
        return {}

    def long_lived_devices(self) -> list:
        """Devices built in set-up that the measured rounds keep using."""
        return []


# ---------------------------------------------------------------------------


class PaperCold(Workload):
    """Fig. 8 and Fig. 9 on fresh timing-only 24-channel devices.

    The inputs are the fixed Table II catalog and the four end-to-end
    models; the seed changes nothing, because nothing here is random.
    """

    name = "paper_cold"
    op = "one Fig. 8 + Fig. 9 pass"

    def __init__(self, seed: int):
        from repro.experiments import common, fig8_speedup, fig9_ablation
        from repro.workloads.catalog import TABLE_II_LAYERS

        self.common = common
        self.fig8 = fig8_speedup
        self.fig9 = fig9_ablation
        self.layers = TABLE_II_LAYERS
        self.timing = common.eval_timing()
        self.config = common.eval_config()
        self.passes: list = []

    def round(self) -> Round:
        from repro.errors import ReproError

        start = time.perf_counter()
        try:
            # Module attributes, looked up per call, so a traced run's
            # wrappers see the calls.
            fig8 = self.fig8.run()
            fig9 = self.fig9.run()
        except ReproError:
            return Round(attempted=1, failed=1)
        self.passes.append((fig8, fig9))
        return Round(attempted=1, op_spans=[(start, time.perf_counter(), 1.0)])

    def _closed_form(self) -> List[tuple]:
        from repro.core.optimizations import FULL

        t, cfg = self.timing, self.config
        rows = []
        for layer in self.layers:
            simulated = self.common.newton_layer_cycles(layer, FULL, refresh_enabled=False)
            predicted = checks.closed_form_layer_cycles(
                layer.m,
                layer.n,
                t_rrd=t.t_rrd,
                t_faw_aim=t.t_faw_aim,
                t_rcd=t.t_rcd,
                t_rp=t.t_rp,
                t_ccd=t.t_ccd,
                t_cmd=t.t_cmd,
                channels=cfg.num_channels,
                banks=cfg.banks_per_channel,
                group=cfg.bank_group_size,
                cols_per_row=cfg.cols_per_row,
                elems_per_col=cfg.elems_per_col,
            )
            rows.append((layer.name, int(simulated), predicted))
        return rows

    def check(self) -> Verdict:
        verdict = Verdict()
        t = self.timing
        tolerance = checks.closed_form_tolerance(
            t_aa=t.t_aa, t_tree_drain=t.t_tree_drain, t_rcd=t.t_rcd, t_rp=t.t_rp
        )
        rows = self._closed_form()
        verdict.unexplained += checks.check_closed_form(rows, tolerance)
        verdict.figures["closed_form_max_abs_error_cycles"] = max(
            abs(sim - pred) for _, sim, pred in rows
        )
        first = None
        for fig8, fig9 in self.passes:
            problems = checks.check_ladder_monotonic(
                [(row.step, row.gmean_speedup) for row in fig9.rows]
            )
            problems += checks.check_newton_beats_ideal(
                [(row.name, row.newton, row.ideal) for row in fig8.layer_rows]
            )
            rendered = (fig8.render(), fig9.render())
            if first is None:
                first = rendered
            elif rendered != first:
                problems.append("a pass differs from the first (not deterministic)")
            if problems:
                verdict.failed_ops += 1
                verdict.failures += problems
        if self.passes:
            fig8, fig9 = self.passes[0]
            verdict.figures["fig8_newton_over_ideal"] = fig8.newton_over_ideal
            verdict.figures["fig8_gmean_newton_vs_gpu"] = fig8.gmean_newton
            verdict.figures["fig9_full_gmean_vs_gpu"] = fig9.rows[-1].gmean_speedup
        return verdict

    def sim_metrics(self) -> Dict[str, float]:
        fig8, _ = self.passes[0]
        gpu = self.common.make_baselines()[1]
        # Newton's per-layer cycles, back from the speedups over the GPU.
        cycles = [
            gpu.gemv_cycles(layer.m, layer.n) / row.newton
            for layer, row in zip(self.layers, fig8.layer_rows)
        ]
        return {
            "sim_speedup_vs_ideal": fig8.newton_over_ideal,
            "sim_cycles": statistics.geometric_mean(cycles),
        }


# ---------------------------------------------------------------------------


class ServeSteady(Workload):
    """The ``newton-repro serve`` path on a seeded bursty trace.

    Every round serves the same trace through a fresh gateway whose
    replicas the program's own factory builds (timing-only Newton
    devices holding AlexNetL7), so rounds repeat exactly in simulated
    time and each round's first GEMV per replica lowers its stream. At
    this load every seed scales out to the replica ceiling and none
    sheds a request.

    ``sim_cycles`` is the gateway's p99 request latency, averaged over
    ``SIM_TRACES`` seeded traces of the same kind (the first is the
    served one): one bursty trace's p99 moves by 40% from seed to seed, the
    mean of 128 by 3-8%. Those traces run through the program's
    gateway with stand-in replicas that advertise the Newton replica's
    service cycles and serve a batch of k in k times the cycles the
    Newton replicas took per GEMV in the first round, as a timing-only
    ``BackendReplica`` does (the sum of its GEMVs' cycles).
    """

    name = "serve_steady"
    op = "one request"
    LAYER = "AlexNetL7"
    REQUESTS = 200
    LOAD = 0.7
    MIN_REPLICAS = 2
    MAX_REPLICAS = 4
    WINDOW = 1.0
    MAX_BATCH = 8
    SLO = 5.0
    TWIN_GEMVS = 4
    """Budget of per-command (``fast=False``) GEMVs for the twin check."""
    SIM_TRACES = 128

    def __init__(self, seed: int):
        from repro.baselines.ideal_nonpim import IdealNonPim
        from repro.serving import (
            GatewayConfig,
            backend_replica_factory,
            default_classes,
            interarrival_for_load,
            make_trace,
        )
        from repro.workloads.catalog import layer_by_name

        layer = layer_by_name(self.LAYER)
        self.replica_kwargs = dict(m=layer.m, n=layer.n, functional=False)
        self.program_factory = backend_replica_factory("newton", **self.replica_kwargs)
        probe = self.program_factory()
        self.service = probe.service_cycles
        backend = probe.backend
        self.ideal_cycles = IdealNonPim(backend.config, backend.timing).gemv_cycles(
            layer.m, layer.n
        )
        probe.close()
        self.make_trace = functools.partial(
            make_trace,
            "bursty",
            interarrival_for_load(self.service, self.LOAD, self.MIN_REPLICAS),
            self.REQUESTS,
        )
        # The first seed's trace is served; the others only feed sim_cycles.
        self.trace_seeds = [
            int(s) for s in np.random.default_rng(seed).integers(2**31, size=self.SIM_TRACES)
        ]
        self.trace = self.make_trace(seed=self.trace_seeds[0])
        self.config = GatewayConfig(
            window_cycles=self.WINDOW * self.service,
            max_batch=self.MAX_BATCH,
            min_replicas=self.MIN_REPLICAS,
            max_replicas=self.MAX_REPLICAS,
            classes=default_classes(self.service, self.SLO),
        )
        self.rounds: list = []
        self._batches: list = []

    def _factory(self):
        """The program's factory, with each replica's batches recorded."""
        replica = self.program_factory()
        record: list = []
        self._batches.append(record)
        dispatch = replica.batch_cycles

        def recorded(batch_size: int) -> float:
            start = time.perf_counter()
            cycles = dispatch(batch_size)
            record.append((batch_size, cycles, (start, time.perf_counter())))
            return cycles

        replica.batch_cycles = recorded
        return replica

    def round(self) -> Round:
        from repro.errors import ReproError
        from repro.serving import ServingGateway

        self._batches = []
        gateway = ServingGateway(self._factory, self.config)
        try:
            result = gateway.run(self.trace)
            # (class, arrival, start, completion, batch size) per request:
            # the gateway keeps no public per-request record.
            latencies = [done - arrival for _, arrival, _, done, _ in gateway._completions]
        except ReproError:
            return Round(attempted=len(self.trace), failed=len(self.trace))
        finally:
            gateway.close()
        self.rounds.append((result, latencies, self._batches))
        # A request's host time is its share of its batch's dispatch.
        op_spans = [
            (start, end, 1.0 / size)
            for record in self._batches
            for size, _, (start, end) in record
            for _ in range(size)
        ]
        return Round(attempted=len(self.trace), op_spans=op_spans)

    def check(self) -> Verdict:
        verdict = Verdict()
        first = None
        for result, latencies, _ in self.rounds:
            problems = checks.check_serving_accounting(
                len(self.trace), result.completed, result.shed
            )
            slow = checks.latency_floor_violations(latencies, self.service)
            if slow:
                problems.append(f"{slow} requests finished faster than one GEMV")
            if first is None:
                first = result
            elif result != first:
                problems.append("a round's gateway result differs from the first")
            if problems:
                verdict.failed_ops += len(self.trace)
                verdict.failures += problems
        if self.rounds:
            verdict.failures += self._check_twin(verdict)
            result = self.rounds[0][0]
            verdict.figures.update(
                served_trace_p99_cycles=result.p99,
                # sim_cycles holds while the stand-ins serve the served
                # trace exactly as the Newton replicas did.
                stand_in_reproduces_served_trace=self._stand_in_results(self.trace_seeds[:1])[0] == result,
                sim_p50_cycles=result.p50,
                service_cycles=self.service,
                batches=result.batches,
                mean_batch=result.mean_batch,
                replicas_max=result.replicas_max,
            )
        return verdict

    def _check_twin(self, verdict: Verdict) -> List[str]:
        """Replica 0's first batches against a per-command twin."""
        from repro.serving import backend_replica_factory

        recorded = self.rounds[0][2][0]
        prefix, gemvs = [], 0
        for size, cycles, _ in recorded:
            if prefix and gemvs + size > self.TWIN_GEMVS:
                break
            prefix.append((size, cycles))
            gemvs += size
        twin = backend_replica_factory("newton", fast=False, **self.replica_kwargs)()
        try:
            twin_cycles = [twin.batch_cycles(size) for size, _ in prefix]
        finally:
            twin.close()
        bad = checks.check_twin_batches(prefix, twin_cycles)
        verdict.figures["twin_batches_checked"] = len(prefix)
        verdict.failed_ops += sum(prefix[i][0] for i in bad if i < len(prefix))
        return [f"batch {i}: replayed cycles differ from the per-command twin" for i in bad]

    def _gemv_cycles(self) -> float:
        """Newton's device cycles per served request in the first round."""
        result, _, batches = self.rounds[0]
        return sum(c for record in batches for _, c, _ in record) / result.completed

    def _stand_in_results(self, trace_seeds) -> list:
        """Gateway results on the traces of ``trace_seeds``, with stand-in replicas."""
        from repro.serving import FixedServiceReplica, ServingGateway

        gemv_cycles = self._gemv_cycles()

        class StandIn(FixedServiceReplica):
            def batch_cycles(self, batch_size: int) -> float:
                return gemv_cycles * batch_size

        results = []
        for seed in trace_seeds:
            gateway = ServingGateway(lambda: StandIn(self.service), self.config)
            try:
                results.append(gateway.run(self.make_trace(seed=seed)))
            finally:
                gateway.close()
        return results

    def sim_metrics(self) -> Dict[str, float]:
        results = self._stand_in_results(self.trace_seeds)
        return {
            "sim_speedup_vs_ideal": self.ideal_cycles / self._gemv_cycles(),
            "sim_cycles": statistics.fmean(r.p99 for r in results),
        }

    def layer_counts(self) -> Dict[str, float]:
        results = [r for r, _, _ in self.rounds]
        requests = sum(r.completed for r in results) or 1
        return {
            "gateway.batches": sum(r.batches for r in results) / requests,
            "gateway.mean_batch": statistics.fmean(r.mean_batch for r in results),
        }


# ---------------------------------------------------------------------------


class DecodeFunctional(Workload):
    """Fused decode sessions on one long-lived functional backend.

    Sessions use a session seed drawn from the run's seed and open one
    after another, and each decodes its whole KV window,
    one step after the other (a closed loop). At most ``MAX_SESSIONS``
    open per run, far below the 126 at which the backend's row
    allocator runs out.
    """

    name = "decode_functional"
    op = "one decode step"
    D = 256
    BLOCKS = 2
    WINDOW = 32
    WARMUP_STEPS = 2
    MAX_SESSIONS = 64
    SAMPLED_CALLS = (0, 15)
    """GEMV calls of each step checked against float64 (first and last)."""

    def __init__(self, seed: int):
        from repro.backends import make_backend
        from repro.baselines.ideal_nonpim import IdealNonPim
        from repro.workloads.scenarios import scenario_model

        self.spec = scenario_model("decode", d=self.D, blocks=self.BLOCKS, window=self.WINDOW)
        rng = np.random.default_rng(seed)
        self.session_seed = int(rng.integers(2**31))
        self.backend = make_backend("newton", functional=True, channel_workers=0)
        config, timing = self.backend.config, self.backend.timing
        self.lanes = config.mults_per_bank
        self.cols_per_row = config.cols_per_row
        # GEMV call order within a step: (layer index, m, n) per call.
        self.calls = []
        for index, layer in enumerate(self.spec.layers):
            if layer.kind == "attention":
                self.calls += [(index, layer.window, layer.n), (index, layer.n, layer.window)]
            else:
                self.calls.append((index, layer.m, layer.n))
        ideal = IdealNonPim(config, timing)
        self.ideal_step_cycles = sum(ideal.gemv_cycles(m, n) for _, m, n in self.calls)
        # Warm-up: the first step fills the replay cache.
        warm = self.backend.open_session(self.spec, fused=True, seed=int(rng.integers(2**31)))
        try:
            warm.run_steps(self.WARMUP_STEPS)
        finally:
            warm.close()
        self.sessions: list = []
        self.samples: list = []

    def long_lived_devices(self) -> list:
        return [self.backend.device]

    def _record_samples(self):
        """Keep the sampled GEMVs' inputs and outputs (first session only)."""
        dispatch = self.backend.gemv
        counter = [0]

        def recorded(handle, vector=None, **kwargs):
            run = dispatch(handle, vector, **kwargs)
            call = counter[0] % len(self.calls)
            if call in self.SAMPLED_CALLS:
                self.samples.append((call, vector.copy(), run.output.copy()))
            counter[0] += 1
            return run

        self.backend.gemv = recorded

    def round(self) -> Round:
        from repro.errors import ReproError

        if len(self.sessions) >= self.MAX_SESSIONS:
            return Round(attempted=0)
        if not self.sessions:
            self._record_samples()
        outcome = Round(attempted=self.WINDOW)
        steps = []
        try:
            session = self.backend.open_session(self.spec, fused=True, seed=self.session_seed)
        except ReproError:
            outcome.failed = self.WINDOW
            return outcome
        try:
            for _ in range(self.WINDOW):
                start = time.perf_counter()
                try:
                    step = session.step()
                except ReproError:
                    outcome.failed += 1
                    steps.append(None)
                    continue
                outcome.op_spans.append((start, time.perf_counter(), 1.0))
                steps.append(step)
        finally:
            session.close()
            self.backend.__dict__.pop("gemv", None)
        self.sessions.append(steps)
        return outcome

    def check(self) -> Verdict:
        from repro.backends import make_backend
        from repro.workloads.generator import generate_layer_data

        verdict = Verdict()
        twin_backend = make_backend("newton", functional=True, channel_workers=0)
        try:
            twin = twin_backend.open_session(self.spec, fused=False, seed=self.session_seed)
            try:
                expected = [s.output for s in twin.run_steps(self.WINDOW)]
            finally:
                twin.close()
        finally:
            twin_backend.close()
        for index, steps in enumerate(self.sessions):
            outputs = [np.zeros(0, np.float32) if s is None else s.output for s in steps]
            bad = [i for i in checks.bit_mismatches(outputs, expected) if steps[i] is not None]
            if bad:
                verdict.failed_ops += len(bad)
                verdict.failures.append(f"session {index}: steps {bad[:5]} differ from the unfused twin")
        for call, vector, output in self.samples:
            layer_index, m, n = self.calls[call]
            # GraphSession seeds layer i's weights with session seed + i.
            matrix = generate_layer_data(m, n, seed=self.session_seed + layer_index).matrix
            problems = checks.check_gemv_sample(
                matrix, vector, output, lanes=self.lanes, cols_per_row=self.cols_per_row
            )
            if problems:
                verdict.failed_ops += 1
                verdict.failures += problems
        verdict.figures["gemv_samples_checked"] = len(self.samples)
        if self.sessions:
            verdict.figures["fused_gemvs_per_step"] = statistics.fmean(
                s.fused_gemvs for s in self._first_session()
            )
        return verdict

    def _first_session(self) -> list:
        return [s for s in self.sessions[0] if s is not None]

    def sim_metrics(self) -> Dict[str, float]:
        # The first session's steps only: later sessions start at other
        # refresh phases, and how many run depends on the host's speed.
        steps = self._first_session()
        newton = statistics.fmean(s.newton_cycles for s in steps)
        return {
            "sim_speedup_vs_ideal": self.ideal_step_cycles / newton,
            "sim_cycles": statistics.fmean(s.total_cycles for s in steps),
        }

    def layer_counts(self) -> Dict[str, float]:
        steps = [s for session in self.sessions for s in session if s is not None]
        count = len(steps) or 1
        return {
            "graph.fused_gemvs": sum(s.fused_gemvs for s in steps) / count,
            "graph.gemvs": sum(s.gemvs for s in steps) / count,
        }


WORKLOADS = {cls.name: cls for cls in (PaperCold, ServeSteady, DecodeFunctional)}
