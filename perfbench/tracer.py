"""Wall-clock spans around the program's layers, recorded from outside.

The traced run patches the public functions that bound each layer of
the simulator (stream lowering, the per-command solver, the burst
kernel, replay, the engine, the functional datapath, KV-cache writes,
the graph runtime, the serving gateway and the experiment drivers) with
a wrapper that opens a span around the call. Spans nest: a layer's
*self* time is its span minus the spans of the layers it called, so the
self times of every layer plus the root span's own self time (the named
remainder) add up to the traced wall time exactly.

Spans stay in memory (up to :data:`SPAN_CAP`; beyond it only the
per-layer sums are kept) and are written out once, when the run ends.
Nothing here is imported by the untraced run.

The modelled-DRAM side comes from the program's own counters: every
:class:`~repro.core.device.NewtonDevice` alive during the traced
interval is read through ``collect_metrics()`` when it is released (or
when tracing ends), minus its reading when tracing began.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

SPAN_CAP = 200_000
"""Spans kept for the written trace; later spans count in the sums only."""

REMAINDER = "remainder"
"""The root span's layer: host time outside every named layer."""


class Tracer:
    """Nested ``perf_counter_ns`` spans with per-layer self-time sums."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        """Work counts recorded at layer boundaries (commands and so on)."""
        self.layer_ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str) -> list:
        index = len(self.spans)
        if index < SPAN_CAP:
            parent = self._stack[-1][2] if self._stack else -1
            layer_id = self.layer_ids.setdefault(layer, len(self.layer_ids))
            self.spans.append([layer_id, 0, 0, parent])
        else:
            index = -1
            self.dropped += 1
        # [layer, child ns, span index, start ns] -- start taken last so
        # the bookkeeping above is charged to the caller, not the span.
        frame = [layer, 0, index, 0]
        self._stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[3]
        layer = frame[0]
        self.self_ns[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[1] = frame[3]
            span[2] = end

    @contextlib.contextmanager
    def root(self):
        """The span every traced operation runs under (the remainder)."""
        frame = self._open(REMAINDER)
        try:
            yield
        finally:
            self._close(frame)

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`uninstall`.

        ``count(args, result)``, if given, returns ``{counter: amount}``
        recorded for each call (inside the span: it must be cheap).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            frame = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    tracer.counts.update(count(args, result))
                return result
            finally:
                tracer._close(frame)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def after(self, owner, attr: str, hook: Callable) -> None:
        """Call ``hook(args, result)`` after ``owner.attr``, outside any span."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(args, result)
            return result

        setattr(owner, attr, hooked)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def wall_ns(self) -> int:
        """Total traced wall time: the sum of every layer's self time."""
        return sum(self.self_ns.values())

    def write(self, path: Path, meta: dict) -> None:
        """Write the kept spans (start-relative microseconds) as JSON."""
        names = sorted(self.layer_ids, key=self.layer_ids.get)
        origin = min((s[1] for s in self.spans), default=0)
        record = {
            "meta": meta,
            "layers": names,
            "columns": ["layer", "start_us", "duration_us", "parent"],
            "spans": [
                [s[0], (s[1] - origin) / 1e3, (s[2] - s[1]) / 1e3, s[3]]
                for s in self.spans
            ],
            "dropped_spans": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, separators=(",", ":")))


class DeviceLedger:
    """Modelled-DRAM counters over every device alive while tracing.

    Each device is read through the program's own ``collect_metrics()``
    (one record per channel engine) when tracing starts (devices that
    already exist) and again when it is garbage-collected or tracing
    ends; the ledger keeps the differences.
    """

    def __init__(self):
        self.totals: Counter = Counter()
        self.devices = 0
        self.run_end: Dict[int, int] = {}
        """Each engine's latest run end cycle: in-flight completions up to
        it are the attribution's ``tail`` bucket."""
        self._finalizers: List[weakref.finalize] = []

    def _reading(self, engines) -> Counter:
        reading: Counter = Counter()
        for engine in engines:
            record = engine.collect_metrics(end=self.run_end.pop(id(engine), None))
            for bucket, cycles in record["cycle_attribution"].items():
                reading[f"cycles.{bucket}"] += cycles
            reading["commands.total"] += record["total_commands"]
            reading["end_cycle"] += record["end_cycle"]
            cache = record["schedule_cache"]
            reading["replay.hits"] += cache["hits"]
            reading["replay.misses"] += cache["misses"]
            reading["replay.commands"] += cache["replayed_commands"]
        return reading

    def _absorb(self, engines, baseline: Counter) -> None:
        reading = self._reading(engines)
        reading.subtract(baseline)
        self.totals.update(reading)

    def track(self, device, *, existing: bool = False) -> None:
        """Follow ``device`` until it is released or :meth:`close` runs."""
        engines = list(device.engines)
        baseline = self._reading(engines) if existing else Counter()
        self.devices += 1
        self._finalizers.append(
            weakref.finalize(device, self._absorb, engines, baseline)
        )

    def close(self) -> Counter:
        """Read every device still alive; returns the accumulated totals."""
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()
        return self.totals


def install_layers(tracer: Tracer, ledger: DeviceLedger) -> None:
    """Wrap each layer's public entry points (see the README's table)."""
    from repro.backends.base import Backend
    from repro.backends.newton import NewtonBackend
    from repro.core import datapath, engine
    from repro.core.device import NewtonDevice
    from repro.dram import fastpath
    from repro.dram.controller import ChannelController
    from repro.experiments import fig8_speedup, fig9_ablation
    from repro.host.graph_runtime import GraphSession
    from repro.serving.gateway import BackendReplica, ServingGateway

    tracer.wrap(
        engine,
        "segment_stream",
        "lower",
        lambda args, stream: {"lower.commands": stream.total_commands},
    )
    tracer.wrap(ChannelController, "issue", "issue")
    tracer.wrap(
        ChannelController,
        "issue_burst",
        "burst",
        lambda args, record: {"burst.commands": args[1].count},
    )
    tracer.wrap(fastpath, "relative_signature", "replay")
    tracer.wrap(fastpath, "apply_delta", "replay")
    tracer.wrap(fastpath, "capture_delta", "capture")
    def note_run_end(args, result) -> dict:
        ledger.run_end[id(args[0])] = result.end_cycle
        return {}

    tracer.wrap(engine.NewtonChannelEngine, "run_gemv", "engine", note_run_end)
    for tier in vars(datapath).values():
        if isinstance(tier, type) and issubclass(tier, datapath.FunctionalDatapath):
            for method in ("step", "finish"):
                if method in tier.__dict__:
                    tracer.wrap(tier, method, "datapath")
    tracer.wrap(NewtonBackend, "store_matrix", "kv_store")
    tracer.wrap(Backend, "open_session", "graph_open")
    tracer.wrap(GraphSession, "step", "graph")
    tracer.wrap(GraphSession, "close", "graph")
    tracer.wrap(ServingGateway, "run", "gateway")
    # The replica's own work (backend dispatch) is not the gateway loop;
    # its self time joins the remainder.
    tracer.wrap(BackendReplica, "batch_cycles", "replica")
    tracer.wrap(fig8_speedup, "run", "experiments")
    tracer.wrap(fig9_ablation, "run", "experiments")
    tracer.after(NewtonDevice, "__init__", lambda args, _: ledger.track(args[0]))
