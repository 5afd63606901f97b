"""Per-layer host self-time, measured by wrapping each layer's public calls.

The wrappers live here, in the benchmark, not in ``src/``: ``LayerTracer``
patches the class attributes listed in ``TARGETS`` for the duration of a
traced run and restores them afterwards.  Fleets must be built after
``install`` — the fleet worker loop binds ``card.serve`` and
``stats.record_completion`` once when it starts.

A span is one call (or, for a generator, one resumption).  A layer's self
time is the sum of its spans' durations minus the time of the wrapped spans
they contain, so every host second inside the root span lands in exactly one
layer.  Work that no public call covers — the kernel's event loop and the
process bodies it resumes (fleet workers, arrival pacing, link pumps, fault
processes) — is ``sim`` self time, because ``Simulator.run`` is its nearest
wrapped ancestor.  ``other`` is the root span's own time: the part of
``Fleet.run`` / ``FrontDoor.run`` outside ``Simulator.run``, plus the
benchmark's loop over the time slices (see ``Workload.run``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

#: layer -> (module, class, attribute) of each wrapped public entry point.
#: A class entry also covers subclasses that override the attribute.
TARGETS = {
    "sim": [("repro.sim.kernel", "Simulator", "run")],
    "cluster": [
        ("repro.cluster.fleet", "FleetCard", "serve"),
        ("repro.cluster.dispatch", "DispatchPolicy", "choose"),
        ("repro.cluster.stats", "FleetStatistics", "record_completion"),
        ("repro.cluster.fastpath", "ServeMemo", "replay"),
    ],
    "core": [
        ("repro.core.host", "HostDriver", "call"),
        ("repro.core.host", "HostDriver", "preload"),
    ],
    "pci": [("repro.pci.bus", "PciBus", "submit")],
    "mcu": [
        ("repro.mcu.microcontroller", "Microcontroller", "handle_execute"),
        ("repro.mcu.microcontroller", "Microcontroller", "ensure_loaded"),
    ],
    "memory": [
        ("repro.memory.rom", "ConfigurationRom", "read_bitstream"),
        ("repro.memory.rom", "ConfigurationRom", "read"),
    ],
    "bitstream": [("repro.bitstream.window", "WindowedDecompressor", "windows")],
    "fpga": [
        ("repro.fpga.config_port", "ConfigurationPort", "write_frame"),
        ("repro.fpga.device", "FPGADevice", "configure_partial"),
        ("repro.fpga.device", "FPGADevice", "execute"),
    ],
    # A bank function's behaviour runs inside its executor: behavioural
    # executors hold a bound ``behaviour`` made before any patch could apply,
    # so the executors' ``run`` is the boundary that always sees the call.
    "functions": [
        ("repro.fpga.executor", "BehaviouralExecutor", "run"),
        ("repro.fpga.executor", "NetlistExecutor", "run"),
    ],
    "net": [
        ("repro.net.link", "Link", "send"),
        ("repro.net.gateway", "Gateway", "on_request"),
        ("repro.net.transport", "Transport", "submit"),
        ("repro.net.transport", "Transport", "on_response"),
    ],
    "obs": [
        ("repro.obs.context", "Tracer", "record"),
        ("repro.obs.slo", "SloEngine", "on_fleet_completion"),
        ("repro.obs.slo", "SloEngine", "on_fleet_bad"),
        ("repro.obs.slo", "SloEngine", "on_net_completion"),
        ("repro.obs.slo", "SloEngine", "on_net_bad"),
        ("repro.obs.tail", "TailSampler", "offer"),
        ("repro.obs", "Observability", "finish"),
    ],
    "faults": [
        ("repro.faults.scrubber", "Scrubber", "scrub_pass"),
        ("repro.faults.hazard", "FrameHazardDetector", "observe_execution"),
    ],
}

LAYERS = list(TARGETS) + ["other"]


def _classes_defining(cls, attribute):
    seen, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.append(current)
        pending.extend(current.__subclasses__())
    return [current for current in seen if attribute in current.__dict__]


class LayerTracer:
    """Self time and call counts per layer, inside one root span at a time."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        #: Calls per "Class.attribute" label, and per layer.
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter({layer: 0 for layer in TARGETS})
        #: Values yielded per generator label (windows decompressed, chunks read).
        self.yields: Counter = Counter()
        #: Non-None results of ServeMemo.replay.
        self.memo_replays = 0
        # One child-time accumulator per open span; empty outside a root.
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        for layer, entries in TARGETS.items():
            for module_name, class_name, attribute in entries:
                base = getattr(importlib.import_module(module_name), class_name)
                classes = _classes_defining(base, attribute)
                if not classes:
                    raise AttributeError(f"{class_name}.{attribute} not found")
                for cls in classes:
                    original = cls.__dict__[attribute]
                    label = f"{cls.__name__}.{attribute}"
                    setattr(cls, attribute, self._wrap(layer, label, original))
                    self._patches.append((cls, attribute, original))

    def uninstall(self) -> None:
        for cls, attribute, original in reversed(self._patches):
            setattr(cls, attribute, original)
        self._patches.clear()

    def _wrap(self, layer, label, function):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        layer_calls = self.layer_calls
        clock = time.perf_counter

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def start_generator(*args, **kwargs):
                generator = function(*args, **kwargs)
                if not stack:
                    return generator
                calls[label] += 1
                layer_calls[layer] += 1
                return self._resumptions(layer, label, generator)

            return start_generator

        replay = label == "ServeMemo.replay"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            calls[label] += 1
            layer_calls[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
            if replay and result is not None:
                self.memo_replays += 1
            return result

        return wrapper

    def _resumptions(self, layer, label, generator):
        """Forward a generator, timing each resumption as one span."""
        stack = self._stack
        clock = time.perf_counter
        value = None
        error = None
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = generator.throw(error) if error is not None else generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = clock() - start
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            self.yields[label] += 1
            try:
                value = yield item
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                value, error = None, exc

    # ---------------------------------------------------------------- spans
    def measure(self, call):
        """Run ``call()`` as the root span; its own time is layer ``other``."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self.self_s["other"] += elapsed - self._stack.pop()


#: Which end-to-end metric each layer's metrics should move, on which
#: workload: (layer, end-to-end metric, workload, predicted effect).  A
#: "flat" entry is the workload on which a change to that layer should show
#: no end-to-end change.  The traced run checks that every layer listed for
#: its workload was called there.
ATTRIBUTION = [
    ("sim", "requests_per_s", "ops_frontdoor", "moves"),
    ("sim", "requests_per_s", "hot_default", "moves"),
    ("cluster", "requests_per_s", "hot_default", "moves"),
    ("cluster", "sim_latency_p99_us", "reconfig_churn", "moves (sim metrics)"),
    ("core", "requests_per_s", "hot_default", "moves"),
    ("core", "requests_per_s", "reconfig_churn", "flat"),
    ("pci", "requests_per_s", "hot_default", "moves"),
    ("pci", "requests_per_s", "reconfig_churn", "flat"),
    ("mcu", "requests_per_s", "hot_default", "moves (hits)"),
    ("mcu", "requests_per_s", "reconfig_churn", "moves (loads)"),
    ("memory", "requests_per_s", "hot_default", "moves (hits)"),
    ("memory", "requests_per_s", "reconfig_churn", "moves (loads)"),
    ("bitstream", "requests_per_s", "reconfig_churn", "moves"),
    ("bitstream", "requests_per_s", "hot_default", "flat"),
    ("fpga", "requests_per_s", "reconfig_churn", "moves"),
    ("fpga", "requests_per_s", "hot_default", "flat"),
    ("functions", "requests_per_s", "reconfig_churn", "moves"),
    ("net", "requests_per_s", "ops_frontdoor", "moves"),
    ("net", "sim_latency_p99_us", "ops_frontdoor", "moves"),
    ("obs", "requests_per_s", "ops_frontdoor", "moves"),
    ("faults", "requests_per_s", "ops_frontdoor", "moves"),
]

#: Layers that must not be called at all outside the named workload.
ONLY_ON = {"net": "ops_frontdoor", "obs": "ops_frontdoor", "faults": "ops_frontdoor"}

#: Predicted largest host self-time layers per workload (reported, not gated).
PREDICTED_DOMINANT = {
    "hot_default": ("pci",),
    "reconfig_churn": ("fpga",),
    "ops_frontdoor": ("sim", "net", "obs"),
}


def coverage_problems(workload: str, layer_calls: Counter, memo_replay_ratio: float) -> list:
    """What the traced run saw that contradicts ``ATTRIBUTION`` / ``ONLY_ON``.

    A renamed or bypassed public function leaves its layer with no calls;
    this turns that into a failure instead of a silently blank layer.
    """
    problems = []
    for layer in sorted({layer for layer, _, name, _ in ATTRIBUTION if name == workload}):
        if layer_calls[layer] == 0:
            problems.append(f"layer {layer} was never called on {workload}")
    for layer, home in ONLY_ON.items():
        if workload != home and layer_calls[layer] != 0:
            problems.append(f"layer {layer} was called {layer_calls[layer]} times on {workload}")
    if memo_replay_ratio != 0:
        problems.append(f"the serve memo replayed on the default path ({memo_replay_ratio})")
    return problems
