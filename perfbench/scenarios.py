"""The benchmark's workloads, built only through the public ``repro`` API.

Each workload is an open loop in simulated time: requests arrive on a
schedule fixed by the seed, whatever the fleet is doing.  The simulator
itself runs as an offline batch, so host time measures how fast it works
through that schedule.

A workload has three parts, kept apart so the timings can tell them apart:

* ``make_bank`` + ``build`` — the set-up a user pays (bank, bit-streams,
  fleet, front door);
* ``make_inputs(bank, seed)`` — the benchmark's own input generation, not
  part of any timing;
* ``run(system, inputs)`` — the timed call into the simulator.

``summarise`` turns a finished run into the simulated metrics and the
fingerprint that every repeat of a seed must reproduce exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

from repro import CoprocessorConfig, build_fleet, build_frontdoor
from repro.core.builder import build_host_driver
from repro.core.config import SMALL_CONFIG
from repro.core.stats import percentile_of
from repro.functions.bank import build_default_bank, build_small_bank
from repro.sim.rand import SeededRandom
from repro.workloads.multitenant import FleetTrace, default_tenant_mix, multi_tenant_trace

#: Payloads per bank function in the conformance probe.
PROBE_PAYLOADS = 50
#: A run is timed in this many equal spans of the trace's simulated time.
SLICES = 60


class Workload:
    """One workload; ``BENCHMARK.json`` and README.md say why it is there."""

    name = ""
    #: Mean inter-arrival time of the open loop, simulated ns.
    interarrival_ns = 0.0
    #: Requests in one run of the trace.
    requests = 0

    def make_bank(self):
        raise NotImplementedError

    def make_inputs(self, bank, seed: int):
        raise NotImplementedError

    def build(self, bank, inputs):
        raise NotImplementedError

    def run(self, system, inputs) -> list:
        """Serve the trace; returns the host seconds of each of ``SLICES`` spans.

        The trace's span of simulated time is cut into equal horizons; the
        kernel pauses at each and resumes exactly where it stopped, so the
        simulated run is the one an uncut ``run`` makes.  The last span drains
        the fleet.
        """
        fleet = self.fleet_of(system)
        step = inputs.trace.duration_ns / SLICES
        origin = fleet.clock.now
        times = []
        for index in range(SLICES):
            until = origin + (index + 1) * step if index + 1 < SLICES else None
            start = time.perf_counter()
            if index == 0:
                self.start(system, inputs, until)
            else:
                fleet.simulator.run(until_ns=until)
                if until is None:
                    self.settle(system)
            times.append(time.perf_counter() - start)
        return times

    def start(self, system, inputs, until_ns):
        """Offer the trace and serve it up to *until_ns* (None: to the end)."""
        system.run(inputs.trace, until_ns=until_ns)

    def settle(self, system):
        """The end-of-run settlement ``run`` does when it reaches quiescence."""
        fleet = self.fleet_of(system)
        if fleet.obs is not None and fleet.is_idle:
            fleet.obs.finish(fleet.clock.now)

    def fleet_of(self, system):
        return system

    def probe_bank(self, bank):
        """The functions the conformance probe checks (see ``conformance``)."""
        return bank

    def probe_config(self):
        return SMALL_CONFIG

    def summarise(self, system, inputs) -> dict:
        """Simulated metrics of one finished run (deterministic per seed)."""
        stats = self.fleet_of(system).stats
        offered = len(inputs.trace)
        summary = latency_summary(
            stats._fleet_sojourn,
            offered,
            stats.rejected + stats.expired + stats.hazard_completions,
            self.fingerprint(system),
        )
        # Every offered request reached exactly one terminal outcome.
        summary["accounted"] = stats.completed + stats.rejected + stats.expired == offered
        return summary

    def fingerprint(self, system) -> str:
        """Hash of the run's schedule digest, counters and kernel state."""
        fleet = self.fleet_of(system)
        stats = fleet.stats
        parts = (
            fleet.simulator.events_dispatched,
            fleet.clock.now,
            stats.completed,
            stats.rejected,
            stats.expired,
            stats.hazard_completions,
            stats.net_completed,
            stats.net_failed,
            stats.net_retries,
            stats.shed_total,
            stats.total_sojourn_ns,
            stats.total_net_latency_ns,
            stats.schedule_digest(),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class Inputs:
    trace: FleetTrace
    #: Fault-process / link randomness root (ops_frontdoor only).
    seed: int = 0

    def prefix(self, count: int) -> "Inputs":
        """The same inputs cut to the first *count* requests."""
        return dataclasses.replace(self, trace=FleetTrace(self.trace.requests[:count]))


class HotDefault(Workload):
    name = "hot_default"
    interarrival_ns = 40_000.0
    requests = 24_000

    def make_bank(self):
        return build_small_bank()

    def make_inputs(self, bank, seed: int):
        tenants = default_tenant_mix(bank, tenants=3, skew=1.2)
        trace = multi_tenant_trace(
            bank,
            tenants,
            length=self.requests,
            mean_interarrival_ns=self.interarrival_ns,
            seed=seed,
        )
        return Inputs(trace)

    def build(self, bank, inputs):
        return build_fleet(
            cards=3, config=SMALL_CONFIG, bank=bank, policy="affinity", queue_depth=64
        )


class ReconfigChurn(Workload):
    name = "reconfig_churn"
    interarrival_ns = 500_000.0
    requests = 3_000
    #: matmul8 crashes any fleet that serves it (int32 overflow in its
    #: behaviour model); the conformance probe still sends it payloads.
    excluded = ("matmul8",)
    config = CoprocessorConfig(fabric_rows=32)

    def make_bank(self):
        bank = build_default_bank()
        return bank.subset([name for name in bank.names() if name not in self.excluded])

    def make_inputs(self, bank, seed: int):
        tenants = default_tenant_mix(bank, tenants=4, skew=0.6)
        trace = multi_tenant_trace(
            bank,
            tenants,
            length=self.requests,
            mean_interarrival_ns=self.interarrival_ns,
            seed=seed,
        )
        # multi_tenant_trace reuses one payload per (tenant, function); give
        # every request its own bytes so no (function, payload) cache can hit.
        fresh = SeededRandom(seed).fork("fresh-payloads")
        requests = [
            dataclasses.replace(request, payload=fresh.bytes(len(request.payload)))
            for request in trace
        ]
        return Inputs(FleetTrace(requests, name=trace.name))

    def build(self, bank, inputs):
        return build_fleet(
            cards=3, config=self.config, bank=bank, policy="affinity", queue_depth=64
        )

    def probe_bank(self, bank):
        return build_default_bank()

    def probe_config(self):
        return CoprocessorConfig()


class OpsFrontdoor(Workload):
    name = "ops_frontdoor"
    interarrival_ns = 40_000.0
    requests = 8_000
    kill_fraction = 0.4

    def make_bank(self):
        return build_small_bank()

    def make_inputs(self, bank, seed: int):
        tenants = default_tenant_mix(bank, tenants=3, skew=1.2)
        trace = multi_tenant_trace(
            bank,
            tenants,
            length=self.requests,
            mean_interarrival_ns=self.interarrival_ns,
            arrival="bursty",
            seed=seed,
        )
        return Inputs(trace, seed=seed)

    def build(self, bank, inputs):
        # Imported here so the other workloads' set-up time leaves them out.
        from repro.faults import FaultSpec
        from repro.net import AdmissionConfig, LinkSpec
        from repro.obs import Observability, SloSpec

        slo_windows = dict(
            source="net",
            fast_ns=500_000.0,
            slow_ns=2_000_000.0,
            burn_threshold=3.0,
            min_events=10,
        )
        fleet = build_fleet(
            cards=3,
            config=SMALL_CONFIG,
            bank=bank,
            policy="affinity",
            queue_depth=64,
            fault_tolerance=True,
            scrub_period_ns=1_000_000.0,
            fault_spec=FaultSpec(
                process="poisson",
                upset_rate_per_s=200.0,
                card_kill_times_ns=((inputs.trace.duration_ns * self.kill_fraction, 0),),
                seed=inputs.seed,
            ),
            observability=Observability(sample_rate=0.01, seed=inputs.seed),
        )
        frontdoor = build_frontdoor(
            fleet,
            seed=inputs.seed,
            gateways=2,
            uplink=LinkSpec(loss=0.01),
            admission=AdmissionConfig(rate_per_s=30_000.0, burst=16.0),
            deadline_ns=30_000_000.0,
            slos=[
                SloSpec.availability("net.availability", objective=0.99, **slo_windows),
                SloSpec.latency(
                    "net.latency.p99", threshold_ns=1_000_000.0, objective=0.99, **slo_windows
                ),
            ],
        )
        return frontdoor

    def start(self, system, inputs, until_ns):
        from repro.net import OpenLoopPopulation

        system.add_population(OpenLoopPopulation(inputs.trace))
        system.run(until_ns=until_ns)

    def fleet_of(self, system):
        return system.fleet

    def summarise(self, system, inputs) -> dict:
        stats = system.fleet.stats
        offered = len(inputs.trace)
        summary = latency_summary(
            stats._net_latency,
            offered,
            stats.net_failed + stats.hazard_completions,
            self.fingerprint(system),
        )
        summary["accounted"] = stats.net_requests == offered == (
            stats.net_completed + stats.net_failed
        )
        return summary


def latency_summary(sampler, offered: int, failed: int, fingerprint: str) -> dict:
    """Latency of every completed request, from the statistics' own sample.

    The model's percentiles sit on plateaus — most requests take exactly one
    of a few service times — so across seeds p50 and p99 either never move or
    jump between plateaus.  The mean of the slowest 1% (at least ten
    requests) moves smoothly and steadily, and it is the gated latency; the
    mean, p50 and p99 are reported alongside.  ``FleetStatistics`` has no
    public accessor for its latency sample; it holds every value while a run
    completes fewer requests than the reservoir's capacity, which is checked
    here.
    """
    if sampler is None or len(sampler.values) != sampler.seen:
        raise RuntimeError("the latency reservoir does not hold every completed request")
    ordered = sorted(sampler.values)
    tail = ordered[-max(10, len(ordered) // 100):]
    return {
        "offered": offered,
        "latency_samples": len(ordered),
        "sim_latency_mean_us": sum(ordered) / len(ordered) / 1e3,
        "sim_latency_tail_us": sum(tail) / len(tail) / 1e3,
        "sim_latency_p50_us": percentile_of(ordered, 50) / 1e3,
        "sim_latency_p99_us": percentile_of(ordered, 99) / 1e3,
        "served_share": 1.0 - failed / offered,
        "fingerprint": fingerprint,
    }


WORKLOADS = {
    workload.name: workload for workload in (HotDefault(), ReconfigChurn(), OpsFrontdoor())
}


def conformance(workload: Workload, bank, inputs, seed: int) -> dict:
    """Check outputs against each function's software reference.

    A fresh single card serves, through ``HostDriver.call``, up to
    ``PROBE_PAYLOADS`` distinct payloads per function taken from the
    workload's own trace, plus ``PROBE_PAYLOADS`` random payloads for every
    function of the probe bank.  An exception, or an output that differs from
    ``function.reference``, is an error.  Returns the calls made and the
    errors per function.
    """
    probe_bank = workload.probe_bank(bank)
    driver = build_host_driver(config=workload.probe_config(), bank=probe_bank)
    rng = SeededRandom(seed).fork("conformance")
    cases = {function.name: {} for function in probe_bank}
    for request in inputs.trace:
        taken = cases[request.function]
        if len(taken) < PROBE_PAYLOADS:
            taken[request.payload] = None
    for function in probe_bank:
        draws = rng.fork(function.name)
        for _ in range(PROBE_PAYLOADS):
            cases[function.name][draws.bytes(function.spec.input_bytes)] = None
    calls = 0
    errors: dict = {}
    for name, payloads in cases.items():
        function = probe_bank.by_name(name)
        for payload in payloads:
            calls += 1
            try:
                good = driver.call(name, payload).output == function.reference(payload)
            except Exception:  # any exception on valid input is an output error
                good = False
            if not good:
                errors[name] = errors.get(name, 0) + 1
    return {"calls": calls, "errors": errors}
