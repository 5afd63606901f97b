#!/usr/bin/env python3
"""The repository's benchmark: host throughput, set-up, memory and simulated
latency of the co-processor fleet, with per-layer host self-time.

Run from the repository root:

    python3 perfbench/run.py --workload hot_default --seed 2005 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 1   # every workload, both modes

``--trace 0`` prints the end-to-end metrics: host requests per second,
set-up time and peak RSS of fresh processes, and the simulated latency,
served share and output conformance.  ``--trace 1`` wraps each layer's
public entry points (see ``layers.py``) and prints per-layer self time and
counts, after checking that the wrapped run reproduces the unwrapped run's
fingerprint.  Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``attempted`` counts simulated requests offered over every pass of the run;
``failed`` counts those in passes whose fingerprint or request accounting
did not match the first pass.  Requests the *model* sheds, rejects or
corrupts are outcomes of the simulated system, reported by ``served_share``,
not failures of the program.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed perf changes are developed against, and the held-out seed their
#: claims must also hold on.
DEFAULT_SEED = 2005
HELD_OUT_SEED = 7919
#: Fresh interpreters timed per untraced run for ``setup_s``: two before the
#: passes, then one after each pass and at the end until there are this many.
#: Host speed drifts over tens of seconds, so the probes are spread out.
SETUP_PROBES = 6
#: The untimed warm-up pass replays the first 1/WARM_SHARE of the trace.
WARM_SHARE = 10
#: Untraced passes an untraced run makes at the least.
MIN_PASSES = 3
#: Child processes of ``--workload all`` and the set-up probes must end by then.
CHILD_TIMEOUT_S = 170
FINGERPRINTS = HERE / "fingerprints.json"

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_tail_us": "sim_us",
    "served_share": "share",
    "conformance_share": "share",
}

PER_LAYER_UNITS = {
    "sim.host_us_per_req": "us",
    "sim.events_per_req": "count/req",
    "cluster.host_us_per_req": "us",
    "cluster.serve_calls": "count",
    "cluster.memo_replay_ratio": "share",
    "cluster.sim_hit_rate": "share",
    "cluster.sim_reconfigs": "count",
    "cluster.sim_mean_wait_us": "sim_us",
    "cluster.sim_card_util": "share",
    "core.host_us_per_req": "us",
    "pci.host_us_per_req": "us",
    "pci.transactions_per_req": "count/req",
    "pci.bytes_per_req": "B/req",
    "pci.sim_bus_util": "share",
    "mcu.host_us_per_req": "us",
    "mcu.loads": "count",
    "memory.host_us_per_req": "us",
    "memory.rom_bytes_read": "B",
    "bitstream.host_us_per_req": "us",
    "bitstream.windows_decompressed": "count",
    "fpga.host_us_per_req": "us",
    "fpga.frames_written": "count",
    "fpga.executions": "count",
    "functions.host_us_per_req": "us",
    "net.host_us_per_req": "us",
    "net.packets_sent": "count",
    "net.retries_per_req": "count/req",
    "net.shed_share": "share",
    "obs.host_us_per_req": "us",
    "obs.spans_recorded": "count",
    "faults.host_us_per_req": "us",
    "faults.frames_scrubbed": "count",
    "faults.sim_hazard_completions": "count",
    "other.host_us_per_req": "us",
    "trace.overhead_ratio": "ratio",
}


# --------------------------------------------------------------------- passes
def model_counters(workload, system) -> dict:
    """Cumulative counters the model keeps (diffed around a run)."""
    fleet = workload.fleet_of(system)
    coprocessors = [card.driver.coprocessor for card in fleet.cards]
    buses = [card.driver.bus for card in fleet.cards]
    return {
        "events": fleet.simulator.events_dispatched,
        "pci_transactions": sum(bus.transactions_completed for bus in buses),
        "pci_bytes": sum(bus.bytes_transferred for bus in buses),
        "pci_busy_ns": sum(bus.busy_time_ns for bus in buses),
        "loads": sum(copro.device.total_configurations for copro in coprocessors),
        "rom_bytes": sum(copro.rom.total_bytes_read for copro in coprocessors),
        "frames_written": sum(copro.device.port.stats.frames_written for copro in coprocessors),
        "executions": sum(copro.device.total_executions for copro in coprocessors),
        "frames_scrubbed": sum(
            copro.scrubber.stats.frames_checked
            for copro in coprocessors
            if copro.scrubber is not None
        ),
    }


def one_pass(workload, bank, inputs, tracer=None) -> dict:
    """Build a fresh system, run the trace once, summarise it."""
    if tracer is not None:
        tracer.install()
    try:
        system = workload.build(bank, inputs)
        before = model_counters(workload, system)
        gc.collect()
        start = time.perf_counter()
        if tracer is not None:
            slice_s = tracer.measure(lambda: workload.run(system, inputs))
        else:
            slice_s = workload.run(system, inputs)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = model_counters(workload, system)
    summary = workload.summarise(system, inputs)
    summary["elapsed_s"] = elapsed
    summary["slice_s"] = slice_s
    summary["counters"] = {key: after[key] - before[key] for key in after}
    summary["system"] = system
    return summary


def setup_times(name: str, seed: int, probes: int) -> list:
    times = []
    for _ in range(probes):
        result = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(json.loads(result.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def recorded_fingerprint(name: str, seed: int):
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(name, {}).get(str(seed))


def record_fingerprint(name: str, seed: int, fingerprint: str) -> None:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    table.setdefault(name, {})[str(seed)] = fingerprint
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- one workload
def measure(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    from layers import LayerTracer
    from scenarios import WORKLOADS

    workload = WORKLOADS[name]
    problems = []
    setups = [] if trace else setup_times(name, seed, 2)
    bank = workload.make_bank()
    inputs = workload.make_inputs(bank, seed)

    # A prefix of the trace fills the process's lazy caches (compiled
    # executors, netlists); it is never timed.
    warm = inputs.prefix(len(inputs.trace) // WARM_SHARE)
    warm_offered = one_pass(workload, bank, warm)["offered"]

    # Untraced and traced passes alternate until the time is used up; the
    # first untraced pass is the reference every later pass must reproduce.
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        untraced.append(one_pass(workload, bank, inputs))
        untraced[-1].pop("system")
        if len(untraced) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace and len(setups) < SETUP_PROBES:
            setups += setup_times(name, seed, 1)
        if trace:
            if traced:
                traced[-1].pop("system")
            tracer = LayerTracer()
            traced.append(one_pass(workload, bank, inputs, tracer))
            traced[-1]["tracer"] = tracer
        # Stop when one more round would end further past the deadline than
        # stopping now falls short of it.
        now = time.perf_counter()
        if now + (now - round_start) / 2 >= deadline and (trace or len(untraced) >= MIN_PASSES):
            break
    if not trace:
        setups += setup_times(name, seed, SETUP_PROBES - len(setups))
    reference = untraced[0]
    fingerprint = reference["fingerprint"]
    failed = 0
    for kind, results in (("untraced", untraced), ("traced", traced)):
        for result in results:
            if result["fingerprint"] != fingerprint or not result["accounted"]:
                failed += result["offered"]
                problems.append(
                    f"{kind} pass {result['fingerprint']} does not reproduce {fingerprint}"
                    + ("" if result["accounted"] else " or lost requests")
                )
    offered = reference["offered"]
    attempted = warm_offered + offered * (len(untraced) + len(traced))
    rates = [offered / result["elapsed_s"] for result in untraced]
    # Host speed on a shared machine swings by tens of percent from one
    # second to the next.  Every untraced pass times the same slices of the
    # same simulated run, so the median of each slice over the passes drops
    # the disturbed readings; the rate is the offered requests over their sum.
    slice_medians = [statistics.median(times) for times in zip(*(r["slice_s"] for r in untraced))]
    rate = offered / sum(slice_medians)

    recorded = recorded_fingerprint(name, seed)
    if record:
        record_fingerprint(name, seed, fingerprint)
    if recorded is None:
        recorded_note = "none"
    else:
        recorded_note = "match" if recorded == fingerprint else f"CHANGED (was {recorded})"
    lines = [
        f"workload {name}  seed {seed}  {offered} requests/pass  "
        f"open loop, mean inter-arrival {workload.interarrival_ns / 1e3:g} sim_us",
        f"fingerprint {fingerprint}  recorded {recorded_note}",
        f"passes: 1 warm-up of {warm_offered} requests + {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if trace else ""),
    ]

    if trace:
        metrics, report, checks = per_layer(workload, traced, rate)
        units = PER_LAYER_UNITS
    else:
        metrics, report, checks = end_to_end(
            workload, bank, inputs, seed, reference, rate, rates, setups, peak_rss_mb
        )
        units = END_TO_END_UNITS
    lines += report
    problems += checks
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    for metric, value in metrics.items():
        lines.append(f"{metric:32s} {value:>16.6g} {units[metric]}")
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
            },
        },
    }


def end_to_end(workload, bank, inputs, seed, reference, rate, rates, setups, peak_rss_mb):
    """End-to-end metrics, report lines and failed checks of a ``--trace 0`` run."""
    from scenarios import conformance

    probe = conformance(workload, bank, inputs, seed)
    errors = sum(probe["errors"].values())
    served = set(bank.names())
    broken = sorted(name for name in probe["errors"] if name in served)
    checks = [f"functions the fleet serves give wrong outputs: {broken}"] if broken else []
    metrics = {
        "requests_per_s": rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_latency_tail_us": reference["sim_latency_tail_us"],
        "served_share": reference["served_share"],
        "conformance_share": 1.0 - errors / probe["calls"],
    }
    per_function = ", ".join(f"{name}={count}" for name, count in sorted(probe["errors"].items()))
    report = [
        f"requests_per_s per pass: {' '.join(f'{value:.1f}' for value in rates)}; "
        f"from the median of each slice over the passes: {rate:.1f}",
        f"setup_s per fresh process: {' '.join(f'{value:.4f}' for value in setups)}",
        f"sim latency over {reference['latency_samples']} completed requests: "
        f"mean {reference['sim_latency_mean_us']:.4f} sim_us, "
        f"p50 {reference['sim_latency_p50_us']:.4f} sim_us, "
        f"p99 {reference['sim_latency_p99_us']:.4f} sim_us, "
        f"tail = mean of the slowest {max(10, reference['latency_samples'] // 100)}",
        f"output_errors: {errors} of {probe['calls']} conformance calls"
        + (f" ({per_function})" if errors else ""),
    ]
    return metrics, report, checks


def per_layer(workload, traced, untraced_rate):
    """Per-layer metrics, report lines and failed checks of a ``--trace 1`` run."""
    from layers import LAYERS, PREDICTED_DOMINANT, coverage_problems

    offered = traced[0]["offered"]
    self_us = {
        layer: statistics.median(result["tracer"].self_s[layer] for result in traced)
        * 1e6
        / offered
        for layer in LAYERS
    }
    last = traced[-1]
    tracer = last["tracer"]
    counters = last["counters"]
    fleet = workload.fleet_of(last["system"])
    stats = fleet.stats
    kernel_ns = fleet.clock.now
    cards = fleet.cards
    serve_calls = tracer.calls["FleetCard.serve"]
    traced_rate = statistics.median(offered / result["elapsed_s"] for result in traced)
    metrics = {f"{layer}.host_us_per_req": self_us[layer] for layer in LAYERS}
    metrics.update(
        {
            "sim.events_per_req": counters["events"] / offered,
            "cluster.serve_calls": serve_calls,
            "cluster.memo_replay_ratio": tracer.memo_replays / serve_calls if serve_calls else 0.0,
            "cluster.sim_hit_rate": stats.hit_rate,
            "cluster.sim_reconfigs": stats.reconfigurations,
            "cluster.sim_mean_wait_us": stats.mean_wait_ns / 1e3,
            "cluster.sim_card_util": sum(card.busy_ns for card in cards) / (len(cards) * kernel_ns),
            "pci.transactions_per_req": counters["pci_transactions"] / offered,
            "pci.bytes_per_req": counters["pci_bytes"] / offered,
            "pci.sim_bus_util": counters["pci_busy_ns"] / (len(cards) * kernel_ns),
            "mcu.loads": counters["loads"],
            "memory.rom_bytes_read": counters["rom_bytes"],
            "bitstream.windows_decompressed": tracer.yields["WindowedDecompressor.windows"],
            "fpga.frames_written": counters["frames_written"],
            "fpga.executions": counters["executions"],
            "net.packets_sent": tracer.calls["Link.send"],
            "net.retries_per_req": stats.net_retries / offered,
            "net.shed_share": stats.shed_total / offered,
            "obs.spans_recorded": tracer.calls["Tracer.record"],
            "faults.frames_scrubbed": counters["frames_scrubbed"],
            "faults.sim_hazard_completions": stats.hazard_completions,
            "trace.overhead_ratio": traced_rate / untraced_rate,
        }
    )
    metrics = {metric: metrics[metric] for metric in PER_LAYER_UNITS}
    total = sum(self_us.values())
    report = [f"{'layer':10s} {'self us/req':>12s} {'share':>7s} {'calls':>10s}"]
    for layer in sorted(LAYERS, key=self_us.get, reverse=True):
        report.append(
            f"{layer:10s} {self_us[layer]:12.2f} {self_us[layer] / total:7.1%} "
            f"{tracer.layer_calls.get(layer, 0):10d}"
        )
    # The prediction holds when the predicted layers together spend more
    # self time than any other single layer.
    predicted = PREDICTED_DOMINANT[workload.name]
    rivals = {layer: us for layer, us in self_us.items() if layer not in predicted + ("other",)}
    largest = max(rivals, key=rivals.get)
    held = sum(self_us[layer] for layer in predicted) > rivals[largest]
    report.append(
        f"predicted dominant: {'+'.join(predicted)}; largest other layer: {largest}; "
        + ("held" if held else "NOT MET")
    )
    checks = coverage_problems(
        workload.name, tracer.layer_calls, metrics["cluster.memo_replay_ratio"]
    )
    return metrics, report, checks


# ------------------------------------------------------------- all workloads
def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process.

    Prints each run's report and ends with one summary line whose metrics
    are keyed ``<workload>/<metric>``.
    """
    from scenarios import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.record_fingerprint and not trace:
                command.append("--record-fingerprint")
            child = subprocess.run(
                command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-fingerprint",
        action="store_true",
        help=f"store this run's fingerprint in {FINGERPRINTS.name}",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.record_fingerprint
    )
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
