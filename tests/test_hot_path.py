"""Host-cost and exactness guards for the resident-hit serve path.

A resident hit travels host driver -> PCI bus -> card -> microcontroller and
back in seven bus transactions.  These tests pin two things about that path:

* **Call budget** — the number of Python-level calls (``call`` plus
  ``c_call`` profiler events) one warm hit makes.  The count is
  deterministic, so a host-side slowdown on the hot path fails here on any
  machine, which a wall-clock rate floor cannot do.
* **Exactness** — the simulated card clock lands on the exact float the
  reference implementation produced, and with tracing on the recorded event
  list matches ``tests/golden/trace_miss_hit.json`` field for field.  Host
  optimisations must never move simulated time, reorder clock increments or
  drop a trace event.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.builder import build_host_driver
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank

#: Most Python calls one warm resident-hit ``HostDriver.call`` may make.
CALLS_PER_HIT_BUDGET = 250

#: ``repr`` of the card clock after the call-budget sequence below.
EXPECTED_CLOCK_REPR = "118506.51515151543"

GOLDEN_TRACE = Path(__file__).parent / "golden" / "trace_miss_hit.json"


def _payload(function) -> bytes:
    return bytes((7 * i + function.function_id) & 0xFF for i in range(function.spec.input_bytes))


def _count_calls(function, *args) -> int:
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    # The profiler sees the ``sys.setprofile(None)`` call that removes it.
    return count - 1


def test_warm_hit_call_budget_and_exact_clock():
    bank = build_small_bank()
    driver = build_host_driver(config=SMALL_CONFIG, bank=bank)
    counts = {}
    for function in bank:
        data = _payload(function)
        miss = driver.call(function.name, data)
        assert not miss.card_result.hit
        warm = driver.call(function.name, data)
        assert warm.card_result.hit
        counts[function.name] = _count_calls(driver.call, function.name, data)
        assert driver.card.last_result.hit
    over = {name: count for name, count in counts.items() if count > CALLS_PER_HIT_BUDGET}
    assert not over, f"resident-hit calls over budget {CALLS_PER_HIT_BUDGET}: {counts}"
    assert repr(driver.clock.now) == EXPECTED_CLOCK_REPR
    assert driver.bus.transactions_completed == 84
    assert repr(driver.bus.busy_time_ns) == "24272.72727272724"


def test_traced_miss_and_hit_match_golden_events():
    driver = build_host_driver(
        config=SMALL_CONFIG.with_overrides(enable_trace=True), bank=build_small_bank()
    )
    driver.call("crc32", bytes(range(96)))  # miss; input moves by DMA
    driver.call("crc32", bytes(range(64)))  # resident hit; input by programmed I/O
    golden = json.loads(GOLDEN_TRACE.read_text())
    events = [
        [event.component, event.action, event.start_ns, event.end_ns, event.attributes]
        for event in driver.coprocessor.trace.events
    ]
    assert len(events) == len(golden["events"])
    for index, (actual, expected) in enumerate(zip(events, golden["events"])):
        assert actual == expected, f"trace event {index} differs"
    assert repr(driver.clock.now) == golden["final_clock_ns"]
