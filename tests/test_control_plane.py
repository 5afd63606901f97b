"""Control-plane orders: the span stream they leave and the time they charge.

Scrub, defrag, heal and the three migration phases all run through the same
card queues as requests.  ``tests/golden/order_spans.json`` pins every
``order.*`` span (name, start, end, attributes) of one fully traced drill
that exercises each order kind, including the ``source-lost`` and
``restore-failed`` migration failures, so any change to when an order runs,
how long it holds its card or what it reports shows up here.

Regenerate the golden (only for an intended model change) with::

    PYTHONPATH=src python tests/test_control_plane.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.builder import build_fleet
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.obs import Observability
from repro.sim.kernel import Timeout
from repro.workloads.multitenant import FleetTrace, default_tenant_mix, multi_tenant_trace

GOLDEN_ORDER_SPANS = Path(__file__).parent / "golden" / "order_spans.json"

#: (kernel time ns, action, card index, wedge duration ns).  Killing card 0
#: while it still holds a queued capture order gives ``source-lost`` and the
#: heal orders; the last wedge lands on a restore's destination.
DRILL = (
    (95_000.0, "kill", 0, 0.0),
    (100_000.0, "wedge", 1, 60_000.0),
    (150_000.0, "wedge", 2, 60_000.0),
    (453_000.0, "wedge", 2, 20_000.0),
)


def order_span_stream() -> dict:
    """Run the traced control-plane drill; return its order spans and outcome."""
    bank = build_small_bank()
    observability = Observability(sample_rate=1.0)
    fleet = build_fleet(
        cards=3,
        config=SMALL_CONFIG.with_overrides(seed=13),
        bank=bank,
        policy="affinity",
        queue_depth=8,
        fault_tolerance=True,
        scrub_period_ns=50_000.0,
        defrag_period_ns=60_000.0,
        rebalance_period_ns=40_000.0,
        rebalance_min_queue_skew=2,
        rebalance_min_frame_skew=2,
        observability=observability,
    )
    # Maximal residency skew, so the rebalancer orders migrations off card 0.
    for name in bank.names():
        fleet.cards[0].driver.preload(name)

    def drill():
        now = 0.0
        for at_ns, action, index, duration_ns in DRILL:
            yield Timeout(at_ns - now)
            now = at_ns
            if action == "kill":
                fleet.kill_card(index)
            else:
                fleet.degrade_card(index, duration_ns)

    fleet.add_service("drill", drill)
    trace = multi_tenant_trace(
        bank,
        default_tenant_mix(bank, tenants=2, skew=1.2),
        length=120,
        mean_interarrival_ns=5_000.0,
        seed=13,
    )
    fleet.run(trace)
    spans = [
        [span.name, span.start_ns, span.end_ns, span.attrs]
        for span in observability.spans
        if span.name.startswith("order.")
    ]
    return {
        "fingerprint": list(fleet.fingerprint()),
        "migration_failure_reasons": dict(
            sorted(fleet.stats.migration_failure_reasons.items())
        ),
        "heals_completed": fleet.stats.heals_completed,
        "spans": spans,
    }


def test_order_span_stream_matches_golden():
    stream = json.loads(json.dumps(order_span_stream()))
    golden = json.loads(GOLDEN_ORDER_SPANS.read_text())
    kinds = {span[0] for span in golden["spans"]}
    assert kinds == {
        "order.scrub",
        "order.defrag",
        "order.heal",
        "order.migrate.capture",
        "order.migrate.restore",
        "order.migrate.release",
    }
    assert set(golden["migration_failure_reasons"]) == {"source-lost", "restore-failed"}
    assert len(stream["spans"]) == len(golden["spans"])
    for index, (actual, expected) in enumerate(zip(stream["spans"], golden["spans"])):
        assert actual == expected, f"order span {index} differs"
    assert stream == golden


def test_refused_heal_charges_its_card_time():
    """A heal the card refuses part-way still costs the time it spent."""
    bank = build_small_bank()
    fleet = build_fleet(
        cards=2,
        config=SMALL_CONFIG.with_overrides(seed=5),
        bank=bank,
        fault_tolerance=True,
    )
    dead, target = fleet.cards
    dead.driver.preload("crc32")
    card_clock = target.driver.clock
    seen = {}

    def drill():
        yield Timeout(1_000.0)
        fleet.kill_card(0)  # orders a heal of crc32 on card 1
        assert target.outstanding == 1
        # Wedge card 1's port before its worker pops the heal.
        fleet.degrade_card(1, 1.0)
        seen["clock_before"] = card_clock.now
        seen["busy_before"] = target.busy_ns

    fleet.add_service("drill", drill)
    fleet.run(FleetTrace([]))
    refused_ns = card_clock.now - seen["clock_before"]
    assert refused_ns > 0  # the refused preload did spend card time
    assert target.busy_ns - seen["busy_before"] == refused_ns
    assert fleet.clock.now == 1_000.0 + refused_ns
    assert fleet.stats.heal_orders == 1
    assert fleet.stats.heals_completed == 0
    assert target.outstanding == 0


if __name__ == "__main__":
    GOLDEN_ORDER_SPANS.write_text(json.dumps(order_span_stream(), indent=1) + "\n")
