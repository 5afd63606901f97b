"""Control-plane orders: OS-level work queued behind a card's requests.

Each order is one MCU command — scrub, defrag, preload (heal), capture,
restore or evict — as data for ``Fleet._run_order`` (see :class:`Order`).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import names as _obs_names


class Order:
    """One control-plane order: a ``span`` name, a ``ready`` precondition,
    the ``apply`` driver call and a ``settle`` step booking the outcome."""

    __slots__ = ()

    #: Trace span name of this order kind.
    span = ""

    def ready(self, fleet, card) -> bool:
        """Precondition beyond card health; the order is skipped when False."""
        return True

    def apply(self, card) -> None:
        """The one driver call (raises ``CoprocessorError`` when refused)."""
        raise NotImplementedError

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        """Book the outcome; returns the span attributes beyond ``card``.

        *done* is ``None`` when the order did not run (card down or not
        ready), ``False`` when the card refused it, ``True`` when it
        completed.
        """
        return {}


class ScrubOrder(Order):
    """Run one readback-scrub window."""

    __slots__ = ("frames",)
    span = _obs_names.SPAN_ORDER_SCRUB

    def __init__(self, frames: Optional[int]) -> None:
        self.frames = frames

    def apply(self, card) -> None:
        scrubber = card.driver.coprocessor.scrubber
        if scrubber is not None:
            scrubber.scrub_pass(max_frames=self.frames)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        card.pending_orders.discard("scrub")
        return {}


class DefragOrder(Order):
    """Run one bounded defragmentation pass.

    A pass the port wedges part-way leaves every function intact where it
    was; the compaction time already spent is charged like any refusal.
    """

    __slots__ = ("max_moves",)
    span = _obs_names.SPAN_ORDER_DEFRAG

    def __init__(self, max_moves: Optional[int]) -> None:
        self.max_moves = max_moves

    def apply(self, card) -> None:
        card.driver.defrag_card(self.max_moves if self.max_moves is not None else 0)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        card.pending_orders.discard("defrag")
        return {}


class HealOrder(Order):
    """Re-resident-ize a dead card's function (best effort: a refused heal
    leaves the function cold until it is requested)."""

    __slots__ = ("function", "failed_card", "killed_at_ns")
    span = _obs_names.SPAN_ORDER_HEAL

    def __init__(self, function: str, failed_card: str, killed_at_ns: float) -> None:
        self.function = function
        self.failed_card = failed_card
        self.killed_at_ns = killed_at_ns

    def apply(self, card) -> None:
        card.driver.preload(self.function)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        if done:
            fleet.stats.record_heal(
                self.function, card.name, self.killed_at_ns, fleet.clock.now
            )
        return {"function": self.function, "healed": done is True}


class MigrateOrder(Order):
    """Source side: capture a function and hand the image to the destination."""

    __slots__ = ("function", "dest_index", "ordered_ns", "frames", "blob")
    span = _obs_names.SPAN_ORDER_MIGRATE_CAPTURE

    def __init__(self, function: str, dest_index: int, ordered_ns: float) -> None:
        self.function = function
        self.dest_index = dest_index
        self.ordered_ns = ordered_ns

    def ready(self, fleet, card) -> bool:
        return card.driver.card.is_resident(self.function)

    def apply(self, card) -> None:
        self.frames = len(card.driver.coprocessor.device.region_of(self.function))
        self.blob = card.driver.capture_function(self.function)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        function = self.function
        dest = fleet.cards[self.dest_index]
        if done and dest.health != "down":
            fleet._enqueue(
                dest,
                RestoreOrder(function, self.blob, card.index, self.frames, self.ordered_ns),
            )
            return {"function": function, "handed_off": True}
        if done:
            failed_on, reason = dest.name, "dest-down"
        else:
            failed_on = card.name
            reason = "source-lost" if done is None else "capture-failed"
        fleet.stats.record_migration_failed(function, failed_on, reason, fleet.clock.now)
        fleet.migrating.discard(function)
        return {"function": function, "handed_off": False}


class RestoreOrder(Order):
    """Destination side: restore a captured image, then order the release.

    A refused restore (wedged port or capacity) costs time, not service: the
    function is still resident and serving on the source.
    """

    __slots__ = ("function", "blob", "source_index", "frames", "ordered_ns")
    span = _obs_names.SPAN_ORDER_MIGRATE_RESTORE

    def __init__(
        self,
        function: str,
        blob: bytes,
        source_index: int,
        frames: int,
        ordered_ns: float,
    ) -> None:
        self.function = function
        self.blob = blob
        self.source_index = source_index
        self.frames = frames
        self.ordered_ns = ordered_ns

    def apply(self, card) -> None:
        card.driver.restore_function(self.function, self.blob)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        function = self.function
        if not done:
            reason = "dest-died" if done is None else "restore-failed"
            fleet.stats.record_migration_failed(
                function, card.name, reason, fleet.clock.now
            )
            fleet.migrating.discard(function)
            return {"function": function, "restored": False}
        release = ReleaseOrder(
            function,
            card.name,
            len(self.blob),
            self.frames,
            self.ordered_ns,
            _blob_matches_readback(card, function, self.blob),
        )
        source = fleet.cards[self.source_index]
        if source.health != "down" and source.driver.card.is_resident(function):
            fleet._enqueue(source, release)
        else:
            # The source died (or already lost the frames) while the image
            # was in flight — the restore itself completes the migration;
            # there is nothing left to release.
            release.complete(fleet, source.name)
        return {"function": function, "restored": True}


class ReleaseOrder(Order):
    """Source side: evict a migrated function; completes the migration."""

    __slots__ = ("function", "dest_name", "blob_bytes", "frames", "ordered_ns", "byte_identical")
    span = _obs_names.SPAN_ORDER_MIGRATE_RELEASE

    def __init__(
        self,
        function: str,
        dest_name: str,
        blob_bytes: int,
        frames: int,
        ordered_ns: float,
        byte_identical: bool,
    ) -> None:
        self.function = function
        self.dest_name = dest_name
        self.blob_bytes = blob_bytes
        self.frames = frames
        self.ordered_ns = ordered_ns
        self.byte_identical = byte_identical

    def ready(self, fleet, card) -> bool:
        return card.driver.card.is_resident(self.function)

    def apply(self, card) -> None:
        card.driver.evict(self.function)

    def settle(self, fleet, card, done: Optional[bool]) -> dict:
        self.complete(fleet, card.name)
        return {"function": self.function}

    def complete(self, fleet, source_name: str) -> None:
        """Book the migration as done: the function now lives on the
        destination (the source copy is released or already gone)."""
        fleet.migrating.discard(self.function)
        fleet.stats.record_migration(
            self.function,
            source_name,
            self.dest_name,
            self.ordered_ns,
            fleet.clock.now,
            self.frames,
            self.blob_bytes,
            self.byte_identical,
        )


def _blob_matches_readback(card, function: str, blob: bytes) -> bool:
    """Does *card*'s live readback of *function* match the migration blob?

    Host-side verification (no simulated time): decompress the blob and
    compare against the destination's configuration readback.  Any mismatch
    is a migration-induced byte diff — the safety property the rebalance
    experiments assert stays at zero.
    """
    from repro.bitstream.format import parse_bitstream
    from repro.bitstream.window import CompressedImage, WindowedDecompressor

    image = CompressedImage.from_bytes(blob)
    bitstream = parse_bitstream(WindowedDecompressor(image).decompress_all())
    return card.driver.coprocessor.device.verify_readback(function, bitstream)
