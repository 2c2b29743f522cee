"""Tests for the Analyzer's §III-B failure taxonomy.

These use a real host system and manipulate device state directly to force
each classification deterministically.
"""

import pytest

from repro.core.analyzer import Analyzer, FailureKind
from repro.host import HostSystem
from repro.nand.pagestore import STATE_VALID
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.packet import DataPacket


def make_rig(seed=3):
    host = HostSystem(
        config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=20 * MSEC), seed=seed
    )
    host.boot()
    return host, Analyzer(host.ssd.peek_run)


def acked_write(host, analyzer, lpn, pages, packet_id):
    packet = DataPacket(
        packet_id=packet_id, address_lpn=lpn, page_count=pages, is_write=True
    )
    analyzer.snapshot_initial_checksums(packet)
    packet.queue_time = host.kernel.now
    request = host.write(lpn, packet.data_checksums)
    host.run_for_ms(500)  # ACK + flush + (lazy) checkpointing time
    assert request.ok
    packet.complete_time = request.complete_time
    return packet


def page_holding(host, token):
    """The PPA of the valid flash page that stores ``token``."""
    return next(
        ppa
        for ppa, state, stored, _, _ in host.ssd.chip.store.iter_entries()
        if state == STATE_VALID and stored == token
    )


class TestHealthyPath:
    def test_intact_write_passes(self):
        host, analyzer = make_rig()
        packet = acked_write(host, analyzer, 10, 2, 1)
        outcome = analyzer.verify_cycle(0, [packet], [])
        assert outcome.records == []
        assert packet.modified is True
        assert packet.data_failure is False

    def test_ledger_reconciled(self):
        host, analyzer = make_rig()
        packet = acked_write(host, analyzer, 10, 1, 1)
        analyzer.verify_cycle(0, [packet], [])
        assert analyzer.expected_at(10) == packet.token_for(10)

    def test_initial_checksums_snapshot(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        analyzer.verify_cycle(0, [first], [])
        second = DataPacket(packet_id=2, address_lpn=10, page_count=1, is_write=True)
        analyzer.snapshot_initial_checksums(second)
        assert second.initial_checksums == [first.token_for(10)]


class TestTaxonomy:
    def test_fwa_when_rolled_back_to_prior(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        analyzer.verify_cycle(0, [first], [])
        second = acked_write(host, analyzer, 10, 1, 2)
        # Force the rollback the recovery engine would perform on map loss:
        # find the first packet's page still on flash and re-point the map.
        host.ssd.ftl.page_map.bind(10, page_holding(host, first.token_for(10)))
        outcome = analyzer.verify_cycle(1, [second], [])
        assert outcome.count(FailureKind.FWA) == 1
        record = outcome.records[0]
        assert record.packet_id == 2
        assert record.observed_token == first.token_for(10)

    def test_data_failure_when_corrupt(self):
        host, analyzer = make_rig()
        packet = acked_write(host, analyzer, 10, 1, 1)
        ppa = host.ssd.ftl.lookup(10)
        host.ssd.chip.store.set_error_bits(ppa, 100_000)
        outcome = analyzer.verify_cycle(0, [packet], [])
        assert outcome.count(FailureKind.DATA_FAILURE) == 1
        assert packet.data_failure is True

    def test_data_failure_when_unmapped_after_prior_data(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        analyzer.verify_cycle(0, [first], [])
        second = acked_write(host, analyzer, 10, 1, 2)
        # Map entry vanished entirely: reads as erased; that matches neither
        # the new data nor the prior content -> data failure.
        host.ssd.ftl.page_map.unbind(10)
        outcome = analyzer.verify_cycle(1, [second], [])
        assert outcome.count(FailureKind.DATA_FAILURE) == 1

    def test_fwa_when_first_write_to_address_lost(self):
        host, analyzer = make_rig()
        packet = acked_write(host, analyzer, 10, 1, 1)
        # The address held nothing before; losing the mapping rolls back to
        # erased, which IS the prior content -> FWA.
        host.ssd.ftl.page_map.unbind(10)
        outcome = analyzer.verify_cycle(0, [packet], [])
        assert outcome.count(FailureKind.FWA) == 1

    def test_io_error_class(self):
        host, analyzer = make_rig()
        failed = DataPacket(packet_id=9, address_lpn=0, page_count=1, is_write=True)
        outcome = analyzer.verify_cycle(0, [], [failed])
        assert outcome.count(FailureKind.IO_ERROR) == 1
        assert failed.not_issued is True

    def test_one_record_per_failed_packet(self):
        host, analyzer = make_rig()
        packet = acked_write(host, analyzer, 10, 4, 1)
        for offset in range(4):
            ppa = host.ssd.ftl.lookup(10 + offset)
            host.ssd.chip.store.set_error_bits(ppa, 100_000)
        outcome = analyzer.verify_cycle(0, [packet], [])
        assert len(outcome.records) == 1  # four bad pages, one failed request


class TestSupersession:
    def test_superseded_write_not_blamed(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        second = acked_write(host, analyzer, 10, 1, 2)
        # Address holds the second write's data; the first was legitimately
        # overwritten and must not be counted as a failure.
        outcome = analyzer.verify_cycle(0, [first, second], [])
        assert outcome.records == []

    def test_waw_double_loss_counts_two_failures(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        second = acked_write(host, analyzer, 10, 1, 2)
        # Both versions gone; address reads erased (the pre-pair content).
        host.ssd.ftl.page_map.unbind(10)
        outcome = analyzer.verify_cycle(0, [first, second], [])
        assert len(outcome.records) == 2
        # First write rolled back to pre-pair content -> FWA;
        # second write matches neither its data nor its prior -> data failure.
        assert outcome.count(FailureKind.FWA) == 1
        assert outcome.count(FailureKind.DATA_FAILURE) == 1

    def test_record_names_lost_pages_in_first_appearance_order(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 11, 1, 1)
        second = acked_write(host, analyzer, 10, 1, 2)
        third = acked_write(host, analyzer, 10, 2, 3)
        for lpn in (10, 11):
            host.ssd.ftl.page_map.unbind(lpn)
        assert host.ssd.peek_run(10, 2) == [None, None]
        outcome = analyzer.verify_cycle(0, [first, second, third], [])
        # The third packet lost both pages to data failures.  Its record
        # names the page visited last in order of first appearance (ack
        # order, then LPN): LPN 11 first appeared in the first packet, so
        # LPN 10 comes after it.
        record = next(r for r in outcome.records if r.packet_id == 3)
        assert record.kind is FailureKind.DATA_FAILURE
        assert record.lpn == 10

    def test_waw_only_second_lost(self):
        host, analyzer = make_rig()
        first = acked_write(host, analyzer, 10, 1, 1)
        second = acked_write(host, analyzer, 10, 1, 2)
        # Roll back to the first write's data (second's map update lost).
        host.ssd.ftl.page_map.bind(10, page_holding(host, first.token_for(10)))
        outcome = analyzer.verify_cycle(0, [first, second], [])
        assert len(outcome.records) == 1
        assert outcome.records[0].packet_id == 2
        assert outcome.records[0].kind is FailureKind.FWA
