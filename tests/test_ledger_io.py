"""Tests for ledger persistence and the standalone checker."""

import json

import pytest

from repro.core.analyzer import FailureKind
from repro.core.ledger_io import (
    check_ledger,
    load_ledger,
    packet_to_record,
    record_to_packet,
    save_ledger,
)
from repro.errors import CampaignError
from repro.host import HostSystem
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.packet import DataPacket


def make_packet(pid=1, lpn=10, pages=2, complete_time=100):
    packet = DataPacket(
        packet_id=pid,
        address_lpn=lpn,
        page_count=pages,
        is_write=True,
        queue_time=0,
        complete_time=complete_time,
    )
    packet.initial_checksums = [0] * pages
    return packet


class TestSerialisation:
    def test_roundtrip_record(self):
        packet = make_packet()
        clone = record_to_packet(packet_to_record(packet))
        assert clone.packet_id == packet.packet_id
        assert clone.data_checksums == packet.data_checksums
        assert clone.initial_checksums == packet.initial_checksums
        assert clone.complete_time == packet.complete_time

    def test_version_check(self):
        record = packet_to_record(make_packet())
        record["v"] = 99
        with pytest.raises(CampaignError):
            record_to_packet(record)

    def test_save_load_file(self, tmp_path):
        packets = [make_packet(pid=i + 1, lpn=i * 8) for i in range(5)]
        path = tmp_path / "ledger.jsonl"
        assert save_ledger(packets, path) == 5
        loaded = load_ledger(path)
        assert [p.packet_id for p in loaded] == [1, 2, 3, 4, 5]

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps(packet_to_record(make_packet())) + "\n\n", encoding="utf-8"
        )
        assert len(load_ledger(path)) == 1

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(CampaignError) as excinfo:
            load_ledger(path)
        assert ":1:" in str(excinfo.value)

    @pytest.mark.parametrize("damage", ["torn", "missing-field"])
    def test_damaged_line_names_file_and_line(self, tmp_path, damage):
        good = packet_to_record(make_packet())
        if damage == "torn":
            bad = json.dumps(good)[:40]
        else:
            bad = json.dumps({k: v for k, v in good.items() if k != "pages"})
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CampaignError, match=r"ledger\.jsonl:2: "):
            load_ledger(path)


def run_source(store):
    """A ``peek_run`` over a dict of page tokens."""
    return lambda lpn, count: [store.get(page) for page in range(lpn, lpn + count)]


class TestStandaloneChecker:
    def test_clean_device_passes(self):
        packet = make_packet()
        store = {lpn: packet.token_for(lpn) for lpn in packet.lpns()}
        outcome = check_ledger(run_source(store), [packet])
        assert outcome.records == []

    def test_fwa_detected(self):
        packet = make_packet()
        store = {}  # nothing landed: address reads as before (erased)
        outcome = check_ledger(run_source(store), [packet])
        assert outcome.count(FailureKind.FWA) == 1

    def test_data_failure_detected(self):
        packet = make_packet()
        store = {lpn: -1 for lpn in packet.lpns()}  # corrupt sentinel
        outcome = check_ledger(run_source(store), [packet])
        assert outcome.count(FailureKind.DATA_FAILURE) == 1

    def test_unacked_write_is_io_error(self):
        packet = make_packet(complete_time=-1)
        outcome = check_ledger(run_source({}), [packet])
        assert outcome.count(FailureKind.IO_ERROR) == 1

    def test_initial_checksums_drive_fwa(self):
        # The address held token 555 before the write (recorded by the
        # writer); post-fault it still does -> FWA, not data failure.
        packet = make_packet()
        packet.initial_checksums = [555] * packet.page_count
        store = {lpn: 555 for lpn in packet.lpns()}
        outcome = check_ledger(run_source(store), [packet])
        assert outcome.count(FailureKind.FWA) == 1
        assert outcome.count(FailureKind.DATA_FAILURE) == 0


class TestEndToEndWorkflow:
    def test_campaign_ledger_roundtrip(self, tmp_path):
        """Writer logs per-ACK, power fails, checker replays after reboot."""
        host = HostSystem(
            config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=30 * MSEC), seed=9
        )
        host.boot()
        packets = []
        for index in range(10):
            packet = DataPacket(
                packet_id=index + 1,
                address_lpn=index * 16,
                page_count=2,
                is_write=True,
                queue_time=host.kernel.now,
            )
            packet.initial_checksums = [0, 0]

            def stamp(request, packet=packet):
                packet.complete_time = request.complete_time

            host.write(packet.address_lpn, packet.data_checksums, on_done=stamp)
            packets.append(packet)
        host.run_for_ms(20)
        path = tmp_path / "writes.jsonl"
        save_ledger(packets, path)

        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()

        outcome = check_ledger(host.ssd.peek_run, load_ledger(path))
        # Every acked packet is either intact or classified; nothing crashes,
        # totals are consistent.
        acked = sum(1 for p in packets if p.acked)
        assert outcome.packets_checked == len(packets)
        assert 0 <= len(outcome.records) <= len(packets)
