"""Tests for checksum tokens, data packets, specs, sequences, and the generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ftl import FtlConfig
from repro.host import HostSystem
from repro.rand import RandomStreams
from repro.ssd.device import SsdConfig
from repro.units import GIB, KIB, MIB, MSEC
from repro.workload import (
    SEQUENCES,
    AccessPattern,
    DataPacket,
    IOGenerator,
    WorkloadSpec,
    checksum_of,
    data_for,
    page_token,
    token_owner,
)
from repro.workload.checksum import page_checksum
from repro.workload.sequences import pair_for


class TestTokens:
    def test_roundtrip(self):
        assert token_owner(page_token(7, 3)) == (7, 3)

    @given(st.integers(1, 10_000), st.integers(0, 1023))
    def test_roundtrip_property(self, pid, offset):
        assert token_owner(page_token(pid, offset)) == (pid, offset)

    def test_uniqueness_across_packets(self):
        seen = set()
        for pid in range(1, 50):
            for offset in range(10):
                token = page_token(pid, offset)
                assert token not in seen
                seen.add(token)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            page_token(0, 0)
        with pytest.raises(ConfigurationError):
            page_token(1, 1024)
        with pytest.raises(ConfigurationError):
            token_owner(0)


class TestRealBytesMode:
    def test_data_deterministic(self):
        assert data_for(3, 1) == data_for(3, 1)

    def test_data_distinct_pages(self):
        assert data_for(3, 1) != data_for(3, 2)
        assert data_for(3, 1) != data_for(4, 1)

    def test_data_size(self):
        assert len(data_for(1, 0, size=4096)) == 4096
        assert len(data_for(1, 0, size=100)) == 100

    def test_checksum_matches_crc32(self):
        import zlib

        payload = data_for(9, 0)
        assert checksum_of(payload) == zlib.crc32(payload) & 0xFFFFFFFF

    def test_page_checksum_stable(self):
        assert page_checksum(5, 2) == page_checksum(5, 2)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            data_for(1, 0, size=0)


class TestDataPacket:
    def test_write_packet_auto_tokens(self):
        p = DataPacket(packet_id=3, address_lpn=10, page_count=4, is_write=True)
        assert p.data_checksums == [page_token(3, i) for i in range(4)]
        assert p.token_for(12) == page_token(3, 2)

    def test_size_and_range(self):
        p = DataPacket(packet_id=1, address_lpn=5, page_count=2, is_write=True)
        assert p.size_bytes == 8192
        assert list(p.lpns()) == [5, 6]

    def test_token_for_validation(self):
        p = DataPacket(packet_id=1, address_lpn=5, page_count=2, is_write=True)
        with pytest.raises(ConfigurationError):
            p.token_for(7)
        read = DataPacket(packet_id=2, address_lpn=5, page_count=2, is_write=False)
        with pytest.raises(ConfigurationError):
            read.token_for(5)

    def test_invalid_fields(self):
        with pytest.raises(ConfigurationError):
            DataPacket(packet_id=0, address_lpn=0, page_count=1, is_write=True)
        with pytest.raises(ConfigurationError):
            DataPacket(packet_id=1, address_lpn=0, page_count=0, is_write=True)


class TestWorkloadSpec:
    def test_defaults_match_paper_common_workload(self):
        spec = WorkloadSpec()
        assert spec.size_min_bytes == 4 * KIB
        assert spec.size_max_bytes == 1 * MIB
        assert spec.read_fraction == 0.0
        assert spec.pattern is AccessPattern.RANDOM

    def test_derived_pages(self):
        spec = WorkloadSpec(wss_bytes=1 * GIB)
        assert spec.wss_pages == 262144
        assert spec.size_min_pages == 1
        assert spec.size_max_pages == 256

    def test_fixed_size(self):
        spec = WorkloadSpec(size_min_bytes=64 * KIB, size_max_bytes=64 * KIB)
        assert spec.fixed_size

    def test_open_loop(self):
        assert WorkloadSpec(requested_iops=1200).open_loop
        assert not WorkloadSpec().open_loop

    def test_describe_mentions_parameters(self):
        text = WorkloadSpec(sequence="WAW", requested_iops=5000).describe()
        assert "WAW" in text and "iops=5000" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(read_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(size_min_bytes=1000)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(size_max_bytes=2 * KIB)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(wss_bytes=512 * KIB, size_max_bytes=1 * MIB)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(requested_iops=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(sequence="XYZ")


class TestSequences:
    def test_table(self):
        assert SEQUENCES["RAW"].first_is_write and not SEQUENCES["RAW"].second_is_write
        assert not SEQUENCES["WAR"].first_is_write and SEQUENCES["WAR"].second_is_write
        assert SEQUENCES["WAW"].write_fraction == 1.0
        assert SEQUENCES["RAR"].write_fraction == 0.0

    def test_pair_for_case_insensitive(self):
        assert pair_for("waw").name == "WAW"

    def test_pair_for_unknown(self):
        with pytest.raises(ConfigurationError):
            pair_for("XOXO")


def generator_host(seed=5):
    host = HostSystem(
        config=SsdConfig(capacity_bytes=2 * GIB, init_time_us=50 * MSEC), seed=seed
    )
    host.boot()
    return host


class TestIOGenerator:
    def test_closed_loop_sustains_traffic(self):
        host = generator_host()
        spec = WorkloadSpec(wss_bytes=1 * GIB, outstanding=8)
        gen = IOGenerator(host, spec, RandomStreams(1))
        gen.start()
        host.run_for_ms(300)
        assert gen.completions > 50
        assert len(gen.completed_writes) > 0

    def test_read_fraction_respected(self):
        host = generator_host()
        spec = WorkloadSpec(wss_bytes=1 * GIB, read_fraction=0.5, outstanding=8)
        gen = IOGenerator(host, spec, RandomStreams(2))
        gen.start()
        host.run_for_ms(500)
        writes = len(gen.completed_writes)
        reads = len(gen.completed_reads)
        assert writes > 0 and reads > 0
        fraction = reads / (reads + writes)
        assert 0.35 < fraction < 0.65

    def test_sequential_addresses_advance(self):
        host = generator_host()
        spec = WorkloadSpec(
            wss_bytes=1 * GIB, pattern=AccessPattern.SEQUENTIAL, outstanding=1
        )
        gen = IOGenerator(host, spec, RandomStreams(3))
        gen.start()
        host.run_for_ms(300)
        writes = sorted(gen.completed_writes, key=lambda p: p.queue_time)
        for first, second in zip(writes, writes[1:]):
            assert second.address_lpn == first.end_lpn

    def test_addresses_stay_in_working_set(self):
        host = generator_host()
        spec = WorkloadSpec(wss_bytes=64 * MIB, outstanding=4)
        gen = IOGenerator(host, spec, RandomStreams(4))
        gen.start()
        host.run_for_ms(300)
        for packet in gen.completed_writes:
            assert 0 <= packet.address_lpn
            assert packet.end_lpn <= spec.wss_pages

    def test_fixed_size_requests(self):
        host = generator_host()
        spec = WorkloadSpec(
            wss_bytes=1 * GIB,
            size_min_bytes=16 * KIB,
            size_max_bytes=16 * KIB,
            outstanding=4,
        )
        gen = IOGenerator(host, spec, RandomStreams(5))
        gen.start()
        host.run_for_ms(200)
        assert all(p.page_count == 4 for p in gen.completed_writes)

    def test_open_loop_paces_arrivals(self):
        host = generator_host()
        spec = WorkloadSpec(
            wss_bytes=1 * GIB,
            size_min_bytes=4 * KIB,
            size_max_bytes=4 * KIB,
            requested_iops=500.0,
        )
        gen = IOGenerator(host, spec, RandomStreams(6))
        gen.start()
        host.run_for_ms(1000)
        gen.stop()
        # ~500 arrivals in 1 s, well under the device ceiling.
        assert 350 <= gen.issued <= 650

    def test_open_loop_sheds_when_overloaded(self):
        host = generator_host()
        spec = WorkloadSpec(
            wss_bytes=1 * GIB,
            size_min_bytes=1 * MIB,
            size_max_bytes=1 * MIB,
            requested_iops=20_000.0,
        )
        gen = IOGenerator(host, spec, RandomStreams(7))
        gen.start()
        host.run_for_ms(300)
        gen.stop()
        assert gen.shed_arrivals > 0

    def test_sequence_pairs_share_address(self):
        host = generator_host()
        spec = WorkloadSpec(wss_bytes=1 * GIB, sequence="WAW", outstanding=2)
        gen = IOGenerator(host, spec, RandomStreams(8))
        gen.start()
        host.run_for_ms(300)
        writes = sorted(gen.completed_writes, key=lambda p: p.packet_id)
        # Consecutive packets come in same-address pairs.
        addresses = {}
        pairs = 0
        for packet in writes:
            if packet.address_lpn in addresses:
                pairs += 1
        # WAW: every address is written twice, so roughly half the packets
        # land on a previously-written address.
            addresses[packet.address_lpn] = packet
        assert pairs >= len(writes) // 3

    def test_drain_ledgers_resets(self):
        host = generator_host()
        gen = IOGenerator(host, WorkloadSpec(wss_bytes=1 * GIB, outstanding=4), RandomStreams(9))
        gen.start()
        host.run_for_ms(200)
        gen.stop()
        writes, reads, failed = gen.drain_ledgers()
        assert writes
        assert gen.completed_writes == []

    def test_stop_halts_new_issues(self):
        host = generator_host()
        gen = IOGenerator(host, WorkloadSpec(wss_bytes=1 * GIB, outstanding=4), RandomStreams(10))
        gen.start()
        host.run_for_ms(100)
        gen.stop()
        issued = gen.issued
        host.run_for_ms(200)
        assert gen.issued == issued
