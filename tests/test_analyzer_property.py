"""Oracle-based property test for the Analyzer's failure taxonomy.

Hypothesis generates arbitrary per-address write chains and an arbitrary
post-fault observation for each address; an independent oracle computes the
expected verdict per packet straight from the §III-B rules, and the Analyzer
must agree exactly.  This pins the classification logic (supersession, FWA
vs data failure, per-packet aggregation) against every chain shape the
fuzzer can produce.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Analyzer, FailureKind
from repro.ssd.device import CORRUPT_TOKEN
from repro.workload.checksum import TOKEN_ZERO, page_token
from repro.workload.packet import DataPacket


class _FakeDevice:
    def __init__(self, contents: Dict[int, Optional[int]]):
        self.contents = contents
        self.reads: List[int] = []  # every page read, in order

    def peek_run(self, lpn: int, count: int) -> List[Optional[int]]:
        self.reads.extend(range(lpn, lpn + count))
        return [self.contents.get(page) for page in range(lpn, lpn + count)]


def oracle_verdict(
    chain: List[Tuple[int, int]],  # (packet_id, token) in ack order for one lpn
    observed: Optional[int],
    prior: int,
) -> Dict[int, Optional[FailureKind]]:
    """Expected per-packet verdict at one address, straight from §III-B."""
    observed_token = TOKEN_ZERO if observed is None else observed
    tokens = [token for _, token in chain]
    verdicts: Dict[int, Optional[FailureKind]] = {}
    for index, (packet_id, token) in enumerate(chain):
        if observed_token == token:
            verdicts[packet_id] = None  # data present
        elif observed_token in tokens[index + 1 :]:
            verdicts[packet_id] = None  # superseded by a later writer
        else:
            prior_for_packet = tokens[index - 1] if index > 0 else prior
            if observed_token == prior_for_packet and observed_token != CORRUPT_TOKEN:
                verdicts[packet_id] = FailureKind.FWA
            else:
                verdicts[packet_id] = FailureKind.DATA_FAILURE
    return verdicts


# Strategy: a handful of addresses, each with a write chain of 1-4 packets
# and an observation drawn from {chain tokens, prior, zero, corrupt, junk}.
@st.composite
def scenario(draw):
    lpn_count = draw(st.integers(1, 4))
    packets: List[DataPacket] = []
    contents: Dict[int, Optional[int]] = {}
    expected: Dict[int, Optional[FailureKind]] = {}
    spacing = draw(st.sampled_from([1, 10]))  # 1: one run read covers them all
    next_pid = 1
    ack_time = 0
    for lpn_index in range(lpn_count):
        lpn = lpn_index * spacing
        chain_len = draw(st.integers(1, 4))
        chain = []
        for _ in range(chain_len):
            pid = next_pid
            next_pid += 1
            ack_time += 1
            packet = DataPacket(
                packet_id=pid,
                address_lpn=lpn,
                page_count=1,
                is_write=True,
                queue_time=ack_time - 1,
                complete_time=ack_time,
            )
            packets.append(packet)
            chain.append((pid, packet.token_for(lpn)))
        prior = TOKEN_ZERO
        choices = (
            [token for _, token in chain]
            + [prior, None, CORRUPT_TOKEN, page_token(9999, 0)]
        )
        observed = draw(st.sampled_from(choices))
        contents[lpn] = observed
        expected.update(oracle_verdict(chain, observed, prior))
    return packets, contents, expected


class TestAnalyzerAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(scenario())
    def test_verdicts_match_oracle(self, data):
        packets, contents, expected = data
        device = _FakeDevice(contents)
        analyzer = Analyzer(device.peek_run)
        outcome = analyzer.verify_cycle(0, packets, [])
        got: Dict[int, Optional[FailureKind]] = {p.packet_id: None for p in packets}
        for record in outcome.records:
            got[record.packet_id] = record.kind
        assert got == expected
        assert sorted(device.reads) == sorted(contents)  # each address once

    @settings(max_examples=50, deadline=None)
    @given(scenario())
    def test_record_count_bounded_by_packets(self, data):
        packets, contents, _ = data
        analyzer = Analyzer(_FakeDevice(contents).peek_run)
        outcome = analyzer.verify_cycle(0, packets, [])
        assert len(outcome.records) <= len(packets)
        # At most one record per packet.
        ids = [r.packet_id for r in outcome.records]
        assert len(ids) == len(set(ids))

    @settings(max_examples=50, deadline=None)
    @given(scenario())
    def test_ledger_reconciles_to_observation(self, data):
        packets, contents, _ = data
        analyzer = Analyzer(_FakeDevice(contents).peek_run)
        analyzer.verify_cycle(0, packets, [])
        for lpn, observed in contents.items():
            expected_token = TOKEN_ZERO if observed is None else observed
            assert analyzer.expected_at(lpn) == expected_token
