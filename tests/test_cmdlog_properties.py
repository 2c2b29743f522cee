"""Property-based tests for the CRC line codec and the command log.

The acked-write audit is only sound if the command log never lies, so
hypothesis drives the same claims :mod:`tests.test_checkpoint_properties`
makes for the engine journal, against :mod:`repro.stress.cmdlog`:

- **lossless codec**: any record payload survives
  :func:`~repro.engine.checkpoint.encode_line` /
  :func:`~repro.engine.checkpoint.decode_line`, including a trip through
  file bytes — the one codec of the command log, the checkpoint journal
  and the result CAS, checked once per caller's typed error;
- **no silent corruption**: a flipped byte in the final line reads as a
  torn tail (crash mid-append, dropped); a flipped byte anywhere earlier
  refuses the whole log with :class:`~repro.errors.CmdlogError`;
- **duplicate idempotence**: re-appended records collapse to one fact on
  replay, so a re-run shard attempt cannot double-count an ACK.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.checkpoint import decode_line, encode_line
from repro.errors import CheckpointError, CmdlogError
from repro.stress.cmdlog import (
    dedupe_records,
    record_identity,
    replay_cmdlog,
)

counters = st.integers(min_value=0, max_value=2**53)
# JSON-safe payload text: json.dumps escapes everything, so any unicode
# is fair game for values; keys stay printable for readability of logs.
keys = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8
).filter(lambda k: k != "crc")  # reserved for the line codec (rejected loudly)

sub_records = st.fixed_dictionaries(
    {
        "v": st.just(1),
        "kind": st.just("sub"),
        "cycle": st.integers(0, 500),
        "cid": st.integers(1, 2**32),
        "op": st.sampled_from(["write", "read", "flush", "write_zeroes"]),
        "slba": counters,
        "nlb": st.integers(1, 64),
        "tokens": st.lists(counters, max_size=8),
        "t": counters,
    }
)

cpl_records = st.fixed_dictionaries(
    {
        "v": st.just(1),
        "kind": st.just("cpl"),
        "cycle": st.integers(0, 500),
        "cid": st.integers(1, 2**32),
        "op": st.sampled_from(["write", "read", "flush", "write_zeroes"]),
        "status": st.sampled_from(["success", "write_fault", "aborted_power_loss"]),
        "t": counters,
    }
)

mark_records = st.fixed_dictionaries(
    {
        "v": st.just(1),
        "kind": st.just("mark"),
        "cycle": st.integers(0, 500),
        "event": st.sampled_from(["power_fault", "recovery_fault", "power_on", "verified"]),
        "t": counters,
    }
)

any_record = st.one_of(sub_records, cpl_records, mark_records)

# Arbitrary JSON-object payloads: the codec itself is schema-agnostic.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), counters, st.text(max_size=12)),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)
arbitrary_payloads = st.dictionaries(keys, json_values, max_size=6)

# The codec raises its caller's typed error: the command log's, or the
# checkpoint journal's (which the result CAS shares).
errors = st.sampled_from([CmdlogError, CheckpointError])


def encode_record(payload):
    """One command-log line, encoded as :class:`CommandLog` writes it."""
    return encode_line(payload, CmdlogError)


class TestLineCodec:
    @given(arbitrary_payloads, errors)
    def test_round_trip_is_lossless(self, payload, error):
        assert decode_line(encode_line(payload, error), error) == payload

    @given(arbitrary_payloads, errors)
    def test_round_trip_survives_file_bytes(self, payload, error):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "one.jsonl"
            path.write_text(encode_line(payload, error) + "\n", encoding="utf-8")
            line = path.read_text(encoding="utf-8").splitlines()[0]
        assert decode_line(line, error) == payload

    @given(any_record, errors, st.data())
    def test_flipped_byte_is_rejected(self, payload, error, data):
        line = encode_line(payload, error)
        col = data.draw(st.integers(0, len(line) - 1), label="col")
        flipped = data.draw(
            st.characters(min_codepoint=33, max_codepoint=126).filter(
                lambda c: c != line[col]
            ),
            label="flipped",
        )
        damaged = line[:col] + flipped + line[col + 1 :]
        # A one-character substitution is a <=8-bit burst, which CRC32
        # always catches — unless the substitution lands inside the crc
        # field itself and happens to change nothing checksummed; that
        # still mismatches, because the payload didn't change.
        with pytest.raises(error):
            decode_line(damaged, error)

    @given(errors)
    def test_reserved_crc_key_rejected(self, error):
        # A payload carrying the codec's own checksum field would be
        # silently clobbered and could never round-trip — refuse it at
        # encode time instead of corrupting on decode.
        with pytest.raises(error, match="reserved"):
            encode_line({"crc": None}, error)

    @given(st.text(max_size=40), errors)
    def test_garbage_lines_never_crash_differently(self, garbage, error):
        try:
            decode_line(garbage, error)
        except error:
            pass


logs = st.lists(any_record, min_size=1, max_size=10)


class TestReplayProperties:
    @given(logs)
    @settings(max_examples=30, deadline=None)
    def test_clean_log_replays_in_order(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cmd.jsonl"
            path.write_text(
                "".join(encode_record(r) + "\n" for r in records), encoding="utf-8"
            )
            replayed = replay_cmdlog(path)
        unique, duplicates = dedupe_records(records)
        assert replayed.records == unique
        assert replayed.duplicates_dropped == duplicates
        assert not replayed.dropped_tail

    @given(logs, st.data())
    @settings(max_examples=30, deadline=None)
    def test_flipped_byte_never_replays_silently(self, records, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cmd.jsonl"
            path.write_text(
                "".join(encode_record(r) + "\n" for r in records), encoding="utf-8"
            )
            lines = path.read_text(encoding="utf-8").splitlines()
            row = data.draw(st.integers(0, len(lines) - 1), label="row")
            col = data.draw(st.integers(0, len(lines[row]) - 1), label="col")
            flipped = data.draw(
                st.characters(min_codepoint=33, max_codepoint=126).filter(
                    lambda c: c != lines[row][col]
                ),
                label="flipped",
            )
            lines[row] = lines[row][:col] + flipped + lines[row][col + 1 :]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if row == len(lines) - 1:
                replayed = replay_cmdlog(path)
                assert replayed.dropped_tail
                unique, _ = dedupe_records(records[:-1])
                assert replayed.records == unique
            else:
                with pytest.raises(CmdlogError):
                    replay_cmdlog(path)

    @given(logs, st.data())
    @settings(max_examples=30, deadline=None)
    def test_torn_tail_discards_only_the_last_record(self, records, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cmd.jsonl"
            lines = [encode_record(r) for r in records]
            keep = data.draw(st.integers(1, max(1, len(lines[-1]) - 1)), label="keep")
            torn = "\n".join(lines[:-1] + [lines[-1][:keep]])
            path.write_text(torn, encoding="utf-8")
            replayed = replay_cmdlog(path)
        assert replayed.dropped_tail
        unique, _ = dedupe_records(records[:-1])
        assert replayed.records == unique

    @given(logs)
    @settings(max_examples=30, deadline=None)
    def test_duplicate_records_collapse(self, records):
        # Append the whole log twice — the crash/re-run overlap in the
        # worst case.  Replay must serve each fact exactly once.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cmd.jsonl"
            doubled = records + records
            path.write_text(
                "".join(encode_record(r) + "\n" for r in doubled), encoding="utf-8"
            )
            replayed = replay_cmdlog(path)
        unique, _ = dedupe_records(records)
        assert replayed.records == unique
        identities = [record_identity(r) for r in replayed.records]
        assert len(identities) == len(set(identities))
