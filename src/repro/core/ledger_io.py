"""Write-ledger persistence — the diskchecker-style workflow.

Scattered power-fail test scripts ("diskchecker.pl" and friends) all share
one pattern: a writer logs *what it wrote and when it was acknowledged* to
stable storage elsewhere, power is cut, and after reboot a checker replays
the log against the device.  This module gives the platform that workflow:

- :func:`save_ledger` / :func:`load_ledger` — JSON-lines serialisation of
  :class:`~repro.workload.packet.DataPacket` headers (the Fig. 2 fields);
- :func:`check_ledger` — replay a saved ledger against any
  ``peek_run(lpn, count) -> [token]`` source (simulated device or a
  real-device adapter) using the same §III-B taxonomy the campaign
  Analyzer applies.

The format is line-delimited JSON so a writer can append records durably
per-ACK, exactly as the hardware workflow requires.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.analyzer import Analyzer, VerificationOutcome
from repro.errors import CampaignError
from repro.workload.packet import DataPacket

FORMAT_VERSION = 1


def packet_to_record(packet: DataPacket) -> Dict:
    """JSON-safe dict of one packet's header (Fig. 2 fields)."""
    return {
        "v": FORMAT_VERSION,
        "id": packet.packet_id,
        "lpn": packet.address_lpn,
        "pages": packet.page_count,
        "write": packet.is_write,
        "queue_time": packet.queue_time,
        "complete_time": packet.complete_time,
        "data": list(packet.data_checksums),
        "initial": list(packet.initial_checksums),
    }


def record_to_packet(record: Dict) -> DataPacket:
    """Inverse of :func:`packet_to_record`."""
    if record.get("v") != FORMAT_VERSION:
        raise CampaignError(f"unsupported ledger record version {record.get('v')}")
    packet = DataPacket(
        packet_id=record["id"],
        address_lpn=record["lpn"],
        page_count=record["pages"],
        is_write=record["write"],
        queue_time=record["queue_time"],
        complete_time=record["complete_time"],
        data_checksums=list(record["data"]),
        initial_checksums=list(record["initial"]),
    )
    return packet


def save_ledger(packets: Iterable[DataPacket], path: Union[str, Path]) -> int:
    """Write packets as JSON lines.  Returns the record count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for packet in packets:
            handle.write(json.dumps(packet_to_record(packet)))
            handle.write("\n")
            count += 1
    return count


def load_ledger(path: Union[str, Path]) -> List[DataPacket]:
    """Read a JSON-lines ledger back into packets.

    A line that is not a JSON record of this format with every field
    raises :class:`~repro.errors.CampaignError` naming the file and the
    line.
    """
    path = Path(path)
    packets: List[DataPacket] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                packets.append(record_to_packet(json.loads(line)))
            except (ValueError, KeyError, TypeError, CampaignError) as exc:
                raise CampaignError(
                    f"{path}:{line_number}: corrupt ledger line "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
    return packets


def check_ledger(
    peek_run: Callable[[int, int], Sequence[Optional[int]]],
    packets: Iterable[DataPacket],
    cycle_index: int = 0,
) -> VerificationOutcome:
    """Verify a ledger against a device (the post-reboot checker step).

    ``peek_run(lpn, count)`` returns the data tokens currently visible on
    ``count`` pages from ``lpn`` (None = erased/unmapped).  Only
    acknowledged writes are judged; unacknowledged ones are classified IO
    errors, as in the campaign path.
    """
    analyzer = Analyzer(peek_run)
    packets = list(packets)
    acked_writes = [p for p in packets if p.is_write and p.acked]
    unacked = [p for p in packets if p.is_write and not p.acked]
    # Seed the "before" state from the ledgers' own initial checksums so the
    # FWA comparison uses the writer's recorded view.
    for packet in acked_writes:
        if not packet.initial_checksums:
            continue
        for lpn, initial in zip(packet.lpns(), packet.initial_checksums):
            analyzer._expected.setdefault(lpn, initial)
    return analyzer.verify_cycle(cycle_index, acked_writes, unacked)
