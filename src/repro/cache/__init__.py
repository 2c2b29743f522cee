"""Device-internal volatile write cache.

SSDs acknowledge writes as soon as the data lands in their DRAM buffer
("SSDs keep write pending requests in a volatile write-back DRAM cache",
paper §I).  Everything dirty in this buffer at the instant the controller
browns out is lost — the host has an ACK for data that never reached flash,
which the paper's Analyzer classifies as **False Write-Acknowledge**.

Public surface: :class:`~repro.cache.dram.WriteCache`,
:class:`~repro.cache.flush.FlushPolicy`,
:class:`~repro.cache.supercap.SupercapBackup`.
"""

from repro.cache.dram import WriteCache
from repro.cache.flush import FlushPolicy
from repro.cache.supercap import SupercapBackup

__all__ = ["FlushPolicy", "SupercapBackup", "WriteCache"]
