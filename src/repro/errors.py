"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from runtime device conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a kernel that has
    already been shut down, or re-entering ``run`` from inside a handler.
    """


class PowerError(ReproError):
    """Invalid interaction with the power substrate.

    For instance driving the ATX ``PS_ON#`` pin of a PSU that has no mains
    input, or probing a rail that does not exist.
    """


class DeviceUnavailableError(ReproError):
    """An IO command was issued to a device that is not powered/ready.

    Mirrors the host-visible condition the paper reports as *IO error*:
    the SSD drops off the bus once its supply falls below 4.5 V.
    """


class ProtocolError(ReproError):
    """A device command violated the link/command protocol.

    E.g. reading past the device capacity or issuing a zero-length request.
    """


class AddressError(ProtocolError):
    """A logical block address is outside the device's addressable range."""


class RecoveryError(ReproError):
    """Power-on recovery could not reconstruct FTL state.

    Corresponds to the catastrophic "unserializable"/"dead device" outcomes
    reported by Zheng et al. (FAST'13) and referenced by the paper.
    """


class CampaignError(ReproError):
    """A fault-injection campaign was configured or sequenced incorrectly."""


class ShardFailureError(CampaignError):
    """A campaign shard exhausted its retry budget.

    Raised by the engine supervisor when a shard keeps crashing, timing
    out, or killing its worker and quarantine is not enabled; the message
    names the shard and its last failure reason.
    """


class CampaignInterrupted(CampaignError):
    """A campaign run was stopped by SIGINT/SIGTERM.

    The supervisor flushes the checkpoint journal before raising, so a
    run started with ``--checkpoint`` can be restarted with ``--resume``.
    """


class RemoteProtocolError(CampaignError):
    """A distributed-execution peer violated the coordinator wire protocol.

    Raised for malformed or oversized frames, handshake version or plan
    fingerprint mismatches, and frames that arrive out of protocol order.
    A worker rejected at handshake receives the reason before the
    connection closes.
    """


class CheckpointError(ReproError):
    """The shard checkpoint journal is unreadable or internally corrupt.

    A torn final record (crash mid-append) is *not* an error — replay
    discards it — but corruption anywhere before the tail is.
    """


class NvmeQueueError(ProtocolError):
    """An NVMe queue-pair invariant was violated.

    Raised for a submission pushed into a full submission queue, a
    completion posted to a full completion queue (fatal on real hardware),
    or admin access to an unknown log page.
    """


class CmdlogError(ReproError):
    """The stress harness's command log is unreadable or internally corrupt.

    Mirrors :class:`CheckpointError`'s contract: a torn *final* record
    (crash mid-append) is tolerated on replay, damage anywhere before the
    tail raises.
    """


class StressAuditError(ReproError):
    """A dirty-power-cycle audit assertion failed.

    Raised when the device's self-reported SMART counters (unsafe
    shutdowns, power cycles) disagree with the number of faults the harness
    actually injected — the self-reporting-vs-ground-truth comparison the
    paper's methodology calls for.
    """


class AppAuditError(ReproError):
    """An application-level semantic audit invariant was violated.

    Raised when the verdict partition over an app's promise log is not
    exact (a promise classified twice, or an acked promise left
    unclassified), or when a protocol invariant the apps stake their
    recovery on — e.g. rename atomicity of a manifest/checkpoint swap, or
    durability of a synced rename — does not hold after a power cycle.
    Unlike an app-level data loss (which is *classified*, not raised),
    these are harness/filesystem contract violations.
    """


class TraceError(ReproError):
    """A block trace was queried for an unknown request, or a trace file is corrupt."""


class EngineTraceError(ReproError):
    """An engine telemetry trace file is unreadable or internally corrupt.

    As with the checkpoint journal, a torn *final* record (crash mid-append)
    is tolerated on read; damage anywhere before the tail raises.
    """
