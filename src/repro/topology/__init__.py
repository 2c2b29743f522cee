"""Multi-device cache topologies under power-fault campaigns.

The paper studies one SSD losing acknowledged writes on power failure;
Ahmadian et al.'s follow-up (PAPERS.md, arXiv:1912.01555) shows the same
mechanism amplified in enterprise systems where a write-back SSD cache
fronts a durable array — a fault in the cache tier silently loses data the
application believes durable.  This package composes the already-built
pieces (``repro.cache`` policies, ``repro.host`` drive stacks as cache
legs, ``repro.power`` domains) into such topologies and runs the fault
campaign against the *topology*, classifying each acknowledged host write
as device-intact, device-FWA-but-topology-recovered, or application-visible
loss.

Public surface: :class:`~repro.topology.stack.CacheTopology`,
:class:`~repro.topology.backing.BackingStore`,
:class:`~repro.topology.plan.TopologyPlan`,
:func:`~repro.topology.plan.run_topology_shard`.
"""

from repro.topology.backing import BackingStore
from repro.topology.plan import TopologyPlan, run_topology_shard
from repro.topology.stack import POLICIES, CacheTopology, CycleAudit

__all__ = [
    "BackingStore",
    "CacheTopology",
    "CycleAudit",
    "POLICIES",
    "TopologyPlan",
    "run_topology_shard",
]
