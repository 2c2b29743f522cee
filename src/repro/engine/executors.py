"""Shard-execution plumbing shared by the supervisor and the remote workers.

Every execution path — :class:`~repro.engine.supervisor.ShardSupervisor`
in-process or on its process pool, and ``repro worker`` processes serving
a :class:`~repro.engine.serve.CampaignService` — consumes the same ordered
``(plan ordinal, plan, shard)`` tasks and runs each one through
:func:`_run_shard_task`.  Workers receive the pickled
:class:`~repro.engine.plan.CampaignPlan` and hydrate their own platform
(simulation state never crosses process boundaries — only plans go in and
:class:`~repro.core.results.CampaignResult` records come back), so a
shard's result depends on its spec alone, never on where it ran.

The module also holds the capped-exponential :class:`BackoffPoller` used by
every head-of-line wait, and the injectable ``REPRO_ENGINE_TEST_FAULT``
fixture the engine's failure-path tests drive.
"""

from __future__ import annotations

import os
import time
from typing import Tuple

from repro.core.results import CampaignResult
from repro.engine.plan import CampaignPlan, ShardSpec
from repro.errors import CampaignError

ShardTask = Tuple[int, CampaignPlan, ShardSpec]
ShardKey = Tuple[int, int]

POLL_BASE_S = 0.005
"""First delay of a head-of-line poll loop (seconds)."""

POLL_CAP_S = 0.25
"""Ceiling of the exponential poll schedule (seconds)."""


class BackoffPoller:
    """Capped exponential delay schedule for busy-wait loops.

    Head-of-line waits used to poll at a fixed 0.05 s: responsive for
    sub-second shards, but a long shard burned 20 wakeups/s of pure idle
    churn per waiting loop.  The poller starts fast and doubles up to a
    cap, so short waits still resolve in milliseconds while a multi-minute
    shard costs 4 wakeups/s at most:

    >>> poller = BackoffPoller()
    >>> [poller.next_delay() for _ in range(8)]
    [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]

    ``reset()`` drops back to the base delay — call it when the awaited
    state changes (a new pickup observed, an event processed), because
    progress means more progress is likely soon.
    """

    def __init__(
        self,
        base_s: float = POLL_BASE_S,
        cap_s: float = POLL_CAP_S,
        factor: float = 2.0,
    ) -> None:
        self.base_s = base_s
        self.cap_s = max(base_s, cap_s)
        self.factor = factor
        self._current = base_s

    def next_delay(self) -> float:
        """The delay to sleep now; advances the schedule."""
        delay = min(self._current, self.cap_s)
        self._current = min(self._current * self.factor, self.cap_s)
        return delay

    def reset(self) -> None:
        """Drop back to the base delay (the awaited state just changed)."""
        self._current = self.base_s

TEST_FAULT_ENV = "REPRO_ENGINE_TEST_FAULT"
"""Injectable shard-failure fixture for the engine's own failure-path tests.

Format: ``MODE:SHARD:ATTEMPTS[:SECONDS]`` where ``MODE`` is ``crash``
(raise in the worker), ``exit`` (kill the worker process, breaking the
pool), ``hang`` (sleep ``SECONDS`` — default 30 — then raise), or ``slow``
(sleep ``SECONDS`` then run normally); ``SHARD`` is a shard index or ``*``;
``ATTEMPTS`` limits the fault to attempt numbers ``<= ATTEMPTS`` (``*`` =
every attempt).  Workers inherit the environment, so the fixture reaches
process-pool children without any plan plumbing.
"""


def _maybe_inject_test_fault(shard: ShardSpec, attempt: int) -> None:
    spec = os.environ.get(TEST_FAULT_ENV)
    if not spec:
        return
    parts = spec.split(":")
    if len(parts) < 3:
        raise CampaignError(
            f"{TEST_FAULT_ENV} must be MODE:SHARD:ATTEMPTS[:SECONDS], got {spec!r}"
        )
    mode, which, upto = parts[0], parts[1], parts[2]
    seconds = float(parts[3]) if len(parts) > 3 else 30.0
    if which != "*" and int(which) != shard.index:
        return
    if upto != "*" and attempt > int(upto):
        return
    if mode == "crash":
        raise RuntimeError(
            f"injected crash (shard {shard.index}, attempt {attempt})"
        )
    if mode == "exit":
        os._exit(13)
    if mode == "hang":
        time.sleep(seconds)
        raise RuntimeError(
            f"injected hang expired (shard {shard.index}, attempt {attempt})"
        )
    if mode == "slow":
        time.sleep(seconds)
        return
    raise CampaignError(f"unknown {TEST_FAULT_ENV} mode {mode!r}")


def _run_shard_task(
    plan: CampaignPlan, shard: ShardSpec, attempt: int = 1
) -> CampaignResult:
    """Worker entry point (module-level so it pickles).

    ``attempt`` only feeds the injectable test-fault fixture — it never
    touches the simulation, whose seed is fixed by the shard spec, so a
    retried shard reproduces the first attempt's result exactly.
    """
    _maybe_inject_test_fault(shard, attempt)
    return plan.run_shard(shard)
