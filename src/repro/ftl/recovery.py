"""Power-on recovery of the mapping table.

After an unclean power loss the FTL reloads the last journal commit and then
scans block out-of-band (OOB) areas trying to reconstruct the mapping
updates that were still volatile.  Real controllers differ wildly in how
well this works — the paper (and Zheng et al. before it) observed that many
devices silently lose some of these updates, which the host perceives as
*False Write-Acknowledge* (old data intact at the address) or as data
failures.

The model draws one Bernoulli per stranded update group:

- **page-map updates** are independent entries; each is reconstructed with
  probability ``page_recovery_prob``;
- **extent updates sharing one table entry live or die together** — a
  sequential run is a single DRAM object, so if the scan cannot rebuild it,
  *every* page the run gained since the last commit is lost at once.  This
  is the amplification behind §IV-D's ~14 % sequential excess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigurationError
from repro.ftl.journal import MapUpdate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.ftl import Ftl


@dataclass
class RecoveryReport:
    """Outcome of one power-on recovery pass.

    ``pass_index`` counts completed recoveries on this engine (1-based);
    ``resumed_after_interrupt`` is True when at least one earlier attempt
    was cut short by another power loss before this pass could apply — the
    double-fault-during-recovery scenario the stress harness exercises.
    """

    stranded_updates: int = 0
    recovered_updates: int = 0
    lost_updates: int = 0
    lost_lpns: List[int] = field(default_factory=list)
    lost_extent_runs: int = 0
    pass_index: int = 0
    resumed_after_interrupt: bool = False


class RecoveryEngine:
    """Replays the journal and arbitrates stranded updates.

    Example
    -------
    The engine is exercised through :meth:`repro.ftl.ftl.Ftl.power_on_recover`;
    see the FTL tests for end-to-end scenarios.
    """

    def __init__(
        self,
        ftl: "Ftl",
        rng: Random,
        page_recovery_prob: float,
        extent_recovery_prob: float,
    ) -> None:
        for name, value in (
            ("page_recovery_prob", page_recovery_prob),
            ("extent_recovery_prob", extent_recovery_prob),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be a probability")
        self.ftl = ftl
        self.rng = rng
        self.page_recovery_prob = page_recovery_prob
        self.extent_recovery_prob = extent_recovery_prob
        self.passes_completed = 0
        self.interruptions = 0
        self._interrupted_since_last_pass = 0

    def note_interrupted(self) -> None:
        """Record a recovery attempt cut short by another power loss.

        Nothing is rolled back or cleared: the scan had not applied yet, so
        the stranded updates remain journaled on media and the next
        :meth:`recover` sees exactly the same population (rebuilt from
        media, with fresh per-update draws).
        """
        self.interruptions += 1
        self._interrupted_since_last_pass += 1

    def recover(self) -> RecoveryReport:
        """Resolve every stranded update; returns what was lost.

        Updates are processed newest-first so that rolling one back restores
        the state the *previous* stranded update left (matching how an OOB
        scan walks write order).
        """
        stranded = self.ftl.journal.stranded_updates()
        self.passes_completed += 1
        report = RecoveryReport(
            stranded_updates=len(stranded),
            pass_index=self.passes_completed,
            resumed_after_interrupt=self._interrupted_since_last_pass > 0,
        )
        self._interrupted_since_last_pass = 0

        # Extent updates sharing a table entry share one fate.
        extent_fate: Dict[int, bool] = {}
        for update in stranded:
            if update.kind == "extent" and update.extent_start is not None:
                if update.extent_start not in extent_fate:
                    extent_fate[update.extent_start] = (
                        self.rng.random() < self.extent_recovery_prob
                    )

        lost_runs: set = set()
        for update in reversed(stranded):
            if update.kind == "extent":
                survived = extent_fate.get(update.extent_start, True)
                if not survived:
                    lost_runs.add(update.extent_start)
            else:
                survived = self.rng.random() < self.page_recovery_prob
            if survived:
                report.recovered_updates += 1
                continue
            report.lost_updates += 1
            self._rollback(update)
            report.lost_lpns.extend(update.lpns)
        report.lost_extent_runs = len(lost_runs)

        self.ftl.journal.clear_stranded()
        # The recovered state is checkpointed before the device goes ready.
        self.ftl.checkpoint()
        return report

    def _rollback(self, update: MapUpdate) -> None:
        """Return the mapping of every LPN in ``update`` to its prior state."""
        if update.kind == "extent":
            if update.lpns:
                self.ftl.extent_map.unmap_range(min(update.lpns), max(update.lpns) + 1)
        for lpn in update.lpns:
            old = update.old_bindings.get(lpn)
            if update.kind == "extent":
                # The page map may hold the pre-extent binding.
                if old is not None:
                    self.ftl.page_map.restore(lpn, old)
            else:
                self.ftl.page_map.restore(lpn, old)
