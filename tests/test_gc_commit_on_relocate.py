"""The GC relocate-before-commit durability hole and its config-gated fix.

GC moves a victim block's valid pages and erases the source.  The new
bindings are journaled as *volatile* map updates, so until the next
periodic commit a power fault strands them — and on a zero-luck device
(OOB recovery probabilities 0.0) recovery rolls every stranded update
back to its old binding, which now points into the erased block.  Data
the host had flushed *and* the journal had committed is gone.

``FtlConfig.gc_commit_on_relocate`` closes the window by committing the
journal between relocation and erase.  It defaults off because the
paper's §IV stranded-update statistics (and the calibrated tests) assume
the periodic timer is the only commit cadence; these tests prove both
sides of the knob deterministically — no recovery luck anywhere.
"""

import random

from repro.ftl import Ftl, FtlConfig
from repro.nand import FlashChip, NandGeometry
from repro.nand.chip import PageState
from repro.sim import Kernel
from repro.units import SEC


def make_zero_luck_ftl(commit_on_relocate):
    """A small FTL whose only commit points are explicit checkpoints.

    Zero-luck: both OOB recovery probabilities are 0.0, so every stranded
    update is deterministically lost; a huge journal interval keeps the
    periodic timer out of the story.
    """
    kernel = Kernel()
    geometry = NandGeometry(
        channels=1,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
    )
    chip = FlashChip(geometry, rng=random.Random(0))
    config = FtlConfig(
        mapping_policy="page",
        journal_commit_interval_us=100 * SEC,
        page_recovery_prob=0.0,
        extent_recovery_prob=0.0,
        gc_low_watermark=2,
        gc_high_watermark=5,
        gc_commit_on_relocate=commit_on_relocate,
    )
    ftl = Ftl(kernel, chip, config, random.Random(1))
    ftl.start()
    return kernel, chip, ftl


def write_one(ftl, lpn, token):
    plan = ftl.prepare_write([lpn])
    ftl.commit_write(plan, tokens=[token])


def fill_and_flush(ftl):
    """Build half-valid victim blocks, then make every binding durable.

    LPNs 0..63 fill eight blocks; overwriting the even LPNs invalidates
    half of each.  The explicit checkpoint then commits the whole map —
    everything the device holds at this point is *flushed* data.
    """
    expected = {}
    for lpn in range(64):
        write_one(ftl, lpn, 1000 + lpn)
        expected[lpn] = 1000 + lpn
    for lpn in range(0, 64, 2):
        write_one(ftl, lpn, 2000 + lpn)
        expected[lpn] = 2000 + lpn
    ftl.checkpoint()
    assert ftl.journal.pending_count == 0
    return expected


def force_gc(ftl):
    """Run the collector and make sure it actually relocated live data."""
    assert ftl.wear.free_count < ftl.gc.high_watermark
    reclaimed = ftl.gc.run()
    assert reclaimed > 0
    assert ftl.gc.pages_relocated > 0
    return reclaimed


def power_fault_and_recover(ftl, chip):
    ftl.power_loss()
    chip.power_loss()
    chip.power_on()
    return ftl.power_on_recover()


def read_mismatches(ftl, expected):
    """LPNs whose post-recovery content is not the flushed token."""
    losses = []
    for lpn, token in expected.items():
        result = ftl.read(lpn)
        if result.state is PageState.ERASED or result.token != token:
            losses.append(lpn)
    return losses


class TestKnobOn:
    def test_no_flushed_data_lost_across_gc_power_fault(self):
        """Zero-luck regression: commit-at-relocate leaves nothing stranded."""
        _, chip, ftl = make_zero_luck_ftl(commit_on_relocate=True)
        expected = fill_and_flush(ftl)
        force_gc(ftl)
        # The fix's whole point: the erase happened, but no map update is
        # volatile — there is no window for the fault to hit.
        assert ftl.journal.pending_count == 0
        report = power_fault_and_recover(ftl, chip)
        assert report.stranded_updates == 0
        assert report.lost_updates == 0
        assert read_mismatches(ftl, expected) == []

    def test_knob_reaches_ftl_through_device_config(self):
        from dataclasses import asdict

        from repro.ssd.device import SsdConfig

        config = SsdConfig(ftl=FtlConfig(gc_commit_on_relocate=True))
        assert config.ftl.gc_commit_on_relocate is True
        # The knob is a result-determining input, so it must feed the plan
        # fingerprint (CAS/checkpoint keying) via the device config tree.
        assert asdict(config)["ftl"]["gc_commit_on_relocate"] is True


class TestKnobOffContrast:
    def test_default_off_still_reproduces_the_loss(self):
        """Contrast: the unfixed path loses exactly the relocated pages.

        This documents the hole the default configuration deliberately
        keeps (ROADMAP: 'Known FTL durability hole') — a fault between the
        GC erase and the next periodic commit rolls relocated LPNs back to
        bindings inside the erased block.
        """
        _, chip, ftl = make_zero_luck_ftl(commit_on_relocate=False)
        assert FtlConfig().gc_commit_on_relocate is False  # default off
        expected = fill_and_flush(ftl)
        force_gc(ftl)
        relocated = ftl.gc.pages_relocated
        # The hole's window, made visible: relocation bindings are volatile
        # while the only other copy of the data has been erased.
        assert ftl.journal.pending_count == relocated
        report = power_fault_and_recover(ftl, chip)
        assert report.stranded_updates == relocated
        assert report.lost_updates == relocated
        losses = read_mismatches(ftl, expected)
        assert len(losses) == relocated
        # Every lost page reads as erased — rollback pointed it into the
        # reclaimed block, not at stale data.
        assert all(ftl.read(lpn).state is PageState.ERASED for lpn in losses)

    def test_knob_changes_plan_fingerprint(self):
        """The knob must never share a CAS/checkpoint key across settings."""
        from repro.engine import CampaignPlan
        from repro.ssd.device import SsdConfig
        from repro.workload.spec import WorkloadSpec

        def plan(knob):
            return CampaignPlan(
                spec=WorkloadSpec(),
                faults=2,
                device=SsdConfig(ftl=FtlConfig(gc_commit_on_relocate=knob)),
                base_seed=7,
            )

        assert plan(True).fingerprint() != plan(False).fingerprint()
