"""Ablation — the GC relocate-before-commit hole vs its config-gated fix.

ROADMAP's "known FTL durability hole": GC relocates a victim block's
valid pages and erases the source, but the new bindings stay *volatile*
until the next periodic map-journal commit.  A power fault inside that
window rolls every relocated LPN back to a binding inside the erased
block — data the host had flushed is gone.  ``gc_commit_on_relocate``
commits the journal between relocation and erase, closing the window.

This ablation runs the zero-luck scenario (OOB recovery probabilities
0.0, periodic timer parked) both ways and shows the contrast is exact:
with the knob off every relocated page is lost, with it on nothing is.
The knob defaults **off** because the paper's §IV stranded-update
statistics — and the calibrated tests — assume the periodic timer is the
only commit cadence.
"""

import random
from dataclasses import dataclass

from _common import print_banner

from repro.analysis import ascii_table
from repro.ftl import Ftl, FtlConfig
from repro.nand import FlashChip, NandGeometry
from repro.nand.chip import PageState
from repro.sim import Kernel
from repro.units import SEC


@dataclass
class GcCommitPoint:
    """One knob setting's outcome across a GC + power-fault cycle."""

    commit_on_relocate: bool
    pages_relocated: int
    stranded_updates: int
    lost_updates: int
    flushed_pages_lost: int


def _zero_luck_ftl(commit_on_relocate):
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
    return chip, ftl


def _run_one(commit_on_relocate):
    chip, ftl = _zero_luck_ftl(commit_on_relocate)
    expected = {}
    for lpn in range(64):
        plan = ftl.prepare_write([lpn])
        ftl.commit_write(plan, tokens=[1000 + lpn])
        expected[lpn] = 1000 + lpn
    for lpn in range(0, 64, 2):
        plan = ftl.prepare_write([lpn])
        ftl.commit_write(plan, tokens=[2000 + lpn])
        expected[lpn] = 2000 + lpn
    ftl.checkpoint()  # every binding durable: this is *flushed* data
    ftl.gc.run()
    ftl.power_loss()
    chip.power_loss()
    chip.power_on()
    report = ftl.power_on_recover()
    lost = sum(
        1
        for lpn, token in expected.items()
        if (read := ftl.read(lpn)).state is PageState.ERASED or read.token != token
    )
    return GcCommitPoint(
        commit_on_relocate=commit_on_relocate,
        pages_relocated=ftl.gc.pages_relocated,
        stranded_updates=report.stranded_updates,
        lost_updates=report.lost_updates,
        flushed_pages_lost=lost,
    )


def regenerate_gc_commit_ablation():
    return {knob: _run_one(knob) for knob in (False, True)}


def test_ablation_gc_commit_on_relocate(benchmark):
    results = benchmark.pedantic(
        regenerate_gc_commit_ablation, rounds=1, iterations=1
    )

    # No paper anchor: the hole is a model property the paper's §IV
    # statistics depend on, not a number the paper reports.
    print_banner(
        "Ablation: GC relocate-before-commit hole vs gc_commit_on_relocate", []
    )
    rows = [
        [
            "on" if point.commit_on_relocate else "off (default)",
            point.pages_relocated,
            point.stranded_updates,
            point.flushed_pages_lost,
        ]
        for point in results.values()
    ]
    print(
        ascii_table(
            ["gc_commit_on_relocate", "relocated", "stranded", "flushed lost"],
            rows,
        )
    )

    hole, fixed = results[False], results[True]
    # Both runs relocate the same pages; only the commit point differs.
    assert hole.pages_relocated == fixed.pages_relocated > 0
    # Knob off: every relocated page is stranded and lost (zero luck).
    assert hole.stranded_updates == hole.pages_relocated
    assert hole.flushed_pages_lost == hole.pages_relocated
    # Knob on: no volatile window exists, nothing is lost.
    assert fixed.stranded_updates == 0
    assert fixed.flushed_pages_lost == 0
