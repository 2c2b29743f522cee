"""Stateful property test: the FTL must behave like a plain dict.

A hypothesis rule-based state machine drives the FTL with random writes,
overwrites, GC pressure, and journal checkpoints, and after every step
compares every readable LPN against a reference dict.  This is the core
translation-layer invariant: absent power faults, the device is a linear
address space.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ftl import Ftl, FtlConfig
from repro.nand import FlashChip, NandGeometry
from repro.nand.chip import PageState
from repro.sim import Kernel
from repro.units import MSEC

LPN_SPACE = 64  # small so overwrites and GC pressure are frequent


class FtlMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = Kernel()
        geometry = NandGeometry(
            channels=1,
            dies_per_channel=1,
            planes_per_die=1,
            blocks_per_plane=24,
            pages_per_block=8,
        )
        chip = FlashChip(geometry, rng=random.Random(0))
        self.ftl = Ftl(
            self.kernel,
            chip,
            FtlConfig(
                journal_commit_interval_us=50 * MSEC,
                gc_low_watermark=3,
                gc_high_watermark=6,
            ),
            random.Random(1),
        )
        self.ftl.start()
        self.reference = {}
        self.next_token = 1

    @rule(lpn=st.integers(0, LPN_SPACE - 1), length=st.integers(1, 6))
    def write_run(self, lpn, length):
        length = min(length, LPN_SPACE - lpn)
        lpns = list(range(lpn, lpn + length))
        tokens = list(range(self.next_token, self.next_token + length))
        self.next_token += length
        plan = self.ftl.prepare_write(lpns)
        self.ftl.commit_write(plan, tokens)
        for l, t in zip(lpns, tokens):
            self.reference[l] = t

    @rule()
    def advance_time(self):
        self.kernel.run(until=self.kernel.now + 10 * MSEC)

    @rule()
    def checkpoint(self):
        self.ftl.checkpoint()

    @invariant()
    def reads_match_reference(self):
        for lpn in range(LPN_SPACE):
            result = self.ftl.read(lpn)
            expected = self.reference.get(lpn)
            if expected is None:
                assert result.state is PageState.ERASED, lpn
            else:
                assert result.ok, (lpn, result)
                assert result.token == expected, lpn

    @invariant()
    def maps_disjoint(self):
        # The page map and extent map never both cover an LPN.
        for lpn in range(LPN_SPACE):
            in_page = self.ftl.page_map.lookup(lpn) is not None
            in_extent = self.ftl.extent_map.lookup(lpn) is not None
            assert not (in_page and in_extent), lpn

    @invariant()
    def free_pool_consistent(self):
        assert 0 <= self.ftl.wear.free_count <= self.ftl.chip.geometry.blocks


TestFtlStateMachine = FtlMachine.TestCase
TestFtlStateMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
