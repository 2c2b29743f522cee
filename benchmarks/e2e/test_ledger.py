"""The span arithmetic, and wrappers that come off cleanly."""

import inspect
import sys
import threading

import ledger


class FakeClock:
    """Returns the scripted instants one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_child_spans():
    clock = FakeClock(0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 12.0)
    book = ledger.Ledger(clock=clock)
    book.start()  # 0
    book.enter("core")  # 1
    book.enter("ssd")  # 2
    book.exit()  # 5: ssd 3
    book.enter("nand")  # 6
    book.exit()  # 7: nand 1
    book.exit()  # 10: core 9 - 4
    book.stop()  # 12
    report = book.report()
    assert report["core.self_s"] == 5.0
    assert report["ssd.self_s"] == 3.0
    assert report["nand.self_s"] == 1.0
    assert report["core.calls"] == report["ssd.calls"] == report["nand.calls"] == 1
    assert report["other.self_s"] == 3.0  # 12 s of wall, 9 s in spans


def test_same_layer_nesting_is_not_counted_twice():
    book = ledger.Ledger(clock=FakeClock(0.0, 1.0, 3.0, 4.0))
    book.enter("ftl")
    book.enter("ftl")
    book.exit()
    book.exit()
    report = book.report()
    assert report["ftl.self_s"] == 4.0
    assert report["ftl.calls"] == 2


def test_group_counts_only_its_outermost_span():
    book = ledger.Ledger(clock=FakeClock(0.0, 1.0, 3.0, 5.0, 6.0, 8.0))
    book.enter("core", "setup")  # 0
    book.enter("host", "setup")  # 1
    book.exit()  # 3
    book.exit()  # 5
    book.enter("host", "setup")  # 6
    book.exit()  # 8
    report = book.report()
    assert report["setup.incl_s"] == 7.0
    assert report["setup.calls"] == 2
    assert report["core.self_s"] == 3.0
    assert report["host.self_s"] == 4.0


def test_threads_keep_their_own_stacks():
    book = ledger.Ledger()
    book.enter("engine")

    def other_thread():
        book.enter("engine")
        book.exit()

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    book.exit()
    assert book.report()["engine.calls"] == 2


def test_layer_of_module():
    assert ledger.layer_of_module("repro.nand.chip") == "nand"
    assert ledger.layer_of_module("repro.engine") == "engine"
    assert ledger.layer_of_module("repro.units") is None
    assert ledger.layer_of_module("asyncio.events") is None
    assert ledger.layer_of_module(None) is None


def _snapshot():
    """Every attribute of every repro module and of every class in one."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, item in vars(value).items():
                    seen[(name, attr, member)] = item
    return seen


def test_install_then_uninstall_restores_every_attribute():
    import workloads  # noqa: F401  (loads every module the benchmark drives)

    for full in (False, True):
        before = _snapshot()
        book = ledger.Ledger()
        patches = ledger.install(book, full=full)
        during = _snapshot()
        changed = [key for key in before if during.get(key) is not before[key]]
        assert changed
        for owner, name, original in patches._undo:
            assert not inspect.isgeneratorfunction(original), name
        patches.uninstall()
        after = _snapshot()
        assert [key for key in before if after.get(key) is not before[key]] == []


def test_functions_are_patched_where_they_are_looked_up():
    import repro.stress.dirty_cycle as dirty_cycle
    import repro.stress.cmdlog as cmdlog

    original = cmdlog.audit_cycle
    patches = ledger.install(ledger.Ledger(), full=True)
    try:
        assert dirty_cycle.audit_cycle is cmdlog.audit_cycle
        assert dirty_cycle.audit_cycle is not original
    finally:
        patches.uninstall()
    assert dirty_cycle.audit_cycle is original
