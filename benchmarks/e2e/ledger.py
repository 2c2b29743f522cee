"""Per-layer time ledger, measured from outside the library.

The benchmark never edits ``src/``.  Instead it installs wrappers on the
public entry points of each package (a *layer*) and records a span around
every call: the layer's **self time** is the span's duration minus the time
its child spans cover, so the layers' self times add up to the traced wall
time, less whatever ran outside every span (``other``).  Two inclusive
groups cover the hot phases named in ROADMAP: ``audit`` (the auditors) and
``setup`` (device-stack construction and boot); a group counts only its
outermost span, so nested builds are not counted twice.

The simulation kernel runs event callbacks owned by other layers (device
interrupts, PSU settling, generator processes), so ``Kernel.schedule_at``
is wrapped to time each callback in the layer of its owner, and to count
events.  Span stacks are per thread, because the ``serve`` workload runs
the campaign service's event loop on a thread of its own.

Wrappers must go in before any platform is built: the analyzers bind
``SsdDevice.peek`` when they are constructed.  Generator functions are
never wrapped, since a wrapper would time only the creation of the
generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import operator
import sys
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim",
    "power",
    "host",
    "trace",
    "workload",
    "nvme",
    "ssd",
    "cache",
    "ftl",
    "nand",
    "raid",
    "topology",
    "fs",
    "apps",
    "stress",
    "core",
    "engine",
)

# Entry points whose public methods (and constructor) are timed.  A class
# target wraps every plain function in the class body whose name does not
# start with "_", plus ``__init__``; a ``Class.method`` target wraps just
# that method; a function target wraps the function wherever a repro module
# has bound it.  The layer is the package.  The campaign service's
# ``serve_forever`` is left out: it spans its thread's whole life.
ENTRY_POINTS = (
    "repro.sim.kernel:Kernel",
    "repro.power.controller:PowerController",
    "repro.power.psu:AtxPsu",
    "repro.host.system:HostSystem",
    "repro.host.block_layer:BlockLayer",
    "repro.trace.blktrace:BlockTracer",
    "repro.trace.btt:Btt",
    "repro.workload.generator:IOGenerator",
    "repro.nvme.controller:NvmeController",
    "repro.ssd.device:SsdDevice",
    "repro.cache.dram:WriteCache",
    "repro.ftl.ftl:Ftl",
    "repro.nand.chip:FlashChip",
    "repro.raid.mirror:MirrorPair",
    "repro.topology.stack:CacheTopology",
    "repro.topology.backing:BackingStore",
    "repro.topology.plan:TopologyPlan",
    "repro.topology.plan:run_topology_shard",
    "repro.fs.filesystem:FileSystem",
    "repro.apps.wal:WalDatabase",
    "repro.apps.plan:AppPlan",
    "repro.apps.plan:run_app_cycle",
    "repro.apps.audit:audit_app",
    "repro.stress.cmdlog:CommandLog",
    "repro.stress.cmdlog:audit_cycle",
    "repro.stress.dirty_cycle:DirtyCyclePlan",
    "repro.stress.dirty_cycle:run_dirty_shard",
    "repro.core.platform:TestPlatform",
    "repro.core.campaign:Campaign",
    "repro.core.analyzer:Analyzer",
    "repro.core.scheduler:FaultScheduler",
    "repro.engine:run_plans",
    "repro.engine:run_plan",
    "repro.engine.plan:CampaignPlan",
    "repro.engine.supervisor:merge_plan_runs",
    "repro.engine.serve:submit_campaign",
    "repro.engine.serve:CampaignService.__init__",
    "repro.engine.serve:CampaignService.start",
    "repro.engine.serve:CampaignService.stop",
    "repro.engine.cas:ResultCAS",
    "repro.engine.trace:TraceWriter",
)

# Accessors too small to time: a span costs more than their body, so their
# time stays with the caller.
SKIP = (
    "repro.ftl.ftl:Ftl.lookup",
    "repro.cache.dram:WriteCache.peek",
    "repro.cache.dram:WriteCache.read_hit",
    "repro.power.psu:AtxPsu.voltage_at",
    "repro.core.analyzer:Analyzer.expected_at",
    "repro.topology.backing:BackingStore.peek",
)

GROUPS: Dict[str, Tuple[str, ...]] = {
    "audit": (
        "repro.core.analyzer:Analyzer.verify_cycle",
        "repro.topology.stack:CacheTopology.audit_and_reset",
        "repro.stress.cmdlog:audit_cycle",
        "repro.apps.audit:audit_app",
    ),
    "setup": (
        "repro.core.platform:TestPlatform.__init__",
        "repro.core.platform:TestPlatform.boot",
        "repro.host.system:HostSystem.__init__",
        "repro.host.system:HostSystem.boot",
        "repro.topology.stack:CacheTopology.__init__",
        "repro.topology.stack:CacheTopology.boot",
    ),
}

# Counters the library keeps on each device, read when a shard (or, for
# app campaigns, a cycle, which builds its own host) finishes.
COUNTERS: Dict[str, Callable] = {
    name: operator.attrgetter(path)
    for name, path in (
        ("ssd.commands_ok", "commands_ok"),
        ("ssd.commands_errored", "commands_errored"),
        ("ftl.host_pages_written", "ftl.host_pages_written"),
        ("ftl.journal_pages_written", "ftl.journal_pages_written"),
        ("ftl.gc_pages_relocated", "ftl.gc.pages_relocated"),
        ("nand.programs_committed", "chip.programs_committed"),
        ("nand.reads_served", "chip.reads_served"),
        ("nand.read_retries", "chip.read_retries"),
        ("nand.uncorrectable_reads", "chip.uncorrectable_reads"),
        ("nand.erases_committed", "chip.erases_committed"),
    )
}
HARVEST_AFTER = (
    "repro.engine.plan:CampaignPlan.run_shard",
    "repro.stress.dirty_cycle:DirtyCyclePlan.run_shard",
    "repro.topology.plan:TopologyPlan.run_shard",
    "repro.apps.plan:AppPlan.run_shard",
    "repro.apps.plan:run_app_cycle",
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """``repro.<layer>...`` -> layer, anything else -> None."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class _ThreadState:
    """One thread's span stack and totals (no locks on the hot path)."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.incl_s: Dict[str, float] = {}
        self.incl_calls: Dict[str, int] = {}
        self.depth: Dict[str, int] = {}


class Ledger:
    """Span bookkeeping: self time and calls per layer, inclusive groups.

    ``clock`` is injectable so tests can drive the arithmetic with a fake.
    The thread that creates the ledger is its main thread; ``other_s`` is
    that thread's wall time between :meth:`start` and :meth:`stop` that no
    span covered.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self.state()
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.counters["sim.events"] = 0
        self._devices: List[object] = []
        self.process_layers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._started = 0.0
        self.wall_s = 0.0

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def start(self) -> None:
        self._started = self.clock()

    def stop(self) -> None:
        self.wall_s = self.clock() - self._started

    def enter(self, layer: str, group: Optional[str] = None) -> None:
        state = self.state()
        if group is not None:
            state.depth[group] = state.depth.get(group, 0) + 1
        state.stack.append([layer, group, self.clock(), 0.0])

    def exit(self) -> None:
        now = self.clock()
        state = self.state()
        layer, group, started, child = state.stack.pop()
        duration = now - started
        state.self_s[layer] = state.self_s.get(layer, 0.0) + duration - child
        state.calls[layer] = state.calls.get(layer, 0) + 1
        if state.stack:
            state.stack[-1][3] += duration
        if group is not None:
            state.depth[group] -= 1
            if state.depth[group] == 0:
                state.incl_s[group] = state.incl_s.get(group, 0.0) + duration
                state.incl_calls[group] = state.incl_calls.get(group, 0) + 1

    # -- device counters ------------------------------------------------------------

    def track_device(self, device: object) -> None:
        self._devices.append(device)

    def harvest(self) -> None:
        """Add the tracked devices' counters to the totals and let them go."""
        devices, self._devices = self._devices, []
        for device in devices:
            for name, read in COUNTERS.items():
                self.counters[name] += read(device)

    # -- totals ---------------------------------------------------------------------

    def group_s(self, group: str) -> float:
        return sum(state.incl_s.get(group, 0.0) for state in self._states)

    def report(self) -> Dict[str, float]:
        """Every per-layer metric, summed over threads."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s.get(layer, 0.0) for s in self._states)
            out[f"{layer}.calls"] = sum(s.calls.get(layer, 0) for s in self._states)
        for group in GROUPS:
            out[f"{group}.incl_s"] = self.group_s(group)
            out[f"{group}.calls"] = sum(s.incl_calls.get(group, 0) for s in self._states)
        out["other.self_s"] = self.wall_s - sum(self._main.self_s.values())
        out.update(self.counters)
        return out


# -- installing wrappers ----------------------------------------------------------------


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _resolve(target: str):
    """``module:Class``, ``module:Class.method`` or ``module:function``."""
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = vars(obj)[part] if inspect.isclass(obj) else getattr(obj, part)
    return obj


def _wrappable(fn) -> bool:
    return inspect.isfunction(fn) and not (
        inspect.isgeneratorfunction(fn)
        or inspect.iscoroutinefunction(fn)
        or inspect.isasyncgenfunction(fn)
    )


def _expand(target: str) -> List[str]:
    """A class target becomes one target per wrappable method."""
    obj = _resolve(target)
    if not inspect.isclass(obj):
        return [target]
    return [
        f"{target}.{name}"
        for name, member in vars(obj).items()
        if _wrappable(member) and (name == "__init__" or not name.startswith("_"))
    ]


def install(ledger: Ledger, full: bool = True) -> Patches:
    """Wrap the entry points; ``full=False`` times only the setup group.

    Returns the :class:`Patches` whose :meth:`~Patches.uninstall` removes
    every wrapper again.
    """
    grouped = {
        target: group for group, targets in GROUPS.items() for target in targets
    }
    if full:
        targets = list(ENTRY_POINTS) + list(grouped) + list(HARVEST_AFTER)
    else:
        targets = list(GROUPS["setup"])
    expanded = dict.fromkeys(
        t for target in targets for t in _expand(target) if t not in SKIP
    )
    patches = Patches()
    repro_modules = [
        module for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "repro"
    ]
    for target in expanded:
        fn = _resolve(target)
        layer = layer_of_module(fn.__module__)
        after = ledger.harvest if target in HARVEST_AFTER and full else None
        if target == "repro.sim.kernel:Kernel.schedule_at":
            wrapper = _schedule_at_wrapper(ledger, fn)
        else:
            wrapper = _timed(ledger, layer, grouped.get(target), fn, after)
        if target == "repro.ssd.device:SsdDevice.__init__":
            wrapper = _tracking_init(ledger, wrapper)
        if "." in target.partition(":")[2]:
            owner_path, _, name = target.rpartition(".")
            patches.replace(_resolve(owner_path), name, wrapper)
            continue
        # A function is patched wherever a repro module bound it, since
        # callers look names up in their own module.
        for module in repro_modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    patches.replace(module, name, wrapper)
    if full:
        process_cls = _resolve("repro.sim.process:Process")
        patches.replace(
            process_cls, "__init__", _process_init(ledger, vars(process_cls)["__init__"])
        )
    return patches


def _timed(ledger: Ledger, layer: str, group: Optional[str], fn, after=None):
    enter, exit_ = ledger.enter, ledger.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer, group)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
            if after is not None:
                after()

    return wrapper


def _tracking_init(ledger: Ledger, init):
    """Remember each device so its counters can be read later."""

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ledger.track_device(self)

    return wrapper


def _process_init(ledger: Ledger, init):
    """Remember which layer's generator each simulated process runs."""
    layers = ledger.process_layers

    @functools.wraps(init)
    def wrapper(self, kernel, generator, *args, **kwargs):
        frame = getattr(generator, "gi_frame", None)
        if frame is not None:
            layer = layer_of_module(frame.f_globals.get("__name__"))
            if layer is not None:
                layers[self] = layer
        init(self, kernel, generator, *args, **kwargs)

    return wrapper


def _schedule_at_wrapper(ledger: Ledger, schedule_at):
    """Count events and time each callback in the layer that owns it.

    A bound method belongs to its object's package, a generator process
    to the package of its generator, a plain function to its module's.
    """
    enter, exit_ = ledger.enter, ledger.exit
    counters = ledger.counters
    processes = ledger.process_layers

    @functools.wraps(schedule_at)
    def wrapper(self, time_us, callback, *args):
        counters["sim.events"] += 1
        owner = getattr(callback, "__self__", None)
        if owner is None:
            layer = layer_of_module(getattr(callback, "__module__", None))
        else:
            layer = (
                processes[owner]
                if owner in processes
                else layer_of_module(type(owner).__module__)
            )
        if layer is not None:
            inner = callback

            def callback(*cb_args):
                enter(layer)
                try:
                    inner(*cb_args)
                finally:
                    exit_()

        enter("sim")
        try:
            return schedule_at(self, time_us, callback, *args)
        finally:
            exit_()

    return wrapper
