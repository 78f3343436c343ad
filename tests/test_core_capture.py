"""A trial resumed from a fault-free leader's captured state is the trial.

Campaign trials start from a copy of their cell's fault-free leader core,
taken just before their fault site.  Every statistic a resumed trial
returns must equal the same trial run from cycle 0: across the five fault
models, at sites spread over the trace, on the Table 1 machine (branchy
and int-heavy) and on a memory-dependence machine with banked D-cache
and checkpoints.  Capture
also has to survive the boundaries random ones rarely hit (a wrong-path
op peeked behind an I-cache miss or a full LSQ, a full LSQ, a replay-only
cycle's pending skip) and refuse states it cannot share.

What a state holds is declared once (``RUN_STATE``): every attribute of a
core and of each subsystem it captures must be declared, and a captured
state must share nothing its leader still changes.
"""

import enum
import random
from array import array
from collections import deque
from dataclasses import fields, replace

import pytest

from repro.core import CheckerParams, CoreParams, DynOp, SuperscalarCore
from repro.core.params import MemDepParams, RecoveryParams
from repro.experiments.campaign import _state_before
from repro.faults import FAULT_MODELS
from repro.faults.models import build_fault_model
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.obs.tracer import PipelineTracer
from repro.util import SUBSYSTEM
from repro.workloads import PRESETS, WrongPathGenerator, generate

#: (preset, ops, core params, memory params) of the machines.  int-heavy's
#: unpipelined divides hold FU reservations across its capture points, so
#: a resumed trial that shared them with the leader would diverge.
SHAPES = {
    "branchy-table1": ("branchy", 1_000, CoreParams(), HierarchyParams()),
    "int-heavy-table1": ("int-heavy", 1_000, CoreParams(), HierarchyParams()),
    "memory-bound-memdep": (
        "memory-bound",
        800,
        CoreParams(
            memdep=MemDepParams(enabled=True),
            recovery=RecoveryParams(checkpoint_interval=64),
        ),
        HierarchyParams(dcache_banks=4),
    ),
}
TABLE1 = SHAPES["branchy-table1"]
MEMDEP = SHAPES["memory-bound-memdep"]
#: The memdep machine with an 8-entry LSQ, and with 8 MSHRs.
SMALL_LSQ = (*MEMDEP[:2], replace(MEMDEP[2], memdep=MemDepParams(enabled=True, lsq_size=8)), MEMDEP[3])
FEW_MSHRS = (*MEMDEP[:3], replace(MEMDEP[3], mshr_entries=8))


def _core(machine, fault_model="transient", site=None, fault_seed=7, source=None):
    preset, _, params, memory = machine
    checker = CheckerParams(
        enabled=True,
        fault_model=fault_model,
        fault_seed=fault_seed,
        force_fault_index=site,
    )
    return SuperscalarCore(
        replace(params, wrong_path_seed=3, checker=checker),
        hierarchy=MemoryHierarchy(memory),
        wrong_path_source=source or WrongPathGenerator(PRESETS[preset], seed=3).iter_stream,
    )


def _trace(machine):
    preset, ops, _, _ = machine
    return generate(PRESETS[preset], ops, seed=3)


def _same_run(fresh, fresh_stats, resumed, resumed_stats) -> None:
    assert resumed_stats.to_dict() == fresh_stats.to_dict()
    assert resumed.fault_injector.eligible == fresh.fault_injector.eligible
    # Outside to_dict: the resumed run also skips and posts exactly alike.
    assert resumed_stats.cycles_skipped == fresh_stats.cycles_skipped
    assert resumed_stats.sched_events == fresh_stats.sched_events


@pytest.mark.parametrize("fault_model", FAULT_MODELS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_resumed_trial_equals_the_fresh_trial(shape: str, fault_model: str):
    machine = SHAPES[shape]
    trace = _trace(machine)
    calibration = _core(machine, fault_model)
    calibration.run(trace)
    eligible = calibration.fault_injector.eligible
    sites = sorted({0, eligible // 4, eligible // 2, 3 * eligible // 4, eligible - 1})
    leader = _core(machine, fault_model)
    leader.begin(trace)
    for site in sites:
        state = _state_before(leader, site)
        fresh = _core(machine, fault_model, site, fault_seed=100 + site)
        fresh_stats = fresh.run(trace)
        assert fresh_stats.faults_injected >= 1
        resumed = _core(machine, fault_model, site, fault_seed=100 + site)
        _same_run(fresh, fresh_stats, resumed, resumed.run(trace, start=state))


def _far_source():
    """Branchy wrong-path streams whose ops past the first fetch group lie
    in code the correct path never fetches (one region per branch): an
    episode fetches a group, then its next op misses the I-cache and
    stays peeked until the line arrives."""
    streams = WrongPathGenerator(PRESETS["branchy"], seed=3)

    def source(branch, seq, depth):
        for index, uop in enumerate(streams.iter_stream(branch, seq, depth)):
            if index >= 8:
                uop = replace(uop, pc=uop.pc + 0x4000_0000 + 0x10_0000 * seq)
            yield uop

    return source


def _peeked(core) -> bool:
    return core._wp_peek is not None


def _lsq_full(core) -> bool:
    return len(core._lsq) >= core._lsq_size


#: Capture boundaries that random ones rarely hit: (machine, stop, source).
CAPTURES_PER_BOUNDARY = 6
BOUNDARIES = {
    "wrong-path-op-peeked-behind-an-icache-miss": (
        TABLE1,
        lambda core: _peeked(core)
        and core._wp_icache_stall_until > core._now
        and core._window[-1].wrong_path,
        _far_source,
    ),
    "full-lsq": (SMALL_LSQ, _lsq_full, None),
    "wrong-path-op-peeked-behind-a-full-lsq": (
        SMALL_LSQ,
        lambda core: _peeked(core) and _lsq_full(core),
        None,
    ),
    "replay-only-cycle-with-its-skip-pending": (
        FEW_MSHRS,
        lambda core: core._replay is not None
        and len(core._ready_heap) == core._replay_heap_len,
        None,
    ),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_capture_at_an_awkward_boundary_resumes_exactly(boundary: str):
    """Resume from the first few boundaries of each kind: whether the
    captured detail (a peeked op, a pending skip) still matters depends on
    what happens next, so one occurrence may not exercise it."""
    machine, stop, source = BOUNDARIES[boundary]
    trace = _trace(machine)
    fresh = _core(machine, source=source and source())
    fresh_stats = fresh.run(trace)
    leader = _core(machine, source=source and source())
    leader.begin(trace)
    captured = 0
    while captured < CAPTURES_PER_BOUNDARY and leader.advance(lambda: stop(leader)):
        # The detail itself carries over, whether or not it matters later.
        begun = _core(machine, source=source and source())
        begun.begin(trace, start=leader.capture())
        assert begun._wp_peek == leader._wp_peek
        assert _seqs(begun._replay) == _seqs(leader._replay)
        assert _seqs(begun._window) == _seqs(leader._window)
        resumed = _core(machine, source=source and source())
        _same_run(fresh, fresh_stats, resumed, resumed.run(trace, start=leader.capture()))
        captured += 1
    assert captured, "the boundary never occurred"


def _seqs(ops):
    return None if ops is None else [op.seq for op in ops]


def test_capture_refuses_a_core_that_injected_a_fault():
    core = _core(TABLE1, site=0)
    core.begin(_trace(TABLE1))
    assert core.advance(lambda: core.fault_injector.injected > 0)
    with pytest.raises(ValueError, match="injected a fault"):
        core.capture()


def test_capture_refuses_a_core_with_a_tracer_or_telemetry():
    trace = _trace(TABLE1)
    traced = _core(TABLE1)
    traced.tracer = PipelineTracer("checked")
    traced.begin(trace)
    with pytest.raises(ValueError, match="tracer or telemetry"):
        traced.capture()
    sampled = SuperscalarCore(CoreParams(telemetry_interval=100))
    sampled.begin(trace)
    with pytest.raises(ValueError, match="tracer or telemetry"):
        sampled.capture()


def test_resume_refuses_other_params_a_passed_site_and_a_reused_state():
    trace = _trace(TABLE1)
    leader = _core(TABLE1)
    leader.begin(trace)
    leader.advance(lambda: leader.fault_injector.eligible >= 50)
    other_machine = SuperscalarCore(
        replace(leader.params, window_size=64),
        wrong_path_source=WrongPathGenerator(PRESETS["branchy"], seed=3).iter_stream,
    )
    with pytest.raises(ValueError, match="params differ"):
        other_machine.run(trace, start=leader.capture())
    with pytest.raises(ValueError, match="behind the captured state"):
        _core(TABLE1, site=10).run(trace, start=leader.capture())
    state = leader.capture()
    _core(TABLE1, site=80).run(trace, start=state)
    with pytest.raises(ValueError, match="already started a run"):
        _core(TABLE1, site=80).run(trace, start=state)
    with pytest.raises(ValueError, match="trace it was captured on"):
        _core(TABLE1).run(list(trace), start=leader.capture())


# ------------------------------------------------------------ run-state rules


def _attributes(obj) -> set[str]:
    """The attributes ``obj`` holds: its instance dict, or its set slots."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(name for name in getattr(cls, "__slots__", ()) if hasattr(obj, name))
    return names


def _declared_parts(obj, path: str = "core"):
    """``obj`` and each subsystem its run-state declaration reaches."""
    yield path, obj
    for name, (rule, _) in type(obj).RUN_STATE.items():
        part = getattr(obj, name)
        if rule == SUBSYSTEM and part is not None:
            yield from _declared_parts(part, f"{path}.{name}")


def test_every_attribute_of_a_core_and_its_subsystems_has_a_rule():
    """A core with every subsystem built: each object holds exactly the
    attributes it declares, at the start of a run, mid-run and at its end."""
    params = CoreParams(
        use_real_predictor=True,
        memdep=MemDepParams(enabled=True),
        recovery=RecoveryParams(checkpoint_interval=64),
        checker=CheckerParams(enabled=True, fault_rate=1e-2),
    )
    core = SuperscalarCore(params, hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=4)))
    core.begin(generate(PRESETS["memory-bound"], 600, seed=3))
    for stop in (None, lambda: core._now >= 300, lambda: False):
        if stop is not None:
            core.advance(stop)
        parts = dict(_declared_parts(core))
        assert set(parts) == {
            "core",
            *(f"core.{name}" for name in (
                "hierarchy", "_fu", "_wheel", "_ready", "stats", "checker",
                "fault_injector", "_storesets", "_recovery",
            )),
            "core.hierarchy.bus",
            "core.hierarchy.stats",
        }
        for path, obj in parts.items():
            assert _attributes(obj) == set(type(obj).RUN_STATE), path
    for model in FAULT_MODELS:
        built = build_fault_model(replace(params.checker, fault_model=model), params.fu_counts)
        assert _attributes(built) == set(type(built).RUN_STATE), model


def _fingerprint(root) -> list:
    """Everything reachable from ``root``, by content, in discovery order
    (references as discovery indices): a change anywhere in it shows."""
    index: dict[int, int] = {}
    found: list = []

    def ref(value):
        if value is None or isinstance(value, (int, float, str, enum.Enum)):
            return value
        if id(value) not in index:
            index[id(value)] = len(found)
            found.append(value)
        return ("@", index[id(value)])

    snapshots = []
    ref(root)
    for value in found:  # grows as the walk discovers more
        if isinstance(value, dict):
            snapshots.append(tuple((key, ref(item)) for key, item in value.items()))
        elif isinstance(value, (list, tuple, deque)):
            snapshots.append(tuple(map(ref, value)))
        elif isinstance(value, array):
            snapshots.append(tuple(value))
        elif isinstance(value, (set, frozenset)):
            snapshots.append(frozenset(map(ref, value)))
        elif isinstance(value, random.Random):
            snapshots.append(value.getstate())
        elif isinstance(value, DynOp):
            snapshots.append(tuple(ref(getattr(value, f.name)) for f in fields(DynOp)))
        else:
            names = sorted(_attributes(value))
            snapshots.append((type(value).__name__, *(ref(getattr(value, n)) for n in names)))
    return snapshots


def _state_fingerprint(state) -> list:
    return _fingerprint((state.saved, state.eligible, state.wp_pulled, state.wp_peeked))


@pytest.mark.parametrize("shape", ["int-heavy-table1", "memory-bound-memdep"])
def test_a_captured_state_stays_independent_of_its_leader(shape: str):
    """States captured every 25 cycles keep their every declared attribute
    while the leader runs on to the end.  On int-heavy the unpipelined
    divides hold FU reservations across capture points, so a state sharing
    the pool's reservation lists with its leader changes here."""
    machine = SHAPES[shape]
    leader = _core(machine)
    leader.begin(_trace(machine))
    captured = []
    for _ in range(20):
        until = leader._now + 25
        assert leader.advance(lambda: leader._now >= until)
        state = leader.capture()
        captured.append((state, _state_fingerprint(state)))
    leader.advance()
    changed = [i for i, (state, before) in enumerate(captured) if _state_fingerprint(state) != before]
    assert not changed, f"states {changed} of {len(captured)} changed as the leader ran on"
