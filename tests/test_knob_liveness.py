"""Knob liveness: each params field moves the checked run exactly where it should.

On each named shape the test perturbs one field of the five params classes
at a time, runs the checked core on the shape's trace, and compares
``CoreStats.to_dict()`` with the unperturbed run.  The stats must change
exactly when the tables below do not list the field as inert on that
shape; every inert entry carries its reason.

* The observers (:data:`OBSERVERS`) must be inert on every shape.
* Every other field must be live on at least one shape, except those in
  :data:`NEVER_LIVE`, which no shape can move.

A new field fails :func:`test_every_field_is_perturbed` until it joins
:data:`PERTURBED`.
"""

import operator
from dataclasses import fields, replace

import pytest

from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.isa.opcodes import FUClass
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import PRESETS, generate

#: The params classes, by the name a field key starts with.
CLASSES = {
    "core": CoreParams,
    "checker": CheckerParams,
    "memdep": MemDepParams,
    "recovery": RecoveryParams,
    "hierarchy": HierarchyParams,
}

#: Each shape: a preset and trace length, an optional store-alias
#: override, and the fields each class sets off its default.  The checker
#: is enabled on every shape.
SHAPES: dict[str, dict] = {
    # Aliasing stores and loads through the memory-dependence subsystem,
    # checkpointed recovery, two D-cache banks, transient faults.
    "memdep-checkpoint": {
        "preset": "branchy",
        "ops": 1_000,
        "store_alias_fraction": 1.0,
        "checker": {"fault_rate": 1e-2},
        "memdep": {"enabled": True},
        "recovery": {"checkpoint_interval": 64},
        "hierarchy": {"dcache_banks": 2},
    },
    # Intermittent bursts under the reserved slot policy, recovered at the
    # flat penalty, on caches small enough for the L2 to serve the L1s.
    "reserved-intermittent": {
        "preset": "branchy",
        "ops": 800,
        "checker": {
            "fault_rate": 1e-2,
            "slot_policy": "reserved",
            "fault_model": "intermittent",
        },
        "hierarchy": {"l1i_size": 1024, "l1d_size": 4096, "l2_size": 32 * 1024},
    },
    # A stuck functional unit on the Table 1 machine.
    "stuck-fu": {
        "preset": "int-heavy",
        "ops": 800,
        "checker": {"fault_rate": 2e-3, "fault_model": "stuck-fu"},
    },
}

FLIP = operator.not_

#: The perturbed value of each field: a value, or a function of the
#: shape's value.
PERTURBED: dict[str, object] = {
    "core.fetch_width": 4,
    "core.issue_width": 4,
    "core.commit_width": 4,
    "core.window_size": 32,
    "core.fu_counts": {FUClass.IALU: 2, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1},
    "core.mispredict_penalty": 10,
    "core.model_wrong_path": FLIP,
    "core.wrong_path_depth": 8,
    "core.wrong_path_seed": 5,
    "core.model_icache": FLIP,
    "core.use_real_predictor": FLIP,
    "core.record_retired": FLIP,
    "core.frontend_depth": 3,
    "core.cycle_skip": FLIP,
    "checker.enabled": FLIP,
    "checker.fault_rate": 2e-2,
    "checker.fault_seed": 99,
    "checker.force_fault_seqs": frozenset(range(100, 140)),
    "checker.recovery_penalty": 30,
    "checker.slot_policy": {"reserved": "opportunistic", "opportunistic": "reserved"}.get,
    "checker.reserved_slots": 1,
    "checker.fault_model": "address",
    "checker.fault_burst": 2,
    "checker.fault_fu": "IMUL",
    "checker.fault_repair_cycles": 20,
    "checker.force_fault_index": 3,
    "memdep.enabled": FLIP,
    "memdep.ssit_size": 1,
    "memdep.lfst_size": 1,
    "memdep.lsq_size": 8,
    "memdep.violation_penalty": 30,
    "memdep.forward_latency": 4,
    "memdep.ssit_decay_cycles": 50,
    "recovery.checkpoint_interval": 16,
    "recovery.checkpoint_overhead": 4,
    "recovery.restore_penalty": 20,
    "hierarchy.l1i_size": 512,
    "hierarchy.l1d_size": 2048,
    "hierarchy.l1_ways": 1,
    "hierarchy.l1_latency": 5,
    "hierarchy.l2_size": 1024,
    "hierarchy.l2_ways": 1,
    "hierarchy.l2_latency": 20,
    "hierarchy.mem_latency": 300,
    "hierarchy.line_bytes": 32,
    "hierarchy.dcache_ports": 1,
    "hierarchy.dcache_banks": 4,
    "hierarchy.mshr_entries": 2,
    "hierarchy.mshr_targets": 1,
    "hierarchy.bus_cycles_per_transfer": 16,
}

#: Fields that only observe a run; no statistic may depend on them.
OBSERVERS = frozenset({"core.cycle_skip", "core.record_retired"})

#: Fields no shape can move, and why.
NEVER_LIVE: dict[str, str] = {}

_TRANSIENT_ONLY = "only the transient model reads it"
_INTERMITTENT_ONLY = "only the intermittent model reads it"
_STUCK_FU_ONLY = "only the stuck-fu model reads it"
_RESERVED_ONLY = "only the reserved slot policy reads it"
_MEMDEP_OFF = "the memory-dependence subsystem is off"
_CHECKPOINTS_OFF = "checkpointing is off"

#: Per shape, the fields besides the observers and NEVER_LIVE that leave
#: the checked run unchanged, and why.
INERT: dict[str, dict[str, str]] = {
    "memdep-checkpoint": {
        "checker.recovery_penalty": "checkpoint rollback replaces the flat penalty",
        "checker.reserved_slots": _RESERVED_ONLY,
        "checker.fault_burst": _INTERMITTENT_ONLY,
        "checker.fault_fu": _STUCK_FU_ONLY,
        "checker.fault_repair_cycles": _STUCK_FU_ONLY,
    },
    "reserved-intermittent": {
        "checker.force_fault_seqs": _TRANSIENT_ONLY,
        "checker.fault_fu": _STUCK_FU_ONLY,
        "checker.fault_repair_cycles": _STUCK_FU_ONLY,
        "memdep.ssit_size": _MEMDEP_OFF,
        "memdep.lfst_size": _MEMDEP_OFF,
        "memdep.lsq_size": _MEMDEP_OFF,
        "memdep.violation_penalty": _MEMDEP_OFF,
        "memdep.forward_latency": _MEMDEP_OFF,
        "memdep.ssit_decay_cycles": _MEMDEP_OFF,
        "recovery.checkpoint_overhead": _CHECKPOINTS_OFF,
        "recovery.restore_penalty": _CHECKPOINTS_OFF,
    },
    "stuck-fu": {
        "checker.force_fault_seqs": _TRANSIENT_ONLY,
        "checker.reserved_slots": _RESERVED_ONLY,
        "checker.fault_burst": _INTERMITTENT_ONLY,
        "memdep.ssit_size": _MEMDEP_OFF,
        "memdep.lfst_size": _MEMDEP_OFF,
        "memdep.lsq_size": _MEMDEP_OFF,
        "memdep.violation_penalty": _MEMDEP_OFF,
        "memdep.forward_latency": _MEMDEP_OFF,
        "memdep.ssit_decay_cycles": _MEMDEP_OFF,
        "recovery.checkpoint_overhead": _CHECKPOINTS_OFF,
        "recovery.restore_penalty": _CHECKPOINTS_OFF,
        **dict.fromkeys(
            ("hierarchy.l1_ways", "hierarchy.l2_size", "hierarchy.l2_ways"),
            "in 800 ops int-heavy reads no line twice that either L1 or a smaller "
            "L2 would lose: its 256 hot lines are contiguous, and its cold and "
            "code lines are read once",
        ),
    },
}


def _knobs(shape: dict) -> dict[str, dict]:
    knobs = {name: dict(shape.get(name, {})) for name in CLASSES}
    knobs["checker"].setdefault("enabled", True)
    return knobs


def _checked_stats(trace, knobs: dict[str, dict]) -> dict:
    params = CoreParams(
        **knobs["core"],
        checker=CheckerParams(**knobs["checker"]),
        memdep=MemDepParams(**knobs["memdep"]),
        recovery=RecoveryParams(**knobs["recovery"]),
    )
    hierarchy = MemoryHierarchy(HierarchyParams(**knobs["hierarchy"]))
    return SuperscalarCore(params, hierarchy=hierarchy).run(trace).to_dict()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_field_moves_the_run_exactly_where_it_is_live(name: str):
    shape = SHAPES[name]
    profile = PRESETS[shape["preset"]]
    if "store_alias_fraction" in shape:
        profile = replace(profile, store_alias_fraction=shape["store_alias_fraction"])
    trace = generate(profile, shape["ops"], seed=0)
    base = _checked_stats(trace, _knobs(shape))
    inert = OBSERVERS | set(NEVER_LIVE) | set(INERT[name])
    wrong = []
    for key, perturbed in PERTURBED.items():
        cls_name, field_name = key.split(".")
        knobs = _knobs(shape)
        old = knobs[cls_name].get(field_name, getattr(CLASSES[cls_name](), field_name))
        value = perturbed(old) if callable(perturbed) else perturbed
        assert value != old, key
        knobs[cls_name][field_name] = value
        moved = _checked_stats(trace, knobs) != base
        if moved == (key in inert):
            wrong.append(f"{key} {'moved' if moved else 'did not move'} the run")
    assert not wrong, wrong


def test_every_field_is_perturbed():
    nested = {"checker", "memdep", "recovery"}
    declared = {
        f"{name}.{f.name}"
        for name, cls in CLASSES.items()
        for f in fields(cls)
        if not (cls is CoreParams and f.name in nested)
    }
    assert declared == set(PERTURBED)


def test_every_field_but_the_observers_is_live_on_some_shape():
    for key in PERTURBED:
        if key in OBSERVERS or key in NEVER_LIVE:
            assert all(key not in INERT[name] for name in SHAPES), key
        else:
            assert any(key not in INERT[name] for name in SHAPES), key
