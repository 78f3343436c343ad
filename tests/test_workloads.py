"""Synthetic workload generator: determinism, mix control, well-formed uops."""

import hashlib
from dataclasses import replace

import pytest

from repro.isa import MicroOp, OpClass, is_fp_reg
from repro.workloads import PRESET_NAMES, PRESETS, WorkloadProfile, generate, preset

# ------------------------------------------------------------- pinned traces

#: sha256 of every op of the traces `_pinned_traces` generates: the four
#: presets, store aliasing at 0.4 and 1.0, hot sets of 1 and 300 lines (a
#: rejection loop that redraws), loops of 1 and 7 slots, an FP-only and a
#: NOP-heavy mix, one-deep dependences on every source, branch noise and
#: mispredict rates at 0 and at 1, and an all-cold stream, each at three
#: seeds.  Recorded from the generator that built a fresh `MicroOp` per op
#: and drew through `random.Random`'s `choices`, `randint`, `randrange`,
#: `choice` and `random` calls; a change to any draw, to its order or to
#: the ops built from it changes it.  Re-record it only with a change that
#: declares a model change: `PYTHONPATH=src python tests/test_workloads.py`.
TRACES_SHA256 = "19ac67e2722a140063b3c3a48fa7e859fdb96281cb6f33c29bcd13fc0c4420b0"


def _op_key(uop: MicroOp) -> tuple:
    # The same fields, in the same order, as tests/test_core_wrong_path.py.
    return (
        uop.op.name,
        uop.dest,
        uop.srcs,
        uop.pc,
        uop.addr,
        uop.taken,
        uop.target,
        uop.mispredicted,
    )


def _pin_profiles() -> list[WorkloadProfile]:
    memory_bound = preset("memory-bound")
    branchy = preset("branchy")
    return [
        *(preset(name) for name in PRESET_NAMES),
        replace(memory_bound, name="alias-0.4", store_alias_fraction=0.4),
        replace(memory_bound, name="alias-1", store_alias_fraction=1.0),
        replace(memory_bound, name="hot-1", hot_lines=1),
        replace(memory_bound, name="hot-300", hot_lines=300),
        replace(branchy, name="loop-1", loop_ops=1),
        replace(branchy, name="loop-7", loop_ops=7),
        replace(memory_bound, name="loop-7-alias", loop_ops=7, store_alias_fraction=1.0),
        WorkloadProfile(
            name="fp-only", mix={OpClass.FALU: 0.5, OpClass.FMUL: 0.3, OpClass.FDIV: 0.2}
        ),
        WorkloadProfile(
            name="nop-heavy",
            mix={
                OpClass.NOP: 0.7,
                OpClass.IALU: 0.1,
                OpClass.LOAD: 0.1,
                OpClass.STORE: 0.05,
                OpClass.BRANCH: 0.05,
            },
        ),
        replace(preset("int-heavy"), name="dep-1", dep_window=1, dep_fraction=1.0),
        replace(branchy, name="exact", outcome_noise=0.0, mispredict_rate=0.0),
        replace(branchy, name="inverted", outcome_noise=1.0, mispredict_rate=1.0),
        replace(memory_bound, name="all-cold", cold_fraction=1.0),
    ]


def _pinned_traces():
    for profile in _pin_profiles():
        for seed in (0, 1, 47):
            yield generate(profile, 3_000, seed=seed)


def _traces_digest() -> str:
    digest = hashlib.sha256()
    for trace in _pinned_traces():
        assert len(trace) == 3_000
        digest.update(repr([_op_key(op) for op in trace]).encode())
    return digest.hexdigest()


def test_traces_are_pinned():
    assert _traces_digest() == TRACES_SHA256


def test_generation_is_deterministic_in_profile_and_seed():
    profile = preset("int-heavy")
    assert generate(profile, 500, seed=7) == generate(profile, 500, seed=7)


def test_different_seeds_give_different_traces():
    profile = preset("int-heavy")
    assert generate(profile, 500, seed=1) != generate(profile, 500, seed=2)


def test_mix_weights_control_op_distribution():
    profile = preset("int-heavy")
    trace = generate(profile, 20_000, seed=0)
    ialu_fraction = sum(1 for uop in trace if uop.op is OpClass.IALU) / len(trace)
    assert ialu_fraction == pytest.approx(profile.mix[OpClass.IALU], abs=0.03)


def test_mispredict_rate_applies_to_branches_only():
    profile = preset("branchy")
    trace = generate(profile, 20_000, seed=0)
    branches = [uop for uop in trace if uop.is_branch()]
    others = [uop for uop in trace if not uop.is_branch()]
    rate = sum(uop.mispredicted for uop in branches) / len(branches)
    assert rate == pytest.approx(profile.mispredict_rate, abs=0.02)
    assert not any(uop.mispredicted for uop in others)


def test_branches_are_well_formed():
    trace = generate(preset("branchy"), 5_000, seed=1)
    for uop in trace:
        if not uop.is_branch():
            continue
        if uop.taken:
            assert uop.target is not None and uop.target > uop.pc
        else:
            assert uop.target is None


def test_memory_ops_carry_addresses_and_others_do_not():
    trace = generate(preset("memory-bound"), 5_000, seed=1)
    for uop in trace:
        assert (uop.addr is not None) == uop.is_mem()


def test_cold_fraction_grows_the_line_footprint():
    hot = generate(preset("int-heavy"), 5_000, seed=0)  # cold_fraction 0.01
    cold = generate(preset("memory-bound"), 5_000, seed=0)  # cold_fraction 0.30
    hot_lines = {uop.addr >> 6 for uop in hot if uop.is_mem()}
    cold_lines = {uop.addr >> 6 for uop in cold if uop.is_mem()}
    assert len(cold_lines) > len(hot_lines)


def test_fp_ops_use_fp_destinations():
    trace = generate(preset("fp-heavy"), 5_000, seed=0)
    for uop in trace:
        if uop.op in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV):
            assert is_fp_reg(uop.dest)
        elif uop.dest is not None:
            assert not is_fp_reg(uop.dest)


def test_pcs_are_sequential_and_word_aligned():
    trace = generate(preset("int-heavy"), 100, seed=0)
    assert all(b.pc - a.pc == 4 for a, b in zip(trace, trace[1:]))


def test_trace_loops_over_the_static_program():
    profile = WorkloadProfile(
        name="tiny-loop", mix=dict(preset("branchy").mix), loop_ops=16
    )
    trace = generate(profile, 64, seed=0)
    # Same slot on every iteration: same PC, op class, and registers.
    for uop, again in zip(trace, trace[16:]):
        assert uop.pc == again.pc
        assert uop.op is again.op
        assert uop.srcs == again.srcs


def test_branch_targets_are_stable_per_pc():
    trace = generate(preset("branchy"), 5_000, seed=1)
    targets: dict[int, int] = {}
    for uop in trace:
        if uop.is_branch() and uop.taken:
            assert targets.setdefault(uop.pc, uop.target) == uop.target


def test_all_presets_generate_and_have_names():
    for name, profile in PRESETS.items():
        assert profile.name == name
        assert len(generate(profile, 50, seed=0)) == 50


def test_unknown_preset_raises_with_choices():
    with pytest.raises(KeyError, match="int-heavy"):
        preset("no-such-preset")


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", mix={})
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", mix={OpClass.IALU: 1.0}, dep_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", mix={OpClass.IALU: 1.0}, hot_lines=0)


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_non_finite_mix_weights_fail_at_construction(weight):
    """Not late, inside ``random.choices`` ("Total of weights must be finite")."""
    with pytest.raises(ValueError, match="mix weights"):
        WorkloadProfile(name="bad", mix={OpClass.IALU: weight, OpClass.BRANCH: 1.0})


def test_mix_weights_whose_sum_overflows_fail_at_construction():
    """The class draw bisects the cumulative weights; with an infinite
    total every draw would land on the last class instead of failing."""
    with pytest.raises(ValueError, match="finite sum"):
        WorkloadProfile(name="bad", mix={OpClass.IALU: 1e308, OpClass.BRANCH: 1e308})


def test_generate_rejects_negative_count():
    with pytest.raises(ValueError):
        generate(preset("int-heavy"), -1)


# ----------------------------------------------------------- store aliasing


def test_store_alias_fraction_validates_range():
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad", mix={OpClass.IALU: 1.0}, store_alias_fraction=1.5
        )
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad", mix={OpClass.IALU: 1.0}, store_alias_fraction=-0.1
        )


def test_zero_alias_fraction_leaves_legacy_traces_byte_identical():
    from dataclasses import replace

    base = preset("memory-bound")
    assert base.store_alias_fraction == 0.0  # off by default
    explicit = replace(base, store_alias_fraction=0.0)
    assert generate(base, 2_000, seed=5) == generate(explicit, 2_000, seed=5)


def test_alias_pairs_are_store_older_load_younger_with_shared_addresses():
    from dataclasses import replace

    from repro.workloads.synthetic import TraceGenerator

    profile = replace(preset("memory-bound"), store_alias_fraction=0.5)
    generator = TraceGenerator(profile, seed=3)
    pairs: dict[int, list[int]] = {}
    for index, static in enumerate(generator._program):
        if static.alias_pair is not None:
            pairs.setdefault(static.alias_pair, []).append(index)
    assert pairs, "fraction 0.5 on memory-bound must pair at least one store"
    for members in pairs.values():
        store_idx, load_idx = members
        assert generator._program[store_idx].op is OpClass.STORE
        assert generator._program[load_idx].op is OpClass.LOAD
        # Program order within an iteration: store older, load younger —
        # the RAW shape that exercises forwarding and violations.
        assert store_idx < load_idx
    # Within a loop iteration the two halves emit the same address; across
    # iterations the address advances through the pair's line window.
    loop = len(generator._program)
    trace = generate(profile, loop * 3, seed=3)
    for iteration in range(3):
        for pair, (store_idx, load_idx) in pairs.items():
            store_uop = trace[iteration * loop + store_idx]
            load_uop = trace[iteration * loop + load_idx]
            assert store_uop.addr == load_uop.addr


def test_aliased_addresses_live_outside_hot_and_cold_regions():
    from dataclasses import replace

    from repro.workloads.synthetic import (
        _ALIAS_BASE,
        _COLD_BASE,
        _HOT_BASE,
        TraceGenerator,
    )

    profile = replace(preset("memory-bound"), store_alias_fraction=1.0)
    generator = TraceGenerator(profile, seed=0)
    paired = {
        s.alias_pair for s in generator._program if s.alias_pair is not None
    }
    trace = generate(profile, 4_000, seed=0)
    alias_addrs = [
        uop.addr
        for uop, static in zip(
            trace,
            (generator._program[i % len(generator._program)] for i in range(4_000)),
        )
        if static.alias_pair is not None
    ]
    assert paired and alias_addrs
    for addr in alias_addrs:
        assert _ALIAS_BASE <= addr < _COLD_BASE
        assert not (addr >= _COLD_BASE or _HOT_BASE <= addr < _ALIAS_BASE)


# -------------------------------------------------------- shared trace ops


def test_trace_ops_are_shared_and_no_run_changes_them():
    """Every instance of a plain slot is one op and every instance of a
    branch slot one of four, so trace ops must be read-only: runs of both
    modes with faults, the wrong path and memdep on, and a run resumed
    from a captured state, leave every op equal to a fresh copy."""
    from repro.core import CheckerParams, CoreParams, SuperscalarCore
    from repro.core.params import MemDepParams
    from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
    from repro.workloads import WrongPathGenerator

    profile = replace(preset("memory-bound"), loop_ops=128, store_alias_fraction=0.4)
    trace = generate(profile, 3_000, seed=5)
    loop = profile.loop_ops
    plain = next(s for s in range(loop) if not (trace[s].is_mem() or trace[s].is_branch()))
    assert all(op is trace[plain] for op in trace[plain::loop])
    branch = next(s for s in range(loop) if trace[s].is_branch())
    assert len({id(op) for op in trace[branch::loop]}) <= 4
    load = next(s for s in range(loop) if trace[s].op is OpClass.LOAD)
    assert len({id(op) for op in trace[load::loop]}) == len(trace[load::loop])

    def core(checked: bool, fault_rate: float = 0.0, site: int | None = None):
        checker = CheckerParams(enabled=checked, fault_rate=fault_rate, force_fault_index=site)
        return SuperscalarCore(
            CoreParams(memdep=MemDepParams(enabled=True), checker=checker),
            hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=4)),
            wrong_path_source=WrongPathGenerator(profile, seed=5).iter_stream,
        )

    assert core(False).run(trace).wrong_path_fetched > 0
    assert core(True, fault_rate=1e-2).run(trace).faults_injected > 0
    leader = core(True)
    leader.begin(trace)
    leader.advance(lambda: leader.stats.committed >= 1_500)
    resumed = core(True, site=leader.fault_injector.eligible + 100)
    assert resumed.run(trace, start=leader.capture()).faults_injected == 1
    assert trace == generate(profile, 3_000, seed=5)


if __name__ == "__main__":
    print(_traces_digest())
