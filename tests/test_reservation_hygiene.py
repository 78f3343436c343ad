"""Property-style hygiene tests: squashes always refund shared resources.

Every squash path in the core — branch-misprediction recovery, checker
fault recovery, memory-order-violation replay, wrong-path cleanup — must
return what the squashed ops were holding: LSQ slots, MSHR entries, and
D-cache port/bank reservations.  A leak in any of these shows up as a
deadlock (fetch blocked on a full LSQ that never drains) or as a run that
cannot commit its full trace.  These tests drive the core through hostile
configurations (tiny LSQ, forced faults, deep wrong paths, banked D-cache,
aliasing address streams) across several seeds and assert the structural
invariants that hold at end-of-run if and only if nothing leaked.
"""

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.params import MemDepParams
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import PRESETS, WrongPathGenerator, generate

from dataclasses import replace

NUM_OPS = 3_000

HOSTILE_PROFILES = {
    "memory-bound-aliasing": replace(
        PRESETS["memory-bound"], store_alias_fraction=0.4
    ),
    "branchy": PRESETS["branchy"],
}


def _drained(core: SuperscalarCore, stats, num_ops: int) -> None:
    """End-of-run structural invariants: nothing retained, nothing leaked."""
    assert stats.committed == num_ops
    assert len(core._window) == 0
    assert len(core._lsq) == 0
    # Every MSHR entry is reclaimable: far enough in the future none are
    # outstanding (a leaked entry would pin `outstanding` forever).
    assert core.hierarchy.mshrs.outstanding(stats.cycles + 1_000_000) == 0
    # Squash bookkeeping is consistent: every fetched op either committed
    # or was squashed (correct-path recoveries + wrong-path cleanup).
    assert stats.fetched == stats.committed + stats.squashed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("profile_name", sorted(HOSTILE_PROFILES))
def test_squashes_refund_lsq_mshrs_and_ports(profile_name: str, seed: int):
    profile = HOSTILE_PROFILES[profile_name]
    trace = generate(profile, NUM_OPS, seed=seed)
    params = CoreParams(
        window_size=64,
        wrong_path_depth=48,
        memdep=MemDepParams(enabled=True, lsq_size=12, violation_penalty=4),
        checker=CheckerParams(enabled=True, fault_rate=2e-3, fault_seed=seed + 7),
    )
    hierarchy = MemoryHierarchy(HierarchyParams(dcache_banks=4))
    core = SuperscalarCore(
        params,
        hierarchy=hierarchy,
        wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream,
    )
    stats = core.run(trace)  # a leak raises DeadlockError here
    _drained(core, stats, NUM_OPS)
    assert stats.recoveries > 0  # fault squashes actually exercised


def test_violation_replay_under_fault_pressure_and_tiny_lsq():
    """Memory-order squashes interleaved with fault recoveries on an LSQ
    barely bigger than the fetch width."""
    profile = replace(PRESETS["memory-bound"], store_alias_fraction=0.6)
    trace = generate(profile, NUM_OPS, seed=7)
    params = CoreParams(
        memdep=MemDepParams(enabled=True, lsq_size=8),
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=5),
    )
    core = SuperscalarCore(
        params, wrong_path_source=WrongPathGenerator(profile, seed=7).iter_stream
    )
    stats = core.run(trace)
    _drained(core, stats, NUM_OPS)
    assert stats.mem_order_violations > 0
    assert stats.lsq_full_stalls > 0


def test_forced_fault_on_a_load_inside_an_alias_chain():
    """Deterministic worst case: the checker faults the very ops the
    memory-dependence machinery is juggling."""
    profile = replace(PRESETS["memory-bound"], store_alias_fraction=1.0)
    trace = generate(profile, 400, seed=2)
    params = CoreParams(
        memdep=MemDepParams(enabled=True, lsq_size=16),
        checker=CheckerParams(
            enabled=True, force_fault_seqs=frozenset(range(0, 400, 37))
        ),
    )
    core = SuperscalarCore(params)
    stats = core.run(trace)
    _drained(core, stats, 400)
    assert stats.recoveries > 0


# ------------------------------------------------------- nested recoveries


def test_fault_recovery_during_a_live_wrong_path_episode_with_checkpoints():
    """Checkpointed fault recovery must sweep away an in-flight wrong-path
    episode (and its LSQ/FU holdings) exactly like the flat-penalty path."""
    from repro.core.params import RecoveryParams

    profile = PRESETS["branchy"]
    trace = generate(profile, NUM_OPS, seed=3)
    params = CoreParams(
        window_size=64,
        wrong_path_depth=48,
        memdep=MemDepParams(enabled=True, lsq_size=12),
        recovery=RecoveryParams(checkpoint_interval=32, checkpoint_overhead=2),
        checker=CheckerParams(enabled=True, fault_rate=3e-3, fault_seed=11),
    )
    core = SuperscalarCore(
        params,
        hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=4)),
        wrong_path_source=WrongPathGenerator(profile, seed=3).iter_stream,
    )
    stats = core.run(trace)
    _drained(core, stats, NUM_OPS)
    assert stats.recoveries > 0
    assert stats.wrong_path_squashed > 0
    assert stats.checkpoints_taken > 0
    # The dead episode stayed dead: no stale wrong-path state at run end.
    assert core._wp_branch is None


def test_violation_replay_while_recovery_stalls_fetch():
    """Memory-order violations delivered during checkpoint-rollback fetch
    stalls (long restore penalty) must still drain to full commit."""
    from repro.core.params import RecoveryParams

    profile = replace(PRESETS["memory-bound"], store_alias_fraction=0.6)
    trace = generate(profile, NUM_OPS, seed=7)
    params = CoreParams(
        memdep=MemDepParams(enabled=True, lsq_size=8),
        recovery=RecoveryParams(
            checkpoint_interval=64, checkpoint_overhead=1, restore_penalty=12
        ),
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=5),
    )
    core = SuperscalarCore(
        params, wrong_path_source=WrongPathGenerator(profile, seed=7).iter_stream
    )
    stats = core.run(trace)
    _drained(core, stats, NUM_OPS)
    assert stats.mem_order_violations > 0
    assert stats.recoveries > 0
    assert stats.recovery_stall_cycles >= 12 * stats.recoveries


def test_checkpoint_rollback_with_a_full_lsq():
    """Forced faults while the LSQ is saturated: rollback must refund the
    squashed tail so fetch unblocks and the trace commits fully."""
    from repro.core.params import RecoveryParams

    profile = replace(PRESETS["memory-bound"], store_alias_fraction=1.0)
    trace = generate(profile, 600, seed=2)
    params = CoreParams(
        memdep=MemDepParams(enabled=True, lsq_size=6),
        recovery=RecoveryParams(checkpoint_interval=16),
        checker=CheckerParams(
            enabled=True, force_fault_seqs=frozenset(range(0, 600, 41))
        ),
    )
    core = SuperscalarCore(params)
    stats = core.run(trace)
    _drained(core, stats, 600)
    assert stats.recoveries > 0
    assert stats.lsq_full_stalls > 0
    assert stats.checkpoints_taken > 0
