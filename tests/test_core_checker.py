"""Checked-mode integration: resource stealing, detection, recovery."""

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.isa import MicroOp, OpClass
from repro.workloads import generate, preset


def checked_params(**checker_overrides) -> CoreParams:
    checker = dict(enabled=True)
    checker.update(checker_overrides)
    return CoreParams(
        fetch_width=4,
        issue_width=4,
        commit_width=4,
        window_size=32,
        model_icache=False,
        record_retired=True,
        checker=CheckerParams(**checker),
    )


def ialu_chain(n: int) -> list[MicroOp]:
    """r1 = f(r1) repeated: a serial dependence chain."""
    return [MicroOp(op=OpClass.IALU, dest=1, srcs=(1,) if i else ()) for i in range(n)]


def test_fault_free_checked_run_verifies_every_instruction():
    trace = ialu_chain(12)
    core = SuperscalarCore(checked_params())
    stats = core.run(trace)
    assert stats.committed == 12
    assert stats.checks_completed == 12
    assert stats.checker_slots_used >= 12
    assert all(op.checked for op in core.retired)
    assert stats.faults_injected == 0 and stats.recoveries == 0


def test_nops_commit_without_consuming_checker_bandwidth():
    trace = [MicroOp(op=OpClass.NOP) for _ in range(6)]
    core = SuperscalarCore(checked_params())
    stats = core.run(trace)
    assert stats.committed == 6
    assert stats.checks_completed == 0
    assert stats.checker_slots_used == 0


def test_forced_fault_is_detected_and_recovered_before_commit():
    trace = ialu_chain(8)
    core = SuperscalarCore(checked_params(force_fault_seqs=frozenset({2})))
    stats = core.run(trace)
    assert stats.faults_injected == 1
    assert stats.faults_detected == 1
    assert stats.recoveries == 1
    assert stats.squashed >= 1  # younger ops were thrown away and replayed
    # Every instruction still commits exactly once, in program order.
    assert [op.seq for op in core.retired] == list(range(8))
    faulty = core.retired[2]
    assert faulty.corrected and not faulty.faulty
    assert faulty.check_complete_at <= faulty.committed_at  # detect before commit
    assert all(not op.faulty for op in core.retired)


def test_detection_latency_is_positive_and_recorded():
    trace = ialu_chain(8)
    core = SuperscalarCore(checked_params(force_fault_seqs=frozenset({4})))
    stats = core.run(trace)
    assert stats.faults_detected == 1
    assert stats.mean_detection_latency > 0
    assert stats.detection_latency_max >= stats.mean_detection_latency


def test_detection_latency_reservoir_caps_samples_but_keeps_sum_exact():
    from repro.core.stats import DETECTION_LATENCY_RESERVOIR, CoreStats

    stats = CoreStats()
    latencies = [3 + (i % 40) for i in range(2_000)]
    for latency in latencies:
        stats.record_detection_latency(latency)
    assert len(stats.detection_latencies) == DETECTION_LATENCY_RESERVOIR
    assert stats.detection_latency_sum == sum(latencies)  # exact past the cap
    assert stats.detection_latency_max == max(latencies)
    # The sample only contains values that were actually recorded.
    assert set(stats.detection_latencies) <= set(latencies)


def test_detection_latency_reservoir_is_deterministic():
    from repro.core.stats import CoreStats

    def fill() -> list[int]:
        stats = CoreStats()
        for i in range(5_000):
            stats.record_detection_latency(i % 97)
        return list(stats.detection_latencies)

    # Fixed-seed Algorithm R: two independent runs keep the same sample, so
    # sweep rows stay byte-identical across machines and repeats.
    assert fill() == fill()


def test_detection_latencies_below_the_cap_are_verbatim_in_order():
    from repro.core.stats import CoreStats

    stats = CoreStats()
    for latency in (9, 4, 17):
        stats.record_detection_latency(latency)
    assert stats.detection_latencies == [9, 4, 17]
    assert stats.detection_latency_sum == 30
    assert stats.detection_latency_max == 17


def test_every_live_fault_is_detected_under_random_injection():
    trace = generate(preset("int-heavy"), 2000, seed=11)
    params = CoreParams(
        record_retired=True,
        checker=CheckerParams(enabled=True, fault_rate=0.02, fault_seed=5),
    )
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.faults_injected > 0
    # A fault either reaches its check (detected) or dies in a squash; no
    # third outcome, and nothing corrupt ever commits.
    assert stats.faults_detected + stats.faults_squashed == stats.faults_injected
    assert stats.faults_detected > 0
    assert stats.committed == 2000
    assert all(not op.faulty for op in core.retired)
    assert all(op.checked for op in core.retired if op.uop.op is not OpClass.NOP)


def test_checker_only_steals_slots_the_primary_left_idle():
    trace = generate(preset("int-heavy"), 1500, seed=3)
    stats = SuperscalarCore(
        CoreParams(checker=CheckerParams(enabled=True))
    ).run(trace)
    assert stats.slot_steal_rate > 0.0
    assert stats.primary_slot_utilization + stats.slot_steal_rate <= 1.0


def test_checked_core_is_never_faster_than_unchecked_on_int_heavy():
    trace = generate(preset("int-heavy"), 2000, seed=0)
    unchecked = SuperscalarCore(CoreParams()).run(trace)
    checked = SuperscalarCore(CoreParams(checker=CheckerParams(enabled=True))).run(trace)
    assert checked.committed == unchecked.committed == 2000
    assert checked.ipc <= unchecked.ipc


def test_squash_refetched_branches_are_counted_once():
    # The fault on op 0 is detected after the younger mispredicted branch
    # was fetched; the squash re-fetches it, but it is one dynamic branch.
    trace = [
        MicroOp(op=OpClass.IALU, dest=1),
        MicroOp(op=OpClass.BRANCH, srcs=(1,), taken=True, target=0x80, mispredicted=True),
        MicroOp(op=OpClass.IALU, dest=2, srcs=(1,)),
        MicroOp(op=OpClass.IALU, dest=3, srcs=(2,)),
    ]
    core = SuperscalarCore(checked_params(force_fault_seqs=frozenset({0})))
    stats = core.run(trace)
    assert stats.recoveries == 1 and stats.squashed >= 1
    assert stats.branches == 1
    assert stats.branch_mispredicts == 1


def test_rerunning_the_same_core_gives_identical_stats():
    trace = generate(preset("int-heavy"), 1000, seed=6)
    params = CoreParams(checker=CheckerParams(enabled=True, fault_rate=0.01))
    core = SuperscalarCore(params)
    first = core.run(trace).to_dict()
    second = core.run(trace).to_dict()
    assert first == second
    assert first["committed"] == 1000


def test_recovery_does_not_cancel_an_outstanding_icache_miss_stall():
    """A squash replaces the branch-redirect stall but an in-flight
    instruction-fetch miss keeps its latency (the line was installed at
    miss time, so a refetch would otherwise hit early and skip the wait)."""
    from repro.core.dynop import DynOp

    core = SuperscalarCore(checked_params())
    core._icache_stall_until = 500  # fetch mid-way through an I-miss
    faulty = DynOp(uop=MicroOp(op=OpClass.IALU, dest=1), seq=0, fetched_at=0)
    core._window.append(faulty)
    core._recovery.recover_fault(faulty, now=10)
    assert core._icache_stall_until == 500
    assert core._fetch_stall_until == 10 + core.params.checker.recovery_penalty


def test_cycle_zero_fault_reports_its_full_detection_latency():
    """Regression: a fault activated at cycle 0 is falsy, and the old
    ``op.fault_at or op.check_complete_at`` fallback reported latency 0."""
    from collections import deque

    from repro.core.checker import Checker
    from repro.core.dynop import DynOp
    from repro.core.sched import FUPool
    from repro.core.stats import CoreStats
    from repro.isa.opcodes import FU_CLASSES, default_latencies

    stats = CoreStats()
    checker = Checker(FUPool({cls: 8 for cls in FU_CLASSES}), default_latencies(), stats)
    op = DynOp(uop=MicroOp(op=OpClass.IALU, dest=1), seq=0, fetched_at=0)
    op.faulty = True
    op.fault_at = 0
    op.check_complete_at = 5
    assert checker.process_completions(deque([op]), now=5) is op
    assert stats.detection_latency_sum == 5
    assert stats.detection_latency_max == 5


def test_squash_with_an_in_flight_check_releases_the_checkers_unit():
    """A squashed op whose *check* holds an unpipelined unit must give it
    back: the refetched instance would otherwise stall on a phantom check."""
    from repro.isa.opcodes import FUClass

    params = checked_params(force_fault_seqs=frozenset({0}))
    params.fu_counts = {FUClass.IALU: 4, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1}
    trace = [
        MicroOp(op=OpClass.FDIV, dest=33),  # faulty; check completes @25
        MicroOp(op=OpClass.IDIV, dest=2),  # check in flight (20..39) at detection
    ]
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.recoveries == 1
    assert stats.mean_detection_latency == 12.0  # fault @13, check done @25
    fdiv, idiv = core.retired
    assert fdiv.corrected and fdiv.seq == 0
    # Recovery at 25, penalty 8: refetch @33, issue @34 — only possible if
    # the squashed instance's check reservation (busy until 39) was freed.
    assert idiv.issued_at == 34
    assert stats.committed == 2


def test_disabling_the_checker_between_runs_takes_effect():
    trace = ialu_chain(12)
    core = SuperscalarCore(checked_params())
    assert core.run(trace).checks_completed == 12
    core.params.checker.enabled = False
    stats = core.run(trace)
    assert stats.committed == 12
    assert stats.checks_completed == 0 and stats.checker_slots_used == 0


def test_checked_run_is_deterministic():
    trace = generate(preset("branchy"), 1200, seed=9)
    params = CoreParams(checker=CheckerParams(enabled=True, fault_rate=0.01, fault_seed=2))
    first = SuperscalarCore(params).run(trace)
    second = SuperscalarCore(params).run(trace)
    assert first.to_dict() == second.to_dict()
