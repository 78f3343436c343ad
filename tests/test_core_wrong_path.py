"""Wrong-path execution: fetch past mispredicts, resource waste, squash."""

import hashlib
import random
import re
from dataclasses import replace

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.checker import Checker
from repro.core.dynop import DynOp
from repro.core.params import MemDepParams
from repro.core.recovery import RecoveryManager
from repro.core.sched import FUPool
from repro.core.stats import CoreStats
from repro.isa import MicroOp, OpClass
from repro.isa.opcodes import FU_CLASSES, default_latencies
from repro.isa.registers import REG_ZERO
from repro.workloads import PRESET_NAMES, WorkloadProfile, WrongPathGenerator, generate, preset
from repro.cli import run_experiment


def wp_params(**overrides) -> CoreParams:
    defaults = dict(
        fetch_width=4,
        issue_width=4,
        commit_width=4,
        window_size=32,
        model_icache=False,
        record_retired=True,
        model_wrong_path=True,
    )
    defaults.update(overrides)
    return CoreParams(**defaults)


def ialu(dest, *srcs):
    return MicroOp(op=OpClass.IALU, dest=dest, srcs=srcs)


def slow_branch_trace():
    """A mispredicted branch whose condition hangs off a multiply, so the
    wrong path has several cycles to fetch and issue before resolution."""
    return [
        ialu(1),
        MicroOp(op=OpClass.IMUL, dest=2, srcs=(1,)),
        MicroOp(op=OpClass.BRANCH, srcs=(2,), taken=True, target=0x80, mispredicted=True),
        ialu(3),
        ialu(4, 3),
    ]


def test_wrong_path_ops_fetch_issue_and_squash():
    core = SuperscalarCore(wp_params())
    stats = core.run(slow_branch_trace())
    assert stats.wrong_path_fetched > 0
    assert stats.wrong_path_issued > 0
    assert stats.wrong_path_squashed == stats.wrong_path_fetched
    assert stats.wrong_path_slots_used >= stats.wrong_path_issued
    # Every architectural instruction still commits exactly once, in order,
    # and nothing wrong-path ever reaches the retired stream.
    assert stats.committed == 5
    assert [op.seq for op in core.retired] == list(range(5))
    assert all(not op.wrong_path for op in core.retired)


def test_wrong_path_does_not_change_correct_path_commit_timing_here():
    """With no shared memory traffic and abundant FUs, wrong-path work only
    consumes *leftover* bandwidth: the oldest-first scheduler must keep the
    correct path's timing identical to a toggled-off run."""
    on = SuperscalarCore(wp_params())
    on.run(slow_branch_trace())
    off = SuperscalarCore(wp_params(model_wrong_path=False))
    off.run(slow_branch_trace())
    assert [op.committed_at for op in on.retired] == [
        op.committed_at for op in off.retired
    ]


def test_toggle_off_reproduces_pinned_mispredict_cycles():
    """The wrong-path flag off must reproduce the seed's pinned behaviour:
    branch issues @1, resolves @2, fetch restarts at 2+3=5."""
    trace = [
        ialu(1),
        MicroOp(op=OpClass.BRANCH, srcs=(0,), taken=True, target=0x40, mispredicted=True),
        ialu(2),
        ialu(3),
    ]
    core = SuperscalarCore(wp_params(model_wrong_path=False, mispredict_penalty=3))
    stats = core.run(trace)
    assert [op.committed_at for op in core.retired] == [2, 2, 7, 7]
    assert stats.cycles == 8
    assert stats.wrong_path_fetched == 0
    assert stats.wrong_path_issued == 0
    assert stats.wrong_path_slots_used == 0


def test_wrong_path_ops_are_flagged_and_coloured():
    seen = []

    def spy_source(branch, seq, depth):
        ops = WrongPathGenerator(seed=3).stream(branch, seq, depth)
        seen.append((branch.pc, seq, len(ops)))
        return ops

    core = SuperscalarCore(wp_params(), wrong_path_source=spy_source)
    core.run(slow_branch_trace())
    assert seen and seen[0][1] == 2  # spawned by the branch at seq 2
    assert seen[0][2] == core.params.wrong_path_depth


def test_wrong_path_depth_bounds_fetch():
    core = SuperscalarCore(wp_params(wrong_path_depth=3))
    stats = core.run(slow_branch_trace())
    assert 0 < stats.wrong_path_fetched <= 3


def test_wrong_path_ops_are_never_checked():
    params = wp_params(checker=CheckerParams(enabled=True))
    core = SuperscalarCore(params)
    stats = core.run(slow_branch_trace())
    assert stats.wrong_path_issued > 0
    # Exactly the architectural instructions are verified; wrong-path work
    # adds nothing to the check stream.
    assert stats.checks_completed == 5
    assert stats.committed == 5
    assert all(op.checked for op in core.retired)


def test_checker_issue_skips_wrong_path_ops_and_their_registers():
    """Wrong-path ops never join the check queue (the core enqueues only
    correct-path renames), and a stale squashed entry at the queue head is
    dropped lazily without blocking the in-order scan or advertising a
    verified register."""
    pool = FUPool({cls: 8 for cls in FU_CLASSES})
    pool.begin_cycle(5)
    stats = CoreStats()
    checker = Checker(pool, default_latencies(), stats)
    squashed = DynOp(uop=MicroOp(op=OpClass.IALU, dest=7), seq=100, fetched_at=0)
    squashed.complete_at = 3
    squashed.squashed = True
    real = DynOp(uop=MicroOp(op=OpClass.IALU, dest=8), seq=101, fetched_at=0)
    real.complete_at = 3
    checker._pending.append(squashed)  # the queue fetch fills in place
    checker._pending.append(real)
    used = checker.issue(now=5, slots=4)
    assert used == 1
    assert squashed.check_issued_at is None  # dropped, not blocking the scan
    assert real.check_issued_at == 5
    assert 7 not in checker._reg_ready  # no verified-value advertisement


def test_wrong_path_ops_never_enter_the_check_queue():
    """End-to-end: a checked run through a wrong-path episode enqueues only
    the architectural ops for verification."""
    params = wp_params(checker=CheckerParams(enabled=True))
    core = SuperscalarCore(params)
    stats = core.run(slow_branch_trace())
    assert stats.wrong_path_fetched > 0
    assert len(core.checker._pending) == 0  # drained: every real op checked
    assert stats.checks_completed == 5


def test_recovery_sweeps_an_active_wrong_path_episode():
    """A fault detected while wrong-path fetch is live squashes the episode
    with everything younger; the refetched branch restarts it, and the
    fault-accounting invariant survives."""
    trace = slow_branch_trace()
    params = wp_params(checker=CheckerParams(enabled=True, force_fault_seqs=frozenset({0})))
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.recoveries == 1
    assert stats.faults_detected == 1
    assert stats.faults_detected + stats.faults_squashed == stats.faults_injected
    assert stats.wrong_path_squashed == stats.wrong_path_fetched
    assert stats.branches == 1 and stats.branch_mispredicts == 1
    assert stats.committed == 5
    assert [op.seq for op in core.retired] == list(range(5))


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_wrong_path_nop_is_fetched_complete(checked: bool):
    """A wrong-path stream may hold nops, which the synthetic generator
    never emits: one is born issued and complete in its fetch cycle."""

    def source(branch, seq, depth):
        return iter([MicroOp(op=OpClass.NOP, pc=0x80), ialu(5, 4)])

    core = SuperscalarCore(
        wp_params(checker=CheckerParams(enabled=checked)), wrong_path_source=source
    )
    core.begin(slow_branch_trace())
    assert core.advance(lambda: any(op.wrong_path for op in core._window))
    nop = next(op for op in core._window if op.wrong_path)
    assert nop.uop.op is OpClass.NOP
    assert nop.issued_at == nop.complete_at == nop.fetched_at
    assert not core.advance()
    assert core.stats.committed == 5


def test_wrong_path_run_is_deterministic():
    trace = generate(preset("branchy"), 1500, seed=9)
    params = CoreParams(checker=CheckerParams(enabled=True, fault_rate=0.01))
    first = SuperscalarCore(params).run(trace)
    second = SuperscalarCore(params).run(trace)
    assert first.to_dict() == second.to_dict()
    assert first.wrong_path_fetched > 0


def test_wrong_path_generator_streams_are_deterministic_and_bounded():
    branch = MicroOp(
        op=OpClass.BRANCH, srcs=(1,), pc=0x400100, taken=True, target=0x400200
    )
    generator = WrongPathGenerator(seed=5)
    first = generator.stream(branch, 17, 24)
    second = generator.stream(branch, 17, 24)
    assert len(first) == 24
    assert [(op.op, op.pc, op.dest, op.srcs, op.addr) for op in first] == [
        (op.op, op.pc, op.dest, op.srcs, op.addr) for op in second
    ]
    other = generator.stream(branch, 18, 24)  # another dynamic instance
    assert [(op.op, op.pc) for op in other] != [(op.op, op.pc) for op in first]


def test_wrong_path_starts_on_the_not_taken_side_of_a_taken_branch():
    generator = WrongPathGenerator(seed=0)
    taken = MicroOp(op=OpClass.BRANCH, pc=0x1000, taken=True, target=0x2000)
    assert generator.stream(taken, 0, 4)[0].pc == 0x1004  # fell through
    not_taken = MicroOp(op=OpClass.BRANCH, pc=0x1000, taken=False, target=0x2000)
    assert generator.stream(not_taken, 0, 4)[0].pc == 0x2000  # went to target


def test_wrong_path_branches_are_inert():
    generator = WrongPathGenerator(seed=1)
    branch = MicroOp(op=OpClass.BRANCH, pc=0x4000, taken=True, target=0x8000)
    stream = generator.stream(branch, 3, 200)
    wp_branches = [op for op in stream if op.is_branch()]
    assert wp_branches  # the mix does contain branches
    assert all(op.taken is None and not op.mispredicted for op in wp_branches)
    assert all(op.op is not OpClass.NOP for op in stream)


def test_branchy_preset_wrong_path_pressure_and_slowdown():
    """Acceptance: on the ``branchy`` preset at the CLI defaults, wrong-path
    execution reports nonzero wrong-path slot usage and a (deterministically)
    larger checked-vs-unchecked slowdown than with the toggle off."""
    profile = preset("branchy")
    with_wp = run_experiment(profile, num_ops=20_000, seed=0, check=True)
    without_wp = run_experiment(profile, num_ops=20_000, seed=0, check=True, wrong_path=False)
    assert with_wp["checked"]["wrong_path_slots_used"] > 0
    assert with_wp["unchecked"]["wrong_path_slots_used"] > 0
    assert with_wp["checked"]["wrong_path_slot_rate"] > 0.0
    assert without_wp["checked"]["wrong_path_slots_used"] == 0
    assert with_wp["slowdown"] > without_wp["slowdown"]


# ------------------------------------------------------------ pinned streams

#: sha256 of every op of the streams `_pinned_streams` draws: the default
#: mix and the four presets, a hot set of 300 lines (a rejection loop that
#: redraws) and of 1 line, three seeds, both sides of a branch and depths
#: up to 512.  Recorded from the generator that drew through
#: ``random.Random``'s ``choice``, ``randrange`` and ``random`` calls; a
#: change to any draw, to its order or to the ops built from it changes it.
WRONG_PATH_STREAMS_SHA256 = "d43dce0d9f500ae7c6ca351af3a339d155c4d88b1f131859bda7a9a10687b41e"

_PIN_BRANCHES = (
    MicroOp(op=OpClass.BRANCH, srcs=(3,), pc=0x0040_0100, taken=True, target=0x0040_0400),
    MicroOp(op=OpClass.BRANCH, srcs=(3,), pc=0x0040_0224, taken=False, target=0x0040_0800),
    MicroOp(op=OpClass.BRANCH, srcs=(3,), pc=0x0040_0348, taken=False),
)


def _op_key(uop: MicroOp) -> tuple:
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


def _pinned_streams():
    memory_bound = preset("memory-bound")
    profiles = [
        None,
        *(preset(name) for name in PRESET_NAMES),
        replace(memory_bound, name="hot-300", hot_lines=300),
        replace(memory_bound, name="hot-1", hot_lines=1),
    ]
    for profile in profiles:
        for seed in (0, 1, 47):
            generator = WrongPathGenerator(profile, seed=seed)
            for index, branch in enumerate(_PIN_BRANCHES):
                for depth in (0, 1, 8, 64, 512):
                    yield depth, generator.stream(branch, 1_000 * index + depth, depth)


def test_wrong_path_streams_are_pinned():
    digest = hashlib.sha256()
    for depth, stream in _pinned_streams():
        assert len(stream) == depth
        digest.update(repr([_op_key(op) for op in stream]).encode())
    assert digest.hexdigest() == WRONG_PATH_STREAMS_SHA256


def test_written_out_draws_match_random_random_calls():
    """The generator writes `choice(seq)`, `randrange(n)` and
    `randrange(1, 32)` out as `_randbelow`'s getrandbits rejection loop.
    The pinned digest cannot see a CPython whose `_randbelow` differs (the
    generator no longer calls it); this check, run on each CPython, can."""

    def below(rng: random.Random, n: int) -> int:
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    for n in (1, 2, 3, 5, 8, 31, 32, 300, 4096):
        calls, written_out = random.Random(n), random.Random(n)
        recent = list(range(100, 100 + n))
        for _ in range(100):
            assert calls.randrange(n) == below(written_out, n)
            assert calls.choice(recent) == recent[below(written_out, n)]
            assert calls.randrange(1, 32) == 1 + below(written_out, 31)


def test_interleaved_iterators_draw_like_separate_streams():
    """Each stream owns its draws: two open iterators of one generator,
    pulled alternately, yield what two `stream()` calls yield.  A core
    pair shares one generator, and a resumed campaign trial reopens its
    episode's stream part-way."""
    generator = WrongPathGenerator(preset("fp-heavy"), seed=47)
    taken, not_taken, _ = _PIN_BRANCHES
    for first, second in (((taken, 11), (not_taken, 12)), ((taken, 11), (taken, 11))):
        expected = [generator.stream(*first, 64), generator.stream(*second, 64)]
        iterators = [generator.iter_stream(*first, 64), generator.iter_stream(*second, 64)]
        pulled: list[list[MicroOp]] = [[], []]
        for step in range(64):
            for which in (0, 1) if step % 3 else (1, 0):
                pulled[which].append(next(iterators[which]))
        assert [[_op_key(op) for op in ops] for ops in pulled] == [
            [_op_key(op) for op in ops] for ops in expected
        ]
        assert all(next(iterator, None) is None for iterator in iterators)


@pytest.mark.parametrize(
    "mix",
    [{OpClass.NOP: 1.0}, {OpClass.NOP: 1.0, OpClass.IALU: 0.0}],
    ids=["nop-only", "zero-weight-ialu"],
)
def test_a_mix_without_positive_non_nop_weight_has_no_wrong_path_stream(mix):
    """Such a mix builds a generator, but asking it for a stream is an
    error that names the mix (``random.choices`` refuses a zero total too)
    instead of an IndexError or a stream of zero-weight ops."""
    generator = WrongPathGenerator(WorkloadProfile(name="nops", mix=mix), seed=0)
    named = {op.name: weight for op, weight in mix.items()}
    with pytest.raises(ValueError, match=re.escape(f"wrong-path mix {named} ")):
        generator.stream(_PIN_BRANCHES[0], 0, 4)


def test_a_nop_only_trace_runs_with_wrong_paths_on():
    profile = WorkloadProfile(name="nops", mix={OpClass.NOP: 1.0})
    result = run_experiment(profile, num_ops=200)
    assert result["unchecked"]["committed"] == result["checked"]["committed"] == 200


# ------------------------------------------- producer map after resolution


@pytest.mark.parametrize("memdep", [False, True], ids=["no-memdep", "memdep"])
@pytest.mark.parametrize(("window", "depth"), [(128, 64), (1024, 512)], ids=["w128", "w1024"])
@pytest.mark.parametrize("name", ["branchy", "memory-bound", "int-heavy"])
def test_every_wrong_path_resolution_leaves_the_rebuilt_producer_map(
    monkeypatch, name, window, depth, memdep
):
    """After each resolution the producer map holds, per register, the
    last uncommitted writer in the surviving window: what
    `RecoveryManager.rebuild_producers` computes.  A map that kept a
    since-committed producer would only add a dependency that is already
    complete, so no statistic shows that mistake; this check does."""
    original = RecoveryManager.squash_wrong_path
    resolutions = 0

    def checked_squash(manager: RecoveryManager, now: int) -> None:
        nonlocal resolutions
        core = manager._core
        episode = core._wp_branch
        original(manager, now)
        if core._wp_branch is episode:
            return  # a stale event: nothing resolved
        resolutions += 1
        expected = {}
        for op in core._window:
            dest = op.uop.dest
            if dest is not None and dest != REG_ZERO and op.uop.op is not OpClass.NOP:
                expected[dest] = op
        producers = core._reg_producer
        assert producers.keys() == expected.keys()
        assert all(producers[reg] is op for reg, op in expected.items())

    monkeypatch.setattr(RecoveryManager, "squash_wrong_path", checked_squash)
    params = CoreParams(window_size=window, memdep=MemDepParams(enabled=memdep))
    run_experiment(
        preset(name),
        num_ops=4_000,
        seed=0,
        fault_rate=1e-3,
        wrong_path_depth=depth,
        params=params,
    )
    assert resolutions > 0
