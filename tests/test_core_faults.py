"""Fault injector: eligibility, forcing, and validation."""

import pytest

from repro.core.dynop import DynOp
from repro.faults import TransientFault
from repro.isa import MicroOp, OpClass


def dynop(uop: MicroOp, seq: int = 0) -> DynOp:
    op = DynOp(uop=uop, seq=seq, fetched_at=0)
    op.complete_at = 10
    return op


def test_forced_seq_is_injected_exactly_once():
    injector = TransientFault(rate=0.0, force_seqs=frozenset({3}))
    op = dynop(MicroOp(op=OpClass.IALU, dest=1), seq=3)
    assert injector.maybe_inject(op) is True
    assert op.faulty and op.fault_at == 10
    # A refetched instance of the same seq is not re-corrupted.
    fresh = dynop(MicroOp(op=OpClass.IALU, dest=1), seq=3)
    assert injector.maybe_inject(fresh) is False
    assert injector.injected == 1


def test_only_register_writing_ops_are_eligible():
    injector = TransientFault(rate=1.0)
    store = dynop(MicroOp(op=OpClass.STORE, srcs=(1, 2), addr=0x40))
    branch = dynop(MicroOp(op=OpClass.BRANCH, srcs=(1,), taken=True, target=0x80))
    assert injector.maybe_inject(store) is False
    assert injector.maybe_inject(branch) is False
    assert injector.injected == 0


def test_rate_one_always_injects_on_eligible_ops():
    injector = TransientFault(rate=1.0)
    op = dynop(MicroOp(op=OpClass.FMUL, dest=33, srcs=(32,)))
    assert injector.maybe_inject(op) is True


def test_same_seed_gives_same_injection_sequence():
    outcomes = []
    for _ in range(2):
        injector = TransientFault(rate=0.5, seed=123)
        outcomes.append(
            [
                injector.maybe_inject(dynop(MicroOp(op=OpClass.IALU, dest=1), seq=i))
                for i in range(32)
            ]
        )
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0]) and not all(outcomes[0])


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_rejects_out_of_range_rate(rate):
    with pytest.raises(ValueError):
        TransientFault(rate=rate)


def test_divide_squashed_mid_execution_releases_its_unit():
    """Regression: a recovery squash used to leave an in-flight divide's
    ``busy_until`` entry in the FU pool, blocking the unit for the full
    latency of an op that no longer existed."""
    from repro.core import CheckerParams, CoreParams, SuperscalarCore
    from repro.isa.opcodes import FUClass

    params = CoreParams(
        fetch_width=4,
        issue_width=4,
        commit_width=4,
        window_size=32,
        model_icache=False,
        record_retired=True,
        fu_counts={FUClass.IALU: 4, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1},
        checker=CheckerParams(enabled=True, force_fault_seqs=frozenset({0})),
    )
    trace = [
        MicroOp(op=OpClass.IALU, dest=1),  # faulty: detected @3
        MicroOp(op=OpClass.IDIV, dest=2),  # in flight (1..20) when squashed
    ]
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.recoveries == 1
    ialu, idiv = core.retired
    assert ialu.corrected
    # Recovery at 3, penalty 8: refetch @11, issue @12 — only possible if
    # the squashed instance's reservation (busy until 20) was released.
    assert idiv.issued_at == 12
    assert stats.committed == 2
