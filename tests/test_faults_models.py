"""Typed fault models: eligibility, triggers, effects, factory dispatch."""

import random
from types import SimpleNamespace

import pytest

from repro.core.dynop import DynOp
from repro.core.params import CheckerParams
from repro.faults import (
    FAULT_MODELS,
    AddressPathFault,
    CheckerFault,
    IntermittentFault,
    StuckAtFUFault,
    TransientFault,
    build_fault_model,
)
from repro.isa import MicroOp, OpClass
from repro.isa.opcodes import FUClass


def dynop(uop: MicroOp, seq: int = 0, issued_at: int = 0) -> DynOp:
    op = DynOp(uop=uop, seq=seq, fetched_at=0)
    op.issued_at = issued_at
    op.complete_at = issued_at + 10
    return op


def ialu(seq: int = 0, issued_at: int = 0) -> DynOp:
    return dynop(MicroOp(op=OpClass.IALU, dest=1), seq=seq, issued_at=issued_at)


# ---------------------------------------------------------------- transient


def test_force_index_triggers_exactly_the_kth_eligible_op():
    model = TransientFault(rate=0.0, force_index=2)
    hits = [model.maybe_inject(ialu(seq=i)) for i in range(5)]
    assert hits == [False, False, True, False, False]
    assert model.injected == 1
    assert model.eligible == 5


def test_force_index_consumes_no_rng_draws():
    """The trigger is an index comparison, so the post-trigger RNG state
    equals a fresh generator's — the campaign's per-trial seeds stay a
    pure function of the config no matter where the fault lands."""
    model = TransientFault(rate=0.0, seed=42, force_index=1)
    for i in range(4):
        model.maybe_inject(ialu(seq=i))
    assert model._rng.random() == random.Random(42).random()


def test_ineligible_ops_consume_neither_index_nor_draws():
    model = TransientFault(rate=0.0, force_index=0)
    store = dynop(MicroOp(op=OpClass.STORE, srcs=(1, 2), addr=0x40))
    assert model.maybe_inject(store) is False
    assert model.eligible == 0
    assert model.maybe_inject(ialu()) is True  # index 0 is the first *eligible*


# ------------------------------------------------------------- intermittent


def test_intermittent_burst_corrupts_consecutive_eligible_ops():
    model = IntermittentFault(rate=0.0, burst=3, force_index=0)
    hits = [model.maybe_inject(ialu(seq=i)) for i in range(5)]
    assert hits == [True, True, True, False, False]
    assert model.injected == 3
    assert model.eligible == 5


def test_intermittent_burst_skips_ineligible_ops_without_consuming():
    model = IntermittentFault(rate=0.0, burst=2, force_index=0)
    assert model.maybe_inject(ialu(seq=0)) is True
    store = dynop(MicroOp(op=OpClass.STORE, srcs=(1,), addr=0x40), seq=1)
    assert model.maybe_inject(store) is False  # not eligible, burst unspent
    assert model.maybe_inject(ialu(seq=2)) is True  # burst continues here
    assert model.injected == 2


def test_intermittent_rejects_bad_burst():
    with pytest.raises(ValueError):
        IntermittentFault(rate=0.0, burst=0)


# ----------------------------------------------------------------- stuck-fu


def test_stuck_fu_breaks_one_class_for_the_repair_window():
    model = StuckAtFUFault(rate=0.0, fu=FUClass.IALU, fu_count=1,
                           repair_cycles=10, force_index=0)
    assert model.maybe_inject(ialu(seq=0, issued_at=0)) is True  # trigger @0
    # fu_count == 1: every same-class op in the window lands on the break.
    assert model.maybe_inject(ialu(seq=1, issued_at=5)) is True
    # Other FU classes never see the broken unit.
    imul = dynop(MicroOp(op=OpClass.IMUL, dest=2, srcs=(1,)), seq=2, issued_at=6)
    assert model.maybe_inject(imul) is False
    # At issue >= broken_until the unit is repaired (and the force is spent).
    assert model.maybe_inject(ialu(seq=3, issued_at=10)) is False
    assert model.injected == 2


def test_stuck_fu_check_on_broken_unit_goes_silent_or_false_alarms():
    model = StuckAtFUFault(rate=0.0, fu=FUClass.IALU, fu_count=1,
                           repair_cycles=50, force_index=0)
    faulty = ialu(seq=0, issued_at=0)
    assert model.maybe_inject(faulty) is True
    # Re-checking the corrupt result on the same broken unit reproduces the
    # wrong transform: the compare passes and no new injection is counted.
    model.on_check_issue(faulty, now=3)
    assert faulty.fault_silent and model.injected == 1
    # A clean op checked on the broken unit miscompares spuriously — that
    # *is* a new fault event, so it counts as an injection.
    clean = ialu(seq=1, issued_at=1)
    model.on_check_issue(clean, now=4)
    assert clean.check_faulty and not clean.faulty
    assert clean.fault_at == 4
    assert model.injected == 2
    # After repair the check path is healthy again.
    late = ialu(seq=2, issued_at=2)
    model.on_check_issue(late, now=60)
    assert not late.check_faulty and model.injected == 2


def test_stuck_fu_validates_knobs():
    with pytest.raises(ValueError):
        StuckAtFUFault(rate=0.0, repair_cycles=0)
    with pytest.raises(ValueError):
        StuckAtFUFault(rate=0.0, fu_count=0)


# ------------------------------------------------------------------ address


def test_address_model_is_eligible_on_loads_and_stores_only():
    model = AddressPathFault(rate=1.0, seed=7)
    assert model.dest_only is False  # the core must not pre-filter stores out
    assert model.maybe_inject(ialu()) is False
    assert model.eligible == 0
    load = dynop(MicroOp(op=OpClass.LOAD, dest=1, addr=0x40), seq=1)
    store = dynop(MicroOp(op=OpClass.STORE, srcs=(1,), addr=0x80), seq=2)
    assert model.maybe_inject(load) is True
    assert model.maybe_inject(store) is True
    assert model.eligible == 2 and model.injected == 2


def test_address_model_locus_draw_splits_agu_from_data_path():
    silent_seed = next(
        s for s in range(100) if random.Random(s).random() < 0.5
    )
    agu_seed = next(
        s for s in range(100) if random.Random(s).random() >= 0.5
    )
    silent = AddressPathFault(rate=0.0, seed=silent_seed, force_index=0)
    load = dynop(MicroOp(op=OpClass.LOAD, dest=1, addr=0x40))
    assert silent.maybe_inject(load) is True
    assert load.faulty and load.fault_silent  # past the AGU: checker-blind
    visible = AddressPathFault(rate=0.0, seed=agu_seed, force_index=0)
    load2 = dynop(MicroOp(op=OpClass.LOAD, dest=1, addr=0x40))
    assert visible.maybe_inject(load2) is True
    assert load2.faulty and not load2.fault_silent  # AGU stage: detectable


# ------------------------------------------------------------------ checker


def test_checker_model_injects_at_check_issue_not_primary_issue():
    model = CheckerFault(rate=1.0, seed=7)
    assert model.maybe_inject(ialu()) is False
    assert model.injected == 0


def test_checker_model_false_alarms_on_clean_ops_and_masks_faulty_ones():
    model = CheckerFault(rate=0.0, seed=7, force_index=0)
    clean = ialu(seq=0)
    model.on_check_issue(clean, now=5)
    assert clean.check_faulty and clean.fault_at == 5
    assert model.injected == 1
    masked = CheckerFault(rate=0.0, seed=7, force_index=0)
    faulty = ialu(seq=0)
    faulty.faulty = True
    masked.on_check_issue(faulty, now=5)
    assert faulty.fault_silent and not faulty.check_faulty
    assert masked.injected == 1


# -------------------------------------------------------------------- spent


def test_a_forced_model_is_spent_once_its_site_is_behind():
    model = AddressPathFault(rate=0.0, seed=7, force_index=1)
    load = dynop(MicroOp(op=OpClass.LOAD, dest=1, srcs=(2,), addr=0x40))
    model.maybe_inject(load)
    assert not model.spent(0)  # site 1 is still ahead
    model.maybe_inject(load)
    assert model.injected == 1 and model.spent(0)
    # A rate can always draw another fault; a pending forced seq is one.
    assert not AddressPathFault(rate=1e-3, seed=7).spent(0)
    transient = TransientFault(force_seqs=frozenset({3}))
    assert not transient.spent(0)
    transient.maybe_inject(ialu(seq=3))
    assert transient.spent(0)


def test_an_intermittent_model_is_spent_when_its_burst_is():
    model = IntermittentFault(burst=3, force_index=0)
    model.maybe_inject(ialu(seq=0))
    assert not model.spent(0)  # two more ops of the burst to corrupt
    model.maybe_inject(ialu(seq=1))
    assert not model.spent(0)
    model.maybe_inject(ialu(seq=2))
    assert model.injected == 3 and model.spent(0)


def test_a_stuck_unit_model_is_spent_once_its_unit_is_repaired():
    model = StuckAtFUFault(fu=FUClass.IALU, fu_count=1, repair_cycles=10, force_index=0)
    model.maybe_inject(ialu(seq=0, issued_at=4))
    assert not model.spent(5) and not model.spent(13)  # broken through cycle 13
    assert model.spent(14)


# ------------------------------------------------------------------ factory


def _params(**overrides) -> CheckerParams:
    return CheckerParams(enabled=True, **overrides)


def test_build_fault_model_dispatches_every_registered_name():
    expected = {
        "transient": TransientFault,
        "intermittent": IntermittentFault,
        "stuck-fu": StuckAtFUFault,
        "address": AddressPathFault,
        "checker": CheckerFault,
    }
    assert set(expected) == set(FAULT_MODELS)
    for name, cls in expected.items():
        model = build_fault_model(_params(fault_model=name))
        assert type(model) is cls and model.name == name


def test_build_fault_model_sizes_the_stuck_unit_from_fu_counts():
    params = _params(fault_model="stuck-fu", fault_fu="FALU",
                     fault_repair_cycles=77)
    model = build_fault_model(params, fu_counts={FUClass.FALU: 3})
    assert model.fu is FUClass.FALU
    assert model.fu_count == 3
    assert model.repair_cycles == 77
    assert build_fault_model(params).fu_count == 1  # no mapping: worst case


def test_build_fault_model_rejects_unknown_names():
    bogus = SimpleNamespace(
        fault_model="bit-rot", force_fault_index=None, fault_rate=0.0,
        fault_seed=7, force_fault_seqs=frozenset(), fault_burst=4,
        fault_fu="IALU", fault_repair_cycles=200,
    )
    with pytest.raises(ValueError, match="bit-rot"):
        build_fault_model(bogus)


def test_checker_params_validate_fault_model_knobs():
    with pytest.raises(ValueError):
        CheckerParams(fault_model="bogus")
    with pytest.raises(ValueError):
        CheckerParams(fault_burst=0)
    with pytest.raises(ValueError):
        CheckerParams(fault_repair_cycles=0)
    with pytest.raises(ValueError):
        CheckerParams(fault_fu="WARP")
    with pytest.raises(ValueError):
        CheckerParams(force_fault_index=-1)
