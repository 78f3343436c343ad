"""Serialization round-trips for CoreParams / CheckerParams.

The sweep subsystem keys its results store on a hash of the serialized
config, so ``to_dict``/``from_dict`` must be exact inverses and must
produce pure-JSON values (no enum keys, no dataclasses, no frozensets).
"""

import json

import pytest

from repro.core.params import CheckerParams, CoreParams, SLOT_POLICIES
from repro.isa.opcodes import FUClass


def _assert_json_pure(value):
    """The value survives a JSON round-trip unchanged (catches enum keys)."""
    assert json.loads(json.dumps(value)) == value


def test_checker_params_roundtrip_defaults_and_custom():
    for params in (
        CheckerParams(),
        CheckerParams(
            enabled=True,
            fault_rate=0.01,
            fault_seed=42,
            force_fault_seqs=frozenset({3, 1, 7}),
            recovery_penalty=16,
            slot_policy="reserved",
            reserved_slots=3,
        ),
    ):
        data = params.to_dict()
        _assert_json_pure(data)
        rebuilt = CheckerParams.from_dict(data)
        assert rebuilt == params
        assert isinstance(rebuilt.force_fault_seqs, frozenset)


def test_core_params_roundtrip_defaults_and_custom():
    for params in (
        CoreParams(),
        CoreParams(
            fetch_width=4,
            issue_width=4,
            commit_width=4,
            window_size=64,
            fu_counts={FUClass.IALU: 4, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1},
            mispredict_penalty=5,
            model_wrong_path=False,
            wrong_path_depth=16,
            wrong_path_seed=9,
            model_icache=False,
            use_real_predictor=True,
            record_retired=True,
            checker=CheckerParams(enabled=True, fault_rate=0.5),
        ),
    ):
        data = params.to_dict()
        _assert_json_pure(data)
        rebuilt = CoreParams.from_dict(data)
        assert rebuilt == params
        # FU keys re-enter as real enum members, not strings.
        assert all(isinstance(key, FUClass) for key in rebuilt.fu_counts)


def test_from_dict_accepts_partial_dicts():
    params = CoreParams.from_dict({"issue_width": 4})
    assert params.issue_width == 4
    assert params.fetch_width == CoreParams().fetch_width
    checker = CheckerParams.from_dict({"fault_rate": 0.25})
    assert checker.fault_rate == 0.25
    assert checker.enabled is CheckerParams().enabled


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown CoreParams keys"):
        CoreParams.from_dict({"issue_widht": 4})
    with pytest.raises(ValueError, match="unknown CheckerParams keys"):
        CheckerParams.from_dict({"fault_rat": 0.1})


def test_checker_params_validation():
    assert set(SLOT_POLICIES) == {"opportunistic", "reserved"}
    with pytest.raises(ValueError, match="slot_policy"):
        CheckerParams(slot_policy="greedy")
    with pytest.raises(ValueError, match="fault_rate"):
        CheckerParams(fault_rate=1.5)
    with pytest.raises(ValueError, match="reserved_slots"):
        CheckerParams(slot_policy="reserved", reserved_slots=0)
    # A negative penalty restarted fetch before the detection cycle and
    # reported negative recovery stall cycles.
    with pytest.raises(ValueError, match="recovery_penalty"):
        CheckerParams(recovery_penalty=-5)
    assert CheckerParams(recovery_penalty=0).recovery_penalty == 0


def test_core_params_validation():
    # A negative penalty restarted fetch before the branch resolved.
    with pytest.raises(ValueError, match="mispredict_penalty"):
        CoreParams(mispredict_penalty=-2)
    assert CoreParams(mispredict_penalty=0).mispredict_penalty == 0


def test_reservation_must_leave_primary_slots():
    with pytest.raises(ValueError, match="reserved_slots"):
        CoreParams(
            issue_width=2,
            checker=CheckerParams(enabled=True, slot_policy="reserved", reserved_slots=2),
        )
