"""Every stored identity, pinned by one sha256; no simulation runs.

A knob's emission rule is part of the store format.  A sweep point's
canonical config and a campaign point's config are their identities in a
results store, and ``CoreParams.to_dict()`` is the ``params`` block of
every result row and of ``repro run --json`` (printed unsorted, so its
key order is pinned too).  The store pins in
``tests/test_experiments_store_pins.py`` only cover default knobs; this
digest covers:

* the canonical config of every point of each ``examples/*.toml``;
* sweep grids that set every axis and scalar off its default at least
  once, with checkpointing at the default overhead and at overhead 3;
* a campaign's calibration and trial configs over all five fault models,
  with its model knobs off their defaults;
* ``CoreParams.to_dict()`` with each field, nested ones included, off its
  default in turn.

``PYTHONPATH=src python tests/test_identity_pin.py`` prints the digest of
the tree it runs on.  Record a new digest only for a change that declares
a store-format change.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.experiments import CampaignSpec, SweepSpec, canonical_json
from repro.faults import FAULT_MODELS
from repro.isa.opcodes import FUClass

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

IDENTITY_SHA256 = "7b18f260fd3c1c5c3a802ad8bdca61da487f461d8e83b537d257bcf45d52cf28"

_SMALL_FUS = {"IALU": 4, "IMUL": 1, "FALU": 1, "FMUL": 1}

#: Each grid extends a one-point base (int-heavy, seed 0) with the axes
#: and scalars it names; together they move every one off its default.
GRIDS: list[dict] = [
    {},
    {"presets": ["branchy", "memory-bound"], "seeds": [0, 5], "ops": 1234},
    {"fault_rates": [0.0, 2e-3]},
    {"issue_widths": [4, 8]},
    {"slot_policies": ["opportunistic", "reserved"], "reserved_slots": 3},
    {"reserved_slots": 3},
    {"wrong_path": [True, False], "wrong_path_depths": [16, 64]},
    {"real_predictor": True},
    {"fu_variants": [None, _SMALL_FUS]},
    {"memdep": [False, True], "dcache_banks": [1, 4]},
    {"store_alias_fraction": 0.25},
    {"checkpoint_intervals": [0, 64]},
    {"checkpoint_intervals": [0, 64], "checkpoint_overhead": 3},
    {"fault_models": list(FAULT_MODELS)},
    {"timeout_s": 30.0},
]

#: One off-default value per field of each params class.
CORE_OFF: dict = {
    "fetch_width": 4,
    "issue_width": 4,
    "commit_width": 2,
    "window_size": 64,
    "fu_counts": {FUClass[name]: count for name, count in _SMALL_FUS.items()},
    "mispredict_penalty": 5,
    "frontend_depth": 2,
    "model_wrong_path": False,
    "wrong_path_depth": 16,
    "wrong_path_seed": 3,
    "model_icache": False,
    "use_real_predictor": True,
    "record_retired": True,
    "cycle_skip": False,
    "telemetry_interval": 100,
}
CHECKER_OFF: dict = {
    "enabled": True,
    "fault_rate": 0.01,
    "fault_seed": 9,
    "force_fault_seqs": frozenset({3, 1}),
    "recovery_penalty": 4,
    "slot_policy": "reserved",
    "reserved_slots": 3,
    "fault_model": "intermittent",
    "fault_burst": 2,
    "fault_fu": "IMUL",
    "fault_repair_cycles": 50,
    "force_fault_index": 5,
}
MEMDEP_OFF: dict = {
    "enabled": True,
    "ssit_size": 512,
    "lfst_size": 64,
    "lsq_size": 32,
    "violation_penalty": 4,
    "forward_latency": 2,
    "ssit_decay_cycles": 500,
}
RECOVERY_OFF: dict = {
    "checkpoint_interval": 64,
    "checkpoint_overhead": 3,
    "restore_penalty": 5,
}


def _sweep_lines(spec: SweepSpec) -> list[str]:
    return [
        canonical_json(point.config())
        + point.config_hash()
        + point.group_hash()
        + json.dumps(point.core_params().to_dict())
        for point in spec.points()
    ]


def _campaign_lines(spec: CampaignSpec) -> list[str]:
    lines = []
    for preset_name, model in spec.cells():
        lines.append(canonical_json(spec.calibration_config(preset_name, model)))
        for trial in range(spec.trials):
            lines.append(canonical_json(spec.trial_config(preset_name, model, trial, 1000)))
    return lines


def _params_cases() -> list[CoreParams]:
    """Every field off its default alone; a memdep or recovery field also
    with its subsystem on, since ``to_dict`` emits the block only then."""
    cases = [CoreParams()]
    cases += [CoreParams(**{name: value}) for name, value in CORE_OFF.items()]
    cases += [CoreParams(checker=CheckerParams(**{k: v})) for k, v in CHECKER_OFF.items()]
    for cls, off, switch, on in (
        (MemDepParams, MEMDEP_OFF, "enabled", True),
        (RecoveryParams, RECOVERY_OFF, "checkpoint_interval", 64),
    ):
        name = "memdep" if cls is MemDepParams else "recovery"
        for key, value in off.items():
            cases.append(CoreParams(**{name: cls(**{key: value})}))
            cases.append(CoreParams(**{name: replace(cls(**{key: value}), **{switch: on})}))
    everything = CoreParams(
        **CORE_OFF,
        checker=CheckerParams(**CHECKER_OFF),
        memdep=MemDepParams(**MEMDEP_OFF),
        recovery=RecoveryParams(**RECOVERY_OFF),
    )
    return cases + [everything]


def _identity_digest() -> str:
    lines: list[str] = []
    for path in sorted(EXAMPLES.glob("*.toml")):
        text = path.read_text(encoding="utf-8")
        if "[campaign]" in text:
            lines += _campaign_lines(CampaignSpec.load(path))
        else:
            lines += _sweep_lines(SweepSpec.load(path))
    base = {"name": "identity", "presets": ["int-heavy"], "seeds": [0]}
    for grid in GRIDS:
        lines += _sweep_lines(SweepSpec(**{**base, **grid}))
    for knobs in ({}, {"fault_burst": 2, "fault_fu": "IMUL", "fault_repair_cycles": 50}):
        spec = CampaignSpec(
            name="identity",
            presets=["int-heavy", "branchy"],
            fault_models=list(FAULT_MODELS),
            trials=3,
            seed=4,
            ops=1500,
            **knobs,
        )
        lines += _campaign_lines(spec)
    lines += [json.dumps(params.to_dict()) for params in _params_cases()]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_stored_identities_are_pinned():
    assert _identity_digest() == IDENTITY_SHA256


if __name__ == "__main__":
    print(_identity_digest())
