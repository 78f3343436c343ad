"""CoreStats / result-dict JSON round-trip fidelity.

Sweep rows, the golden fixtures, and ``--json-out`` all persist
``CoreStats.to_dict`` through ``json.dumps``; every value must survive a
serialize/parse cycle *unchanged* — no enum keys, no int-keyed dicts
(JSON object keys are strings), no non-finite floats.
"""

import json

from repro.cli import main, run_experiment
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.core.core import SuperscalarCore
from repro.workloads import PRESET_NAMES, PRESETS, generate

_SCALARS = (int, float, str, bool, type(None))


def _assert_json_pure(value, path="$"):
    """value == json.loads(json.dumps(value)), proven structurally."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert isinstance(key, str), f"{path}: non-string key {key!r}"
            _assert_json_pure(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        assert isinstance(value, list), f"{path}: tuple does not round-trip"
        for index, item in enumerate(value):
            _assert_json_pure(item, f"{path}[{index}]")
    else:
        assert isinstance(value, _SCALARS), f"{path}: {type(value).__name__}"
        if isinstance(value, float):
            assert value == value and abs(value) != float("inf"), f"{path}: non-finite"


def _full_feature_stats():
    params = CoreParams(
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=1),
        memdep=MemDepParams(enabled=True),
        recovery=RecoveryParams(checkpoint_interval=64),
    )
    core = SuperscalarCore(params)
    return core.run(generate(PRESETS["memory-bound"], 3000, seed=0))


def test_to_dict_round_trips_with_every_subsystem_enabled():
    data = _full_feature_stats().to_dict()
    _assert_json_pure(data)
    assert json.loads(json.dumps(data)) == data
    # The rollback histogram must serialize with *string* keys: JSON
    # object keys are strings, so int keys would silently mutate on a
    # store round-trip (json.loads(json.dumps({1: 2})) == {"1": 2}).
    hist = data["rollback_distance_hist"]
    assert hist, "expected fault recoveries in a 1e-3 fault-rate run"
    assert all(isinstance(key, str) for key in hist)


def test_detection_latency_aggregates_survive_round_trip():
    data = _full_feature_stats().to_dict()
    parsed = json.loads(json.dumps(data))
    for key in ("mean_detection_latency", "max_detection_latency", "ipc"):
        assert parsed[key] == data[key]


def test_run_experiment_result_round_trips():
    result = run_experiment(
        PRESETS["branchy"], num_ops=1500, seed=0, check=True, fault_rate=1e-3
    )
    _assert_json_pure(result)
    assert json.loads(json.dumps(result)) == result


def test_cli_json_out_writes_full_result(tmp_path, capsys):
    out = tmp_path / "result.json"
    exit_code = main(
        [
            "run",
            "--preset",
            "int-heavy",
            "--ops",
            "1000",
            "--check",
            "--json-out",
            str(out),
        ]
    )
    assert exit_code == 0
    # Text report still goes to stdout; the file carries the full dict.
    assert "preset=int-heavy" in capsys.readouterr().out
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["preset"] == "int-heavy"
    assert result["ops"] == 1000
    assert "unchecked" in result and "checked" in result and "params" in result
    assert result == run_experiment(
        PRESETS["int-heavy"], num_ops=1000, seed=0, check=True
    )


def test_cli_json_out_all_presets_writes_a_list(tmp_path, capsys):
    out = tmp_path / "results.json"
    exit_code = main(
        ["run", "--all-presets", "--ops", "300", "--json-out", str(out), "--json"]
    )
    assert exit_code == 0
    results = json.loads(out.read_text(encoding="utf-8"))
    assert [row["preset"] for row in results] == list(PRESET_NAMES)
    # --json stdout and --json-out file agree.
    assert json.loads(capsys.readouterr().out) == results
