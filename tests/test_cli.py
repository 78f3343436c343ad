"""CLI runner: end-to-end experiments and report formats."""

import json

import pytest

from repro.cli import main, run_experiment
from repro.workloads import preset

#: Pinned top-level layout of one run_experiment result; sweep rows embed
#: these dicts, so key drift breaks stored results — change deliberately.
RESULT_KEYS = {"preset", "ops", "seed", "wrong_path", "params", "unchecked"}
CHECKED_RESULT_KEYS = RESULT_KEYS | {"checked", "slowdown", "fault_coverage"}
PARAMS_KEYS = {
    "fetch_width",
    "issue_width",
    "commit_width",
    "window_size",
    "fu_counts",
    "mispredict_penalty",
    "model_wrong_path",
    "wrong_path_depth",
    "wrong_path_seed",
    "model_icache",
    "use_real_predictor",
    "record_retired",
    "checker",
}


def test_json_report_checked_vs_unchecked(capsys):
    exit_code = main(
        [
            "--preset",
            "int-heavy",
            "--ops",
            "1200",
            "--check",
            "--fault-rate",
            "0.01",
            "--json",
        ]
    )
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["preset"] == "int-heavy"
    unchecked, checked = result["unchecked"], result["checked"]
    assert checked["ipc"] <= unchecked["ipc"]
    assert result["slowdown"] >= 1.0
    assert checked["faults_injected"] > 0
    assert (
        checked["faults_detected"] + checked["faults_squashed"]
        == checked["faults_injected"]
    )


def test_human_report_mentions_key_metrics(capsys):
    main(["--preset", "branchy", "--ops", "400", "--check"])
    out = capsys.readouterr().out
    assert "unchecked:" in out and "checked:" in out
    assert "slot-steal" in out and "slowdown:" in out


def test_all_presets_runs_every_scenario(capsys):
    exit_code = main(["--all-presets", "--ops", "200", "--json"])
    assert exit_code == 0
    results = json.loads(capsys.readouterr().out)
    assert sorted(entry["preset"] for entry in results) == [
        "branchy",
        "fp-heavy",
        "int-heavy",
        "memory-bound",
    ]
    assert all("checked" not in entry for entry in results)  # no --check


def test_real_predictor_mode_runs(capsys):
    exit_code = main(["--preset", "branchy", "--ops", "400", "--real-predictor"])
    assert exit_code == 0
    assert "unchecked:" in capsys.readouterr().out


def test_unknown_preset_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["--preset", "definitely-not-real"])


def test_empty_trace_emits_valid_json_with_null_slowdown(capsys):
    exit_code = main(["--preset", "int-heavy", "--ops", "0", "--check", "--json"])
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)  # Infinity would not parse
    assert result["slowdown"] is None


def test_run_experiment_returns_slowdown_only_when_checked():
    result = run_experiment(preset("int-heavy"), num_ops=300, check=False)
    assert "checked" not in result and "slowdown" not in result
    result = run_experiment(preset("int-heavy"), num_ops=300, check=True, fault_rate=0.0)
    assert result["slowdown"] > 0


# ------------------------------------------------------- subcommands / legacy


def test_explicit_run_subcommand_matches_legacy_invocation(capsys):
    args = ["--preset", "branchy", "--ops", "400", "--check", "--json"]
    assert main(["run", *args]) == 0
    explicit = capsys.readouterr().out
    assert main(args) == 0  # legacy: no subcommand
    legacy = capsys.readouterr().out
    assert json.loads(explicit) == json.loads(legacy)


def test_bare_invocation_still_runs_the_default_preset(capsys):
    assert main([]) == 0
    assert "preset=int-heavy" in capsys.readouterr().out


def test_json_result_schema_is_stable_and_serializable(capsys):
    main(["--preset", "int-heavy", "--ops", "400", "--check", "--fault-rate",
          "0.01", "--json"])
    result = json.loads(capsys.readouterr().out)
    # Exact round-trip: no enum keys, dataclasses, or non-finite floats
    # survived json.dumps (they would change or fail the reload).
    assert json.loads(json.dumps(result)) == result
    assert set(result) == CHECKED_RESULT_KEYS
    assert set(result["params"]) == PARAMS_KEYS
    assert set(result["params"]["fu_counts"]) == {"IALU", "IMUL", "FALU", "FMUL"}
    assert result["params"]["checker"]["enabled"] is True
    assert result["params"]["checker"]["fault_rate"] == 0.01
    assert isinstance(result["checked"]["detection_latencies"], list)
    unchecked_only = run_experiment(preset("int-heavy"), num_ops=200, check=False)
    assert set(unchecked_only) == RESULT_KEYS


def test_run_experiment_params_override_machine_shape():
    from repro.core.params import CheckerParams, CoreParams

    result = run_experiment(
        preset("int-heavy"),
        num_ops=300,
        check=True,
        fault_rate=0.01,
        params=CoreParams(
            issue_width=4,
            checker=CheckerParams(slot_policy="reserved", reserved_slots=1),
        ),
    )
    assert result["params"]["issue_width"] == 4
    assert result["params"]["checker"]["slot_policy"] == "reserved"
    # The baseline core ran unchecked even though the template had a checker.
    assert result["unchecked"]["checks_completed"] == 0
    assert result["checked"]["checks_completed"] > 0


# ------------------------------------------------------------ sweep / report

SWEEP_TOML = """
[sweep]
name = "cli-e2e"
ops = 300
presets = ["int-heavy"]
seeds = [0, 1, 2]
fault_rates = [0.01]
"""


def test_sweep_and_report_end_to_end(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.toml"
    spec.write_text(SWEEP_TOML)
    store = tmp_path / "results.jsonl"
    argv = ["sweep", "--spec", str(spec), "--store", str(store), "--workers", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "executed 3" in out and "[3/3]" in out
    # Resume: everything cached, nothing executed.
    assert main(argv) == 0
    assert "executed 0, cached 3" in capsys.readouterr().out

    monkeypatch.chdir(tmp_path)  # BENCH_sweep.json lands in cwd by default
    assert main(["report", "--store", str(store), "--csv-dir", str(tmp_path / "csv")]) == 0
    out = capsys.readouterr().out
    assert "int-heavy" in out and "slowdown_mean" in out
    payload = json.loads((tmp_path / "BENCH_sweep.json").read_text())
    assert payload["n_rows"] == 3
    assert payload["groups"][0]["n_seeds"] == 3
    assert (tmp_path / "csv" / "slowdown.csv").exists()


def test_report_json_mode_prints_the_payload(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.toml"
    spec.write_text(SWEEP_TOML.replace("seeds = [0, 1, 2]", "seeds = [0]"))
    store = tmp_path / "results.jsonl"
    assert main(["sweep", "--spec", str(spec), "--store", str(store), "--quiet"]) == 0
    capsys.readouterr()  # drop the sweep summary line
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--store", str(store), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_groups"] == 1


def test_report_on_missing_store_fails_cleanly(tmp_path, capsys):
    assert main(["report", "--store", str(tmp_path / "nope.jsonl")]) == 1
    assert "no completed runs" in capsys.readouterr().err


def test_sweep_rejects_bad_spec_and_workers(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(SWEEP_TOML)
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", str(tmp_path / "missing.toml")])
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", str(spec), "--workers", "0"])
    bad = tmp_path / "bad.toml"
    bad.write_text('[sweep]\nname = "x"\npresets = ["nope"]\nseeds = [0]\n')
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", str(bad)])
    # Wrong-shaped documents (scalar axis) and cross-axis constraint
    # violations are clean argparse errors too, not tracebacks.
    scalar = tmp_path / "scalar.toml"
    scalar.write_text('[sweep]\nname = "x"\npresets = ["int-heavy"]\nseeds = 3\n')
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", str(scalar)])
    cross = tmp_path / "cross.toml"
    cross.write_text(
        '[sweep]\nname = "x"\npresets = ["int-heavy"]\nseeds = [0]\n'
        'issue_widths = [2]\nslot_policies = ["reserved"]\nreserved_slots = 2\n'
    )
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", str(cross)])


def test_checkpoint_flags_flow_into_the_run_and_report(capsys):
    exit_code = main(
        [
            "run", "--preset", "int-heavy", "--ops", "1500", "--check",
            "--fault-rate", "0.005", "--checkpoint-interval", "64",
            "--checkpoint-overhead", "2", "--json",
        ]
    )
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["params"]["recovery"]["checkpoint_interval"] == 64
    assert result["params"]["recovery"]["checkpoint_overhead"] == 2
    checked = result["checked"]
    assert checked["checkpoints_taken"] > 0
    assert checked["recoveries_by_cause"]["checker_fault"] == checked["recoveries"]
    # Human-readable mode surfaces the checkpoint line.
    main(
        [
            "run", "--preset", "int-heavy", "--ops", "1500", "--check",
            "--fault-rate", "0.005", "--checkpoint-interval", "64",
        ]
    )
    assert "checkpoint:" in capsys.readouterr().out


def test_checkpoint_and_decay_flags_validate(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--checkpoint-interval", "-1"])
    with pytest.raises(SystemExit):
        main(["run", "--checkpoint-interval", "8", "--checkpoint-overhead", "-2"])
    with pytest.raises(SystemExit):
        main(["run", "--ssit-decay-cycles", "100"])  # requires --memdep
    with pytest.raises(SystemExit):
        main(["run", "--memdep", "--ssit-decay-cycles", "-5"])
    capsys.readouterr()
    # Without checkpoints the overhead would be dropped silently.
    with pytest.raises(SystemExit):
        main(["run", "--checkpoint-overhead", "5"])
    assert "--checkpoint-overhead requires --checkpoint-interval" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--fault-rate", "1.5"], "fault_rate"),
        (["--wrong-path-depth", "0"], "wrong_path_depth"),
        (["--frontend-depth", "-1"], "frontend_depth"),
        (["--dcache-banks", "0"], "dcache_banks"),
        (["--store-alias-fraction", "1.5"], "store_alias_fraction"),
        (["--memdep", "--ssit-decay-cycles", "-1"], "ssit_decay_cycles"),
        (["--checkpoint-interval", "-1"], "checkpoint_interval"),
        (["--checkpoint-interval", "8", "--checkpoint-overhead", "-1"], "checkpoint_overhead"),
        (["--telemetry-interval", "-1"], "telemetry_interval"),
        (["--fault-burst", "0"], "fault_burst"),
        (["--fault-repair-cycles", "0"], "fault_repair_cycles"),
    ],
)
def test_out_of_range_knob_flags_exit_2_naming_the_field(flags, field, capsys):
    """The objects a run builds check its knob flags, as a sweep point's do."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "branchy", "--ops", "100", *flags])
    assert exc.value.code == 2
    assert f"{field} must be" in capsys.readouterr().err


def test_default_run_emits_no_recovery_or_decay_keys(capsys):
    main(["run", "--preset", "int-heavy", "--ops", "400", "--check", "--json"])
    result = json.loads(capsys.readouterr().out)
    assert "recovery" not in result["params"]
    assert "checkpoints_taken" not in result["checked"]


# ------------------------------------------------------------- fault models


CAMPAIGN_TOML = """
[campaign]
name = "cli-campaign"
presets = ["int-heavy"]
fault_models = ["address", "checker"]
trials = 4
ops = 400
"""


def test_run_fault_model_flag_surfaces_outcomes(capsys):
    main(
        [
            "run", "--preset", "int-heavy", "--ops", "800", "--check",
            "--fault-rate", "0.005", "--fault-model", "intermittent",
            "--fault-burst", "2", "--json",
        ]
    )
    result = json.loads(capsys.readouterr().out)
    checked = result["checked"]
    assert checked["fault_model"] == "intermittent"
    outcomes = checked["fault_outcomes"]
    assert sum(outcomes.values()) == checked["faults_injected"] > 0
    assert result["params"]["checker"]["fault_model"] == "intermittent"
    # The human-readable report carries the same taxonomy line.
    main(
        [
            "run", "--preset", "int-heavy", "--ops", "800", "--check",
            "--fault-rate", "0.005", "--fault-model", "intermittent",
            "--fault-burst", "2",
        ]
    )
    assert "outcomes:" in capsys.readouterr().out


def test_default_run_emits_no_fault_model_keys(capsys):
    main(["run", "--preset", "int-heavy", "--ops", "400", "--check", "--json"])
    result = json.loads(capsys.readouterr().out)
    assert "fault_model" not in result["checked"]
    assert "fault_outcomes" not in result["checked"]
    assert "fault_model" not in result["params"]["checker"]


@pytest.mark.parametrize("shards", [[], ["--shards", "2"]], ids=["monolithic", "sharded"])
def test_store_alias_fraction_is_recorded_only_when_nonzero(capsys, shards):
    run = ["run", "--preset", "memory-bound", "--ops", "600", "--check", "--json", *shards]
    main(run + ["--store-alias-fraction", "0.3"])
    assert json.loads(capsys.readouterr().out)["store_alias_fraction"] == 0.3
    main(run)
    assert "store_alias_fraction" not in json.loads(capsys.readouterr().out)


def test_fault_model_flags_validate():
    with pytest.raises(SystemExit):
        main(["run", "--fault-model", "bit-rot"])
    with pytest.raises(SystemExit):
        main(["run", "--fault-model", "intermittent", "--fault-burst", "0"])
    with pytest.raises(SystemExit):
        main(["run", "--fault-model", "stuck-fu", "--fault-repair-cycles", "0"])
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", "x.toml", "--retries", "-1"])


def test_campaign_end_to_end(tmp_path, capsys):
    spec = tmp_path / "campaign.toml"
    spec.write_text(CAMPAIGN_TOML)
    store = tmp_path / "campaign.jsonl"
    bench = tmp_path / "BENCH_campaign.json"
    argv = [
        "campaign", "--spec", str(spec), "--store", str(store),
        "--bench-json", str(bench), "--workers", "2", "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign 'cli-campaign'" in out and "coverage" in out
    payload = json.loads(bench.read_text())
    assert payload["kind"] == "campaign"
    by_model = {cell["fault_model"]: cell for cell in payload["cells"]}
    assert by_model["address"]["rates"]["coverage"]["wilson_hi"] <= 1.0
    # Resume: the second invocation executes nothing and reports the same.
    assert main(argv) == 0
    assert "executed 0" in capsys.readouterr().out


def test_campaign_rejects_bad_specs(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--spec", str(tmp_path / "missing.toml")])
    bad = tmp_path / "bad.toml"
    bad.write_text('[campaign]\nname = "x"\npresets = ["int-heavy"]\n'
                   'fault_models = ["bit-rot"]\n')
    with pytest.raises(SystemExit):
        main(["campaign", "--spec", str(bad)])
    spec = tmp_path / "ok.toml"
    spec.write_text(CAMPAIGN_TOML)
    with pytest.raises(SystemExit):
        main(["campaign", "--spec", str(spec), "--workers", "0"])
