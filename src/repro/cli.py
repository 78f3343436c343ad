"""Experiment CLI: single runs, parallel sweeps, and paper-style reports.

Four subcommands:

* ``python -m repro run --preset int-heavy --check`` — one (preset, seed,
  config) point through an unchecked baseline core and (with ``--check``)
  through the same core with the shared-resource checker and fault
  injection enabled; reports IPC, checker slot-steal rate, detection
  coverage and latency, and the checked-vs-unchecked slowdown.
* ``python -m repro sweep --spec grid.toml --workers 4`` — a declarative
  cartesian grid of such points fanned out across worker processes into an
  append-only, resumable JSONL results store (see
  :mod:`repro.experiments`).
* ``python -m repro campaign --spec campaign.toml --workers 4`` — a
  statistical fault-injection campaign: per (preset, fault model) cell,
  one calibration run counts eligible fault sites, then N randomized
  single-fault trials resolve each injected fault to its outcome
  (detected / squashed / masked / SDC / false alarm) and the report
  carries coverage and SDC rates with Wilson confidence intervals (see
  :mod:`repro.experiments.campaign`).
* ``python -m repro report`` — aggregates a results store across seeds
  (mean ± stddev) into the paper's tables, plus CSV and
  ``BENCH_sweep.json`` outputs.

For back-compatibility, an invocation whose first argument is not a
subcommand (``python -m repro --preset int-heavy --check``) is treated as
``run``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.experiments import (
    CampaignSpec,
    ResultsStore,
    SweepSpec,
    aggregate,
    aggregate_campaign,
    register_metrics,
    render_campaign_text,
    render_text,
    run_campaign,
    run_experiment,
    run_sweep,
    write_bench_json,
    write_csv_tables,
)
from repro.experiments.campaign import DEFAULT_CAMPAIGN_JSON, DEFAULT_CAMPAIGN_STORE
from repro.experiments.spec import (
    DEFAULT_FAULT_RATE,
    DEFAULT_OPS,
    DEFAULT_WRONG_PATH_DEPTH,
    run_params,
)
from repro.faults.models import FAULT_MODELS as _FAULT_MODELS
from repro.isa.opcodes import FUClass
from repro.memory.hierarchy import HierarchyParams
from repro.obs import MetricsRegistry, ObsSession
from repro.obs.telemetry import render_table as render_telemetry_table
from repro.parallel import run_sharded_experiment
from repro.workloads import PRESET_NAMES, PRESETS

#: Subcommand names — anything else in argv[0] position is legacy ``run``.
COMMANDS = ("run", "sweep", "campaign", "report")

#: Default results-store path shared by ``sweep`` and ``report`` so the
#: bare two-command flow works without plumbing a path through by hand.
DEFAULT_STORE = "sweep_results.jsonl"


def format_report(result: dict) -> str:
    """Human-readable multi-line summary of one experiment."""
    unchecked = result["unchecked"]
    lines = [
        f"preset={result['preset']} ops={result['ops']} seed={result['seed']}",
        (
            f"  unchecked: IPC {unchecked['ipc']:.3f}  cycles {unchecked['cycles']:.0f}  "
            f"l1d-miss {unchecked['mem_l1d_miss_rate']:.1%}  "
            f"mispredict {unchecked['mispredict_rate']:.1%}"
        ),
    ]
    if result.get("wrong_path") and unchecked["wrong_path_fetched"]:
        lines.append(
            f"  wrong-path: fetched {unchecked['wrong_path_fetched']:.0f} "
            f"({unchecked['wrong_path_fetch_fraction']:.1%} of fetch)  "
            f"issued {unchecked['wrong_path_issued']:.0f}  "
            f"slot-waste {unchecked['wrong_path_slot_rate']:.1%}"
        )
    if "mem_order_violations" in unchecked:
        lines.append(
            f"  memdep:    violations {unchecked['mem_order_violations']:.0f}  "
            f"forwarded {unchecked['loads_forwarded']:.0f}  "
            f"delayed {unchecked['loads_delayed']:.0f}  "
            f"lsq-stalls {unchecked['lsq_full_stalls']:.0f}"
        )
    if "mem_dcache_banks" in unchecked:
        lines.append(
            f"  d-banks:   {unchecked['mem_dcache_banks']:.0f} banks  "
            f"conflicts {unchecked['mem_bank_conflicts']:.0f}"
        )
    if "checked" in result:
        checked = result["checked"]
        lines.append(
            f"  checked:   IPC {checked['ipc']:.3f}  cycles {checked['cycles']:.0f}  "
            f"slot-steal {checked['slot_steal_rate']:.1%}  "
            f"checks {checked['checks_completed']:.0f}"
        )
        if result.get("wrong_path"):
            lines.append(
                f"  contention: wrong-path slot-waste {checked['wrong_path_slot_rate']:.1%} "
                f"competes with checker slot-steal {checked['slot_steal_rate']:.1%} "
                f"(primary {checked['primary_slot_utilization']:.1%})"
            )
        if "mem_checker_probes" in checked:
            lines.append(
                f"  chk-dcache: probes {checked['mem_checker_probes']:.0f}  "
                f"port-conflicts {checked['mem_checker_port_conflicts']:.0f}  "
                f"bank-conflicts {checked['mem_checker_bank_conflicts']:.0f}"
            )
        lines.append(
            f"  faults:    injected {checked['faults_injected']:.0f}  "
            f"detected {checked['faults_detected']:.0f}  "
            f"squashed {checked['faults_squashed']:.0f}  "
            f"coverage {result['fault_coverage']:.1%}  "
            f"det-latency mean {checked['mean_detection_latency']:.1f} "
            f"max {checked['max_detection_latency']:.0f}"
        )
        if "fault_outcomes" in checked:
            outcomes = checked["fault_outcomes"]
            lines.append(
                f"  outcomes:  model={checked['fault_model']}  "
                f"detected {outcomes['detected']:.0f}  "
                f"squashed {outcomes['squashed']:.0f}  "
                f"masked {outcomes['masked']:.0f}  "
                f"sdc {outcomes['sdc']:.0f}  "
                f"false-alarm {outcomes['false_alarm']:.0f}"
            )
        if "checkpoints_taken" in checked:
            lines.append(
                f"  checkpoint: taken {checked['checkpoints_taken']:.0f}  "
                f"overhead {checked['checkpoint_overhead_cycles']:.0f} cyc  "
                f"recovery-stall mean {checked['mean_recovery_stall']:.1f} cyc  "
                f"rollback mean {checked['mean_rollback_distance']:.1f} "
                f"max {checked['max_rollback_distance']:.0f} ops"
            )
        slowdown = result["slowdown"]
        lines.append(
            f"  slowdown:  {slowdown:.3f}x" if slowdown is not None else "  slowdown:  n/a"
        )
    if "sharding" in result:
        sharding = result["sharding"]
        lines.append(
            f"  sharding:  {sharding['shards']} shards  "
            f"warmup {sharding['warmup_ops']} ops/shard  "
            f"workers {sharding['workers']}/{sharding['host_cpus']} cpus  "
            f"wall {sharding['wall_s']:.2f}s  (approximate merge)"
        )
    return "\n".join(lines)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    # Each knob flag defaults to its field of the Table 1 machine.
    core, hierarchy = CoreParams(), HierarchyParams()
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--preset", choices=PRESET_NAMES, default="int-heavy", help="workload scenario"
    )
    group.add_argument(
        "--all-presets", action="store_true", help="run every bundled scenario"
    )
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS, help="trace length")
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the checked core and report slowdown vs. the baseline",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=DEFAULT_FAULT_RATE,
        help="per-op transient-fault probability in the checked run",
    )
    fault_group = parser.add_argument_group(
        "fault model",
        "which repro.faults model the checked run injects with; the "
        "default transient model is detected by construction, the others "
        "can mask, miss (SDC), or false-alarm and report a per-outcome "
        "taxonomy",
    )
    fault_group.add_argument(
        "--fault-model",
        choices=_FAULT_MODELS,
        default=core.checker.fault_model,
        help="fault model for the checked run",
    )
    fault_group.add_argument(
        "--fault-burst",
        type=int,
        default=core.checker.fault_burst,
        metavar="OPS",
        help="consecutive eligible ops corrupted per intermittent trigger",
    )
    fault_group.add_argument(
        "--fault-fu",
        choices=tuple(cls.name for cls in FUClass),
        default=core.checker.fault_fu,
        help="FU class the stuck-fu model breaks",
    )
    fault_group.add_argument(
        "--fault-repair-cycles",
        type=int,
        default=core.checker.fault_repair_cycles,
        metavar="CYCLES",
        help="cycles until a stuck FU is repaired",
    )
    parser.add_argument(
        "--real-predictor",
        action="store_true",
        help="use the combining predictor instead of trace mispredict flags",
    )
    parser.add_argument(
        "--no-wrong-path",
        action="store_true",
        help="stall fetch at mispredicted branches instead of executing wrong-path work",
    )
    parser.add_argument(
        "--wrong-path-depth",
        type=int,
        default=DEFAULT_WRONG_PATH_DEPTH,
        help="max micro-ops fetched down one wrong path before waiting for resolution",
    )
    parser.add_argument(
        "--frontend-depth",
        type=int,
        default=core.frontend_depth,
        help=(
            "extra fetch-to-issue pipeline stages (0 = legacy two-stage front "
            "end); deeper front ends widen the branch-resolution window and "
            "so the wrong-path volume per mispredict"
        ),
    )
    parser.add_argument(
        "--memdep",
        action="store_true",
        help=(
            "enable the memory-dependence subsystem: LSQ, store-set "
            "prediction, store-to-load forwarding, and ordering-violation "
            "squash/replay"
        ),
    )
    parser.add_argument(
        "--dcache-banks",
        type=int,
        default=hierarchy.dcache_banks,
        help=(
            "D-cache banks (1 = unbanked legacy model); with more, checker "
            "loads/stores compete with the primary stream for bank slots"
        ),
    )
    parser.add_argument(
        "--store-alias-fraction",
        type=float,
        default=None,
        metavar="FRAC",
        help=(
            "override the profile's store_alias_fraction: probability each "
            "static store shares an address stream with a later static load"
        ),
    )
    parser.add_argument(
        "--ssit-decay-cycles",
        type=int,
        default=core.memdep.ssit_decay_cycles,
        metavar="CYCLES",
        help=(
            "clear the store-set predictor's tables once per this many "
            "cycles (0 = never, the legacy behavior); requires --memdep"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=core.recovery.checkpoint_interval,
        metavar="COMMITS",
        help=(
            "take a verified-state checkpoint every COMMITS commits; fault "
            "recovery then rolls back to the nearest checkpoint instead of "
            "paying the flat recovery penalty (0 = legacy flat-penalty mode)"
        ),
    )
    parser.add_argument(
        "--checkpoint-overhead",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "fetch-stall cycles charged per checkpoint creation (default 1; "
            "requires --checkpoint-interval)"
        ),
    )
    parallel_group = parser.add_argument_group(
        "parallel simulation",
        "time-shard one run across worker processes; --shards 1 (the "
        "default) is the exact monolithic path",
    )
    parallel_group.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "split the op budget into N contiguous windows simulated in "
            "parallel processes and merge the stats; N > 1 is an explicitly "
            "approximate fast mode (cold shard boundaries are absorbed by a "
            "discarded per-shard warm-up)"
        ),
    )
    parallel_group.add_argument(
        "--shard-warmup",
        type=int,
        default=None,
        metavar="OPS",
        help=(
            "warm-up ops each shard after the first simulates and discards "
            "before its measured window (default 5000; requires "
            "--shards > 1)"
        ),
    )
    parallel_group.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sharded runs (default: one per shard; "
            "requires --shards > 1)"
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help=(
            "write the full stats+params result dict to this file as JSON "
            "(stdout keeps the text report unless --json is also given)"
        ),
    )
    obs_group = parser.add_argument_group(
        "observability",
        "per-op tracing, interval telemetry, and the metrics registry "
        "(all off by default; the uninstrumented path is bit-identical)",
    )
    obs_group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace_event JSON timeline (open with Perfetto "
            "or chrome://tracing; 1 timestamp unit = 1 cycle)"
        ),
    )
    obs_group.add_argument(
        "--op-trace-out",
        default=None,
        metavar="PATH",
        help="write the per-op lifecycle records as JSONL (one op per line)",
    )
    obs_group.add_argument(
        "--telemetry-interval",
        type=int,
        default=core.telemetry_interval,
        metavar="CYCLES",
        help=(
            "sample IPC/occupancy/slot-steal/checker-lag telemetry every "
            "CYCLES cycles (0 = off); samples sum exactly to the final stats"
        ),
    )
    obs_group.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the telemetry time series as JSONL (requires --telemetry-interval)",
    )
    obs_group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the typed metrics registry (counters/gauges/histograms) as JSON",
    )
    obs_group.add_argument(
        "--trace-ops",
        default=None,
        metavar="LO:HI",
        help=(
            "only trace ops whose sequence number falls in [LO, HI) — "
            "wrong-path work follows its spawning branch's seq; either "
            "bound may be omitted (requires --trace-out or --op-trace-out)"
        ),
    )


def _parse_trace_ops(
    text: str, parser: argparse.ArgumentParser
) -> tuple[int, int]:
    """``"LO:HI"`` (either side optional) -> a half-open seq window."""
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        parser.error(f"--trace-ops wants LO:HI, got {text!r}")
    try:
        lo = int(lo_text) if lo_text else 0
        hi = int(hi_text) if hi_text else 2**63
    except ValueError:
        parser.error(f"--trace-ops bounds must be integers, got {text!r}")
    if lo < 0 or hi <= lo:
        parser.error(f"--trace-ops wants 0 <= LO < HI, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Checked-superscalar experiments: shared-resource concurrent "
            "error detection (Smolens et al., MICRO 2004)."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{run,sweep,campaign,report}"
    )

    run_parser = sub.add_parser(
        "run", help="run one (preset, seed, config) experiment point"
    )
    _add_run_arguments(run_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="fan a declarative grid of experiment points out across processes",
    )
    sweep_parser.add_argument(
        "--spec", required=True, help="sweep specification (.toml or .json)"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    sweep_parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="append-only JSONL results store (resumable; already-stored points are skipped)",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget: a point exceeding it becomes an "
            "error row in the store (retried on the next invocation) instead "
            "of a stuck worker; overrides the spec's timeout_s field"
        ),
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-execute a point that produced an error row up to N times "
            "within this invocation (exponential backoff) before storing "
            "the error; a retry that succeeds stores the normal success "
            "row, byte-identical to a run that never needed it"
        ),
    )
    sweep_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="initial backoff before the first retry (doubles per attempt)",
    )
    sweep_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace_event JSON of runner spans (one slice per "
            "executed point, lanes per worker process; stored rows are "
            "byte-identical with or without it)"
        ),
    )
    sweep_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the sweep summary counters as a metrics-registry JSON",
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help=(
            "statistical fault-injection campaign: randomized single-fault "
            "trials per (preset, fault model) cell with outcome taxonomy "
            "and Wilson confidence intervals"
        ),
    )
    campaign_parser.add_argument(
        "--spec", required=True, help="campaign specification (.toml or .json)"
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    campaign_parser.add_argument(
        "--store",
        default=None,
        help=(
            "append-only JSONL results store (default "
            "campaign_results.jsonl; resumable — stored trials are skipped)"
        ),
    )
    campaign_parser.add_argument(
        "--bench-json",
        default=None,
        help="machine-readable campaign report path (default BENCH_campaign.json)",
    )
    campaign_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-trial wall-clock budget: a trial exceeding it becomes an "
            "error row (retried on the next invocation); overrides the "
            "spec's timeout_s field"
        ),
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    campaign_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable campaign report instead of the table",
    )

    report_parser = sub.add_parser(
        "report", help="aggregate a results store into the paper-style tables"
    )
    report_parser.add_argument(
        "--store", default=DEFAULT_STORE, help="JSONL results store to aggregate"
    )
    report_parser.add_argument(
        "--bench-json",
        default="BENCH_sweep.json",
        help="machine-readable aggregate output path",
    )
    report_parser.add_argument(
        "--csv-dir", default=None, help="also write one CSV per table into this directory"
    )
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable aggregate instead of text tables",
    )
    report_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the aggregate (per-group means, detection-latency p90) "
            "as a metrics-registry JSON"
        ),
    )

    return parser


def _run_inputs(args: argparse.Namespace) -> tuple[CoreParams, list]:
    """The base params and the profiles a run's knob flags ask for.

    As for a sweep point, each object checks its own fields: ``run_params``
    adds the fault rate and the wrong-path depth, the hierarchy params the
    bank count, and the profiles the alias fraction.

    Raises:
        ValueError: naming the first field out of range.
    """
    overhead = {}
    if args.checkpoint_overhead is not None:
        overhead["checkpoint_overhead"] = args.checkpoint_overhead
    params = CoreParams(
        frontend_depth=args.frontend_depth,
        checker=CheckerParams(
            fault_model=args.fault_model,
            fault_burst=args.fault_burst,
            fault_fu=args.fault_fu,
            fault_repair_cycles=args.fault_repair_cycles,
        ),
        memdep=MemDepParams(enabled=args.memdep, ssit_decay_cycles=args.ssit_decay_cycles),
        recovery=RecoveryParams(checkpoint_interval=args.checkpoint_interval, **overhead),
        telemetry_interval=args.telemetry_interval,
    )
    run_params(
        params,
        args.seed,
        checked=True,
        fault_rate=args.fault_rate,
        wrong_path_depth=args.wrong_path_depth,
    )
    HierarchyParams(dcache_banks=args.dcache_banks)
    names = PRESET_NAMES if args.all_presets else [args.preset]
    profiles = [
        PRESETS[name]
        if args.store_alias_fraction is None
        else replace(PRESETS[name], store_alias_fraction=args.store_alias_fraction)
        for name in names
    ]
    return params, profiles


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.ops < 0:
        parser.error(f"--ops must be non-negative, got {args.ops}")
    try:
        params, profiles = _run_inputs(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.ssit_decay_cycles and not args.memdep:
        parser.error("--ssit-decay-cycles requires --memdep")
    if args.checkpoint_overhead is not None and not args.checkpoint_interval:
        parser.error("--checkpoint-overhead requires --checkpoint-interval")
    if args.telemetry_out and not args.telemetry_interval:
        parser.error("--telemetry-out requires --telemetry-interval")
    if args.shards < 1:
        parser.error(f"--shards must be at least 1, got {args.shards}")
    if args.shard_warmup is not None and args.shards == 1:
        parser.error("--shard-warmup requires --shards > 1")
    if args.shard_workers is not None and args.shards == 1:
        parser.error("--shard-workers requires --shards > 1")
    if args.shard_warmup is not None and args.shard_warmup < 0:
        parser.error(f"--shard-warmup must be non-negative, got {args.shard_warmup}")
    if args.shard_workers is not None and args.shard_workers < 1:
        parser.error(f"--shard-workers must be at least 1, got {args.shard_workers}")
    if args.shards > 1 and args.telemetry_interval:
        parser.error(
            "--telemetry-interval needs one continuous run; it cannot be "
            "combined with --shards > 1"
        )
    trace_ops = None
    if args.trace_ops is not None:
        if not (args.trace_out or args.op_trace_out):
            parser.error("--trace-ops requires --trace-out or --op-trace-out")
        trace_ops = _parse_trace_ops(args.trace_ops, parser)
    obs_requested = bool(
        args.trace_out
        or args.op_trace_out
        or args.telemetry_interval
        or args.metrics_out
    )
    if obs_requested and args.all_presets:
        parser.error(
            "observability outputs trace one experiment; drop --all-presets "
            "or run presets individually"
        )
    obs = (
        ObsSession(
            trace_out=args.trace_out,
            op_trace_out=args.op_trace_out,
            telemetry_interval=args.telemetry_interval,
            telemetry_out=args.telemetry_out,
            metrics_out=args.metrics_out,
            trace_ops=trace_ops,
        )
        if obs_requested
        else None
    )
    run, sharding = run_experiment, {}
    if args.shards > 1:
        run = run_sharded_experiment
        sharding = {"shards": args.shards, "workers": args.shard_workers}
        if args.shard_warmup is not None:
            sharding["warmup"] = args.shard_warmup
    results = [
        run(
            profile,
            num_ops=args.ops,
            seed=args.seed,
            check=args.check,
            fault_rate=args.fault_rate,
            real_predictor=args.real_predictor,
            wrong_path=not args.no_wrong_path,
            wrong_path_depth=args.wrong_path_depth,
            params=params,
            dcache_banks=args.dcache_banks,
            obs=obs,
            **sharding,
        )
        for profile in profiles
    ]
    payload = results if args.all_presets else results[0]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(format_report(result) for result in results))
        if obs is not None:
            for label, telemetry in obs.telemetries:
                print()
                print(render_telemetry_table(telemetry.samples, label))
    if args.json_out:
        out = Path(args.json_out)
        if out.parent != Path("."):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    if obs is not None:
        written = obs.finish(
            metadata={
                "preset": profiles[0].name,
                "ops": args.ops,
                "seed": args.seed,
                "check": args.check,
            }
        )
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.workers <= 0:
        parser.error(f"--workers must be positive, got {args.workers}")
    try:
        spec = SweepSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        # TypeError covers wrong-shaped documents (a scalar where a list
        # axis or table is expected) that surface from dataclass plumbing.
        parser.error(f"cannot load sweep spec {args.spec!r}: {exc}")
    store = ResultsStore(args.store)

    def progress(done: int, total: int, row: dict) -> None:
        config = row.get("config", {})
        detail = (
            f"slowdown={row['result'].get('slowdown'):.3f}"
            if row.get("status") == "ok" and row["result"].get("slowdown") is not None
            else row.get("status", "?")
        )
        print(
            f"[{done}/{total}] {row.get('status', '?'):5s} "
            f"preset={config.get('preset')} seed={config.get('seed')} "
            f"fault_rate={config.get('fault_rate')} {detail}",
            flush=True,
        )

    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    if args.retries < 0:
        parser.error(f"--retries must be non-negative, got {args.retries}")
    if args.retry_backoff < 0:
        parser.error(f"--retry-backoff must be non-negative, got {args.retry_backoff}")
    obs = (
        ObsSession(trace_out=args.trace_out, metrics_out=args.metrics_out)
        if (args.trace_out or args.metrics_out)
        else None
    )
    summary = run_sweep(
        spec,
        store,
        workers=args.workers,
        progress=None if args.quiet else progress,
        timeout_s=args.timeout,
        spans=obs.span_collector(spec.name or "sweep") if obs is not None else None,
        registry=obs.registry if obs is not None else None,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
    )
    retried = f", retried {summary.retried}" if summary.retried else ""
    print(
        f"sweep '{spec.name}': {summary.total} points — "
        f"executed {summary.executed}, cached {summary.cached}, "
        f"errors {summary.errors}{retried} -> {store.path} "
        f"({summary.wall_seconds:.1f}s wall, slowest point "
        f"{summary.slowest_point_s:.1f}s, worker utilization "
        f"{summary.worker_utilization:.0%})"
    )
    if obs is not None:
        for path in obs.finish(
            metadata={"sweep": spec.name, "spec": str(args.spec), "store": str(store.path)}
        ):
            print(f"wrote {path}", file=sys.stderr)
    return 1 if summary.errors else 0


def _cmd_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.workers <= 0:
        parser.error(f"--workers must be positive, got {args.workers}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    try:
        spec = CampaignSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"cannot load campaign spec {args.spec!r}: {exc}")
    store = ResultsStore(args.store or DEFAULT_CAMPAIGN_STORE)

    def progress(done: int, total: int, row: dict) -> None:
        config = row.get("config", {})
        print(
            f"[{done}/{total}] {row.get('status', '?'):5s} "
            f"{config.get('kind', '?')} preset={config.get('preset')} "
            f"model={config.get('fault_model')} trial={config.get('trial', '-')}",
            flush=True,
        )

    summary = run_campaign(
        spec,
        store,
        workers=args.workers,
        progress=None if args.quiet else progress,
        timeout_s=args.timeout,
    )
    report = aggregate_campaign(spec, store)
    out = write_bench_json(report, args.bench_json or DEFAULT_CAMPAIGN_JSON)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_campaign_text(report))
        print(
            f"campaign '{spec.name}': {summary.cells} cells, "
            f"{summary.trials_total} trials — executed {summary.trials_executed} "
            f"(+{summary.calibrations} calibrations), cached {summary.cached}, "
            f"errors {summary.errors} -> {store.path} "
            f"({summary.wall_seconds:.1f}s wall)"
        )
        print(f"wrote {out}")
    return 1 if summary.errors else 0


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    store = ResultsStore(args.store)
    rows = store.ok_rows()
    if not rows:
        print(
            f"no completed runs in {store.path} — run `python -m repro sweep` first",
            file=sys.stderr,
        )
        return 1
    aggregated = aggregate(rows, source=str(store.path))
    write_bench_json(aggregated, args.bench_json)
    if args.csv_dir:
        write_csv_tables(aggregated, args.csv_dir)
    if args.metrics_out:
        registry = MetricsRegistry()
        register_metrics(aggregated, registry)
        registry.write(args.metrics_out)
        print(f"wrote {args.metrics_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(aggregated, indent=2, sort_keys=True))
    else:
        print(render_text(aggregated))
        print(f"\nwrote {args.bench_json}", end="")
        print(f" and CSV tables under {args.csv_dir}" if args.csv_dir else "")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy interface: `python -m repro --preset int-heavy --check` (and
    # the bare `python -m repro`) predate subcommands and mean `run`.
    if not argv or (argv[0] not in COMMANDS and argv[0] not in ("-h", "--help")):
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "report": _cmd_report,
    }[args.command]
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
