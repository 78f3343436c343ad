"""Per-layer metrics from a traced pass, and the cProfile cross-check.

A span's layer is the part of its name before the first dot; its self
time is its duration minus the time its direct children cover.  Counts
such as cycles, skipped cycles and scheduler events come from the stats
each core run returned, never from counters added to the simulator.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from spans import SpanRecorder

#: Traced layers, in report order; "bench" is the benchmark's own spans.
LAYERS = ("workloads", "core", "checker", "recovery", "memory", "experiments", "parallel",
          "bench")

#: Tolerance for clock rounding when checking span nesting.
_EPS = 1e-9


def self_times(rec: SpanRecorder) -> tuple[list[float], list[str]]:
    """Per-span self time, plus any nesting violations found.

    A child must lie inside its parent's interval, so a span's self time
    plus its children's time equals its duration with self time >= 0.
    """
    start, end, parent = rec.start, rec.end, rec.parent
    child_time = [0.0] * len(start)
    problems: list[str] = []
    for sid in range(len(start)):
        p = parent[sid]
        if p >= 0:
            child_time[p] += end[sid] - start[sid]
            if start[sid] < start[p] - _EPS or end[sid] > end[p] + _EPS:
                problems.append(f"span {rec.names[rec.name[sid]]} #{sid} escapes its parent")
    selfs = [end[s] - start[s] - child_time[s] for s in range(len(start))]
    for sid, value in enumerate(selfs):
        if value < -_EPS:
            problems.append(f"span {rec.names[rec.name[sid]]} #{sid} has negative self time")
    return selfs, problems[:5]


def span_summary(rec: SpanRecorder, selfs: list[float]) -> dict[str, dict[str, Any]]:
    """Per span name: calls, total duration, self time and all durations."""
    out: dict[str, dict[str, Any]] = {}
    for sid in range(len(rec)):
        name = rec.names[rec.name[sid]]
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        duration = rec.end[sid] - rec.start[sid]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += selfs[sid]
        entry["durations"].append(duration)
    return out


def layer_self(summary: dict[str, dict[str, Any]]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        totals[layer if layer in totals else "bench"] += entry["self"]
    return totals


def _sum(records: list[dict[str, Any]], key: str, mode: str | None = None) -> float:
    return sum(r[key] for r in records if mode is None or r["mode"] == mode)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    workload: Any,
    rec: SpanRecorder,
    summary: dict[str, dict[str, Any]],
    untraced_runs: list[dict[str, Any]],
    pool_unit: Any,
    pool_runs: list[dict[str, Any]],
    traced_unit: Any,
    overhead: float,
    micro: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric for one workload.

    ``untraced_runs`` are the core-run records of an untraced single-worker
    pass (host time per cycle and per event); ``pool_unit``/``pool_runs``
    come from an untraced pass at the workload's own worker count (worker
    utilization, shard walls).
    """

    def total(name: str) -> float:
        return summary.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_of(*names: str) -> float:
        return sum(summary.get(n, {}).get("self", 0.0) for n in names)

    runs = rec.core_runs
    cycles = _sum(runs, "cycles")
    skipped = _sum(runs, "cycles_skipped")
    committed = _sum(runs, "committed")
    fetched = _sum(runs, "fetched")
    wp_fetched = _sum(runs, "wrong_path_fetched")
    counters = rec.counters
    accepted = counters.get("memory.accepted", 0)
    access_calls = calls("memory.access")
    trials = summary.get("experiments.trial", {}).get("durations", [])
    info = traced_unit.info

    wall_u = _sum(untraced_runs, "wall", "unchecked")
    wall_c = _sum(untraced_runs, "wall", "checked")
    ops_u = _sum(untraced_runs, "ops", "unchecked")
    ops_c = _sum(untraced_runs, "ops", "checked")

    sharding = pool_unit.info.get("sharding")
    if sharding:
        shard_walls = [w["wall_s"] for w in sharding["windows"]]
        shard_max = max(shard_walls)
        imbalance = shard_max / min(shard_walls)
        useful = _ratio(workload.ops, info["simulated_ops"])
        parent_s = pool_unit.wall - shard_max
    else:
        shard_max, imbalance, useful, parent_s = 0.0, 0.0, 1.0, 0.0

    return {
        "workloads.generate_s": self_of(
            "workloads.generate", "workloads.generate_window", "workloads.fast_forward"
        ),
        "workloads.wrong_path_ops": calls("workloads.wrong_path"),
        "workloads.wrong_path_s": total("workloads.wrong_path"),
        "core.self_s": self_of("core.run"),
        "core.cycles": cycles,
        "core.cycles_skipped": skipped,
        "core.skip_fraction": _ratio(skipped, cycles),
        "core.sched_events": _sum(runs, "sched_events"),
        "core.host_ns_per_cycle": _ratio(
            _sum(untraced_runs, "wall") * 1e9, _sum(untraced_runs, "cycles")
        ),
        "core.host_ns_per_event": _ratio(
            _sum(untraced_runs, "wall") * 1e9, _sum(untraced_runs, "sched_events")
        ),
        "core.wrong_path_fetch_fraction": _ratio(wp_fetched, fetched + wp_fetched),
        "core.ipc_checked": info["ipc_checked"],
        "core.slowdown": info["slowdown"],
        "core.squashed": _sum(runs, "squashed"),
        "core.wheel_ns_per_event": micro["wheel"],
        "core.readyq_ns_per_op": micro["readyq"],
        "checker.issue_calls": calls("checker.issue"),
        "checker.issue_s": total("checker.issue"),
        "checker.completions_s": total("checker.process_completions"),
        "checker.checks_completed": _sum(runs, "checks_completed"),
        "checker.slots_used": _sum(runs, "checker_slots_used"),
        # host seconds per checked op over host seconds per unchecked op
        "checker.host_cost_ratio": _ratio(_ratio(wall_c, ops_c), _ratio(wall_u, ops_u)),
        "recovery.squash_wrong_path_calls": calls("recovery.squash_wrong_path"),
        "recovery.squash_wrong_path_s": total("recovery.squash_wrong_path"),
        "recovery.recover_fault_s": total("recovery.recover_fault"),
        "recovery.recover_mem_violation_s": total("recovery.recover_mem_violation"),
        "memory.access_calls": access_calls,
        "memory.access_s": total("memory.access"),
        "memory.refused_port": counters.get("memory.refused_port", 0),
        "memory.refused_bank": counters.get("memory.refused_bank", 0),
        "memory.refused_mshr": counters.get("memory.refused_mshr", 0),
        "memory.refused_mshr_target": counters.get("memory.refused_mshr_target", 0),
        "memory.accept_ratio": _ratio(accepted, access_calls),
        "memory.replays_per_op": _ratio(_sum(runs, "mem_replays"), committed),
        "memory.ifetch_calls": calls("memory.ifetch"),
        "memory.ifetch_s": total("memory.ifetch"),
        "memory.checker_probe_calls": calls("memory.checker_probe"),
        "memory.fills_due_calls": calls("memory.fills_due"),
        "memory.access_ns_isolated": micro["access"],
        "faults.injected": _sum(runs, "faults_injected", "checked"),
        "experiments.trial_cycles_mean": info.get("trial_cycles_mean", 0.0),
        "experiments.trial_s_p50": statistics.median(trials) if trials else 0.0,
        "experiments.point_s_max": max(pool_unit.point_walls),
        "experiments.worker_utilization": _ratio(
            _sum(pool_runs, "wall"), workload.workers * pool_unit.wall
        ),
        "experiments.duplicate_baselines": info.get("duplicate_baselines", 0),
        "experiments.store_append_s": total("experiments.store_append"),
        "experiments.aggregate_s": total("experiments.aggregate")
        + total("experiments.aggregate_campaign"),
        "parallel.shard_s_max": shard_max,
        "parallel.shard_imbalance": imbalance,
        "parallel.useful_fraction": useful,
        "parallel.parent_s": parent_s,
        "bench.tracing_overhead": overhead,
    }


# ------------------------------------------------------------- cProfile


def _profile_layer(filename: str) -> str:
    """Map a source file to the traced layer that owns it."""
    marker = "/repro/"
    if marker not in filename:
        return "outside repro"
    module = filename.rsplit(marker, 1)[1].removesuffix(".py").replace("/", ".")
    if module in ("core.checker", "core.recovery"):
        return module.split(".")[1]
    package = module.split(".", 1)[0]
    if package in ("experiments", "faults"):
        return "experiments"
    if package in ("core", "memory", "workloads", "parallel"):
        return package
    return f"repro.{package}"


def profile_by_layer(profiler: Any) -> dict[str, float]:
    """cProfile own-time (tottime) grouped the way the spans are."""
    import pstats

    totals: dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        totals[_profile_layer(filename)] += tottime
    return dict(totals)


def cross_check_table(traced: dict[str, float], profiled: dict[str, float]) -> str:
    """Traced self time next to cProfile own time, each as a share of its run."""
    traced_total = sum(traced.values()) or 1.0
    profiled_total = sum(profiled.values()) or 1.0
    lines = [f"  {'layer':<16}{'traced self s':>14}{'share':>8}{'cProfile s':>12}{'share':>8}"]
    for layer in sorted(set(traced) | set(profiled), key=lambda n: -profiled.get(n, 0.0)):
        t, p = traced.get(layer, 0.0), profiled.get(layer, 0.0)
        lines.append(
            f"  {layer:<16}{t:>14.3f}{t / traced_total:>8.1%}{p:>12.3f}{p / profiled_total:>8.1%}"
        )
    return "\n".join(lines)
