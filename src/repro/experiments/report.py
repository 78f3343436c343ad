"""Aggregation and paper-style reporting over a results store.

``aggregate`` groups ok-rows by configuration (everything except the
seed), reduces each metric across seeds to mean/std/min/max, and pools the
raw per-fault detection latencies into a distribution summary.  The
aggregate payload carries three pre-computed tables mirroring the paper's
evaluation:

* ``slowdown`` — checked-vs-unchecked slowdown (and IPCs) per
  configuration, the headline Table;
* ``slot_steal_vs_fault_rate`` — how much issue bandwidth the checker
  steals as the fault rate (and hence recovery traffic) grows;
* ``detection_latency`` — fault-to-detection latency distributions
  (count / mean / p50 / p90 / max) per configuration.

The same payload renders as fixed-width text (``render_text``), one CSV
per table (``write_csv_tables``), and the machine-readable
``BENCH_sweep.json`` (``write_bench_json``).  Nothing here timestamps the
output: reports are a pure function of the store, byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.experiments.spec import SCHEMA_VERSION, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: metric name -> extractor over one ok-row's ``result`` dict.
_METRICS: dict[str, Callable[[Mapping[str, Any]], float | None]] = {
    "unchecked_ipc": lambda r: r["unchecked"]["ipc"],
    "checked_ipc": lambda r: r["checked"]["ipc"],
    "slowdown": lambda r: r.get("slowdown"),
    "slot_steal_rate": lambda r: r["checked"]["slot_steal_rate"],
    "primary_slot_utilization": lambda r: r["checked"]["primary_slot_utilization"],
    "wrong_path_slot_rate": lambda r: r["checked"]["wrong_path_slot_rate"],
    "fault_coverage": lambda r: r.get("fault_coverage"),
    "faults_injected": lambda r: r["checked"]["faults_injected"],
    "recoveries": lambda r: r["checked"]["recoveries"],
    "mean_detection_latency": lambda r: r["checked"]["mean_detection_latency"],
    # Checkpointed-recovery metrics: present only in results produced with
    # checkpoint_interval > 0 (the .get keeps legacy rows aggregating).
    "checkpoints_taken": lambda r: r["checked"].get("checkpoints_taken"),
    "checkpoint_overhead_cycles": lambda r: r["checked"].get("checkpoint_overhead_cycles"),
    "recovery_stall_cycles": lambda r: r["checked"].get("recovery_stall_cycles"),
    "mean_recovery_stall": lambda r: r["checked"].get("mean_recovery_stall"),
    "mean_rollback_distance": lambda r: r["checked"].get("mean_rollback_distance"),
}


def _summary(values: Sequence[float]) -> dict[str, float | None]:
    """mean/std/min/max across seeds; ``std`` is 0 for a single sample."""
    if not values:
        return {"mean": None, "std": None, "min": None, "max": None}
    return {
        "mean": statistics.fmean(values),
        "std": statistics.stdev(values) if len(values) > 1 else 0.0,
        "min": min(values),
        "max": max(values),
    }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted, non-empty sequence."""
    index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _fu_label(fu_counts: Mapping[str, int] | None) -> str:
    if not fu_counts:
        return "table1"
    return "-".join(f"{name.lower()}{count}" for name, count in sorted(fu_counts.items()))


def _group_sort_key(group: Mapping[str, Any]) -> tuple:
    config = group["config"]
    return (
        config.get("preset", ""),
        config.get("fault_rate", 0.0),
        config.get("issue_width", 0),
        config.get("slot_policy", ""),
        config.get("reserved_slots", 0),
        not config.get("wrong_path", True),
        config.get("wrong_path_depth", 0),
        _fu_label(config.get("fu_counts")),
        config.get("checkpoint_interval", 0),
    )


def aggregate(rows: Sequence[Mapping[str, Any]], source: str | None = None) -> dict:
    """Reduce ok-rows across seeds into the report payload.

    Rows whose config cannot be grouped (missing ``config``/``result``)
    are dropped; duplicate (config, seed) rows keep the *last* occurrence,
    matching the append-only store's "latest wins" reading.
    """
    grouped: dict[str, dict[str, Any]] = {}
    for row in rows:
        config = row.get("config")
        result = row.get("result")
        if not isinstance(config, Mapping) or not isinstance(result, Mapping):
            continue
        group_config = {key: value for key, value in config.items() if key != "seed"}
        key = row.get("group_hash") or config_hash(group_config)
        group = grouped.setdefault(
            key, {"group_hash": key, "config": group_config, "runs": {}}
        )
        group["runs"][config.get("seed")] = result

    groups: list[dict[str, Any]] = []
    for group in grouped.values():
        runs = group.pop("runs")
        seeds = sorted(runs, key=lambda s: (s is None, s))
        results = [runs[seed] for seed in seeds]
        metrics = {}
        for name, extract in _METRICS.items():
            values = [v for r in results if (v := extract(r)) is not None]
            metrics[name] = _summary(values)
        latencies = sorted(
            latency
            for r in results
            for latency in r["checked"].get("detection_latencies", [])
        )
        group["seeds"] = seeds
        group["n_seeds"] = len(seeds)
        group["metrics"] = metrics
        group["detection_latency"] = {
            "count": len(latencies),
            "mean": statistics.fmean(latencies) if latencies else None,
            "p50": _percentile(latencies, 0.50) if latencies else None,
            "p90": _percentile(latencies, 0.90) if latencies else None,
            "max": latencies[-1] if latencies else None,
        }
        groups.append(group)
    groups.sort(key=_group_sort_key)

    return {
        "schema": SCHEMA_VERSION,
        "source": source,
        "n_rows": len(rows),
        "n_groups": len(groups),
        "groups": groups,
        "tables": {
            "slowdown": _slowdown_table(groups),
            "slot_steal_vs_fault_rate": _slot_steal_table(groups),
            "detection_latency": _latency_table(groups),
        },
    }


def _config_columns(config: Mapping[str, Any]) -> dict[str, Any]:
    policy = config.get("slot_policy", "opportunistic")
    if policy == "reserved":
        policy = f"reserved({config.get('reserved_slots')})"
    columns = {
        "preset": config.get("preset"),
        "fault_rate": config.get("fault_rate"),
        "issue_width": config.get("issue_width"),
        "slot_policy": policy,
        "wrong_path": config.get("wrong_path"),
        "fu": _fu_label(config.get("fu_counts")),
    }
    # Emitted only for checkpointed configs so legacy reports keep their
    # exact column set (mixed sweeps render "-" for the flat-recovery rows).
    if "checkpoint_interval" in config:
        columns["ckpt"] = config["checkpoint_interval"]
    return columns


def _slowdown_table(groups: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    table = []
    for group in groups:
        metrics = group["metrics"]
        row = {
            **_config_columns(group["config"]),
            "seeds": group["n_seeds"],
            "unchecked_ipc": metrics["unchecked_ipc"]["mean"],
            "checked_ipc": metrics["checked_ipc"]["mean"],
            "slowdown_mean": metrics["slowdown"]["mean"],
            "slowdown_std": metrics["slowdown"]["std"],
            "slot_steal_rate": metrics["slot_steal_rate"]["mean"],
        }
        if metrics["mean_recovery_stall"]["mean"] is not None:
            row["recovery_stall"] = metrics["mean_recovery_stall"]["mean"]
            row["rollback_dist"] = metrics["mean_rollback_distance"]["mean"]
            row["ckpt_overhead"] = metrics["checkpoint_overhead_cycles"]["mean"]
        table.append(row)
    return table


def _slot_steal_table(groups: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    table = []
    for group in groups:
        metrics = group["metrics"]
        table.append(
            {
                **_config_columns(group["config"]),
                "seeds": group["n_seeds"],
                "slot_steal_mean": metrics["slot_steal_rate"]["mean"],
                "slot_steal_std": metrics["slot_steal_rate"]["std"],
                "primary_utilization": metrics["primary_slot_utilization"]["mean"],
                "recoveries": metrics["recoveries"]["mean"],
                "fault_coverage": metrics["fault_coverage"]["mean"],
            }
        )
    return table


def _latency_table(groups: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    table = []
    for group in groups:
        dist = group["detection_latency"]
        table.append(
            {
                **_config_columns(group["config"]),
                "seeds": group["n_seeds"],
                "faults": dist["count"],
                "latency_mean": dist["mean"],
                "latency_p50": dist["p50"],
                "latency_p90": dist["p90"],
                "latency_max": dist["max"],
            }
        )
    return table


def register_metrics(
    aggregated: Mapping[str, Any],
    registry: "MetricsRegistry",
    prefix: str = "report.",
) -> None:
    """Register the aggregate's headline numbers into a metrics registry.

    Top-level row/group counts become counters; each configuration group
    contributes gauges for its mean slowdown, IPCs, slot steal, and fault
    coverage.  Group names are ``<preset>.<group_hash[:8]>`` — readable
    but still collision-free across otherwise-identical presets.
    """
    registry.set_counter(f"{prefix}rows", aggregated["n_rows"])
    registry.set_counter(f"{prefix}groups", aggregated["n_groups"])
    for group in aggregated["groups"]:
        config = group["config"]
        label = f"{config.get('preset', 'unknown')}.{group['group_hash'][:8]}"
        metrics = group["metrics"]
        for name in (
            "slowdown",
            "unchecked_ipc",
            "checked_ipc",
            "slot_steal_rate",
            "fault_coverage",
        ):
            registry.set_gauge(f"{prefix}{label}.{name}", metrics[name]["mean"])
        dist = group["detection_latency"]
        registry.set_gauge(f"{prefix}{label}.detection_latency_p90", dist["p90"])


# --------------------------------------------------------------- rendering


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.1e}"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _render_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Fixed-width text table; columns are the union of row keys, in order."""
    if not rows:
        return "  (no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(key)) for key in columns] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in cells))
        for i, header in enumerate(columns)
    ]
    header = "  ".join(name.ljust(width) for name, width in zip(columns, widths))
    rule = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in cells
    ]
    return "\n".join([header, rule, *body])


def render_text(aggregated: Mapping[str, Any]) -> str:
    """The three paper-style tables as a fixed-width text report."""
    tables = aggregated["tables"]
    sections = [
        (
            "Checked-vs-unchecked slowdown (mean over seeds; ± is stddev)",
            tables["slowdown"],
        ),
        ("Checker slot-steal vs fault rate", tables["slot_steal_vs_fault_rate"]),
        ("Detection-latency distribution (cycles, pooled over seeds)",
         tables["detection_latency"]),
    ]
    parts = [
        f"sweep report — {aggregated['n_groups']} configs "
        f"from {aggregated['n_rows']} runs"
        + (f" ({aggregated['source']})" if aggregated.get("source") else "")
    ]
    for title, table in sections:
        parts.append(f"\n== {title} ==")
        parts.append(_render_table(table))
    return "\n".join(parts)


def write_csv_tables(aggregated: Mapping[str, Any], directory: str | Path) -> list[Path]:
    """One CSV per table; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, table in aggregated["tables"].items():
        path = directory / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            if table:
                # Column union in first-seen order: a mixed sweep (some rows
                # checkpointed, some not) must not crash DictWriter on the
                # conditional recovery columns.
                columns: list[str] = []
                for row in table:
                    for key in row:
                        if key not in columns:
                            columns.append(key)
                writer = csv.DictWriter(fh, fieldnames=columns, restval="")
                writer.writeheader()
                writer.writerows(table)
        written.append(path)
    return written


def write_bench_json(aggregated: Mapping[str, Any], path: str | Path) -> Path:
    """A report payload, stable-sorted, as JSON (``BENCH_sweep.json`` for
    sweeps, ``BENCH_campaign.json`` for campaigns)."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(aggregated, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
