"""Parallel experiment sweeps: declarative grids, a resumable results
store, and paper-style aggregate reports.

The paper's evaluation is a *grid* — checked-vs-unchecked slowdown across
workload mixes, fault rates, and resource-sharing configurations — not a
single run.  This package turns the simulator into an experiment platform:

* :class:`SweepSpec` (:mod:`repro.experiments.spec`) — a declarative
  cartesian grid over preset, seed, fault rate, issue width, FU counts,
  checker slot policy, and wrong-path knobs, loadable from TOML or JSON.
* :func:`run_experiment` (:mod:`repro.experiments.runner`) — one point:
  an unchecked baseline core and the checked core on the same trace; the
  CLI's ``run``, every sweep point and every shard build their cores the
  same way.
* :func:`run_sweep` (:mod:`repro.experiments.runner`) — fans the grid out
  across worker processes with deterministic per-point seeds and crash
  isolation (a failing point becomes an error row, not a dead sweep),
  through the one execution loop campaigns use too
  (:func:`~repro.experiments.executor.drive`).
* :class:`ResultsStore` (:mod:`repro.experiments.store`) — an append-only
  JSONL store keyed by a config hash; re-running a sweep skips points that
  already completed, so interrupted sweeps resume for free.
* :func:`aggregate` / :func:`render_text` / :func:`write_csv_tables` /
  :func:`write_bench_json` (:mod:`repro.experiments.report`) — group rows
  by configuration, reduce across seeds to mean ± stddev, and emit the
  paper-style tables as text, CSV, and ``BENCH_sweep.json``.
"""

from repro.experiments.campaign import (
    CampaignSpec,
    CampaignSummary,
    aggregate_campaign,
    execute_campaign_point,
    render_campaign_text,
    run_campaign,
    wilson_interval,
)
from repro.experiments.report import (
    aggregate,
    register_metrics,
    render_text,
    write_bench_json,
    write_csv_tables,
)
from repro.experiments.runner import SweepSummary, execute_point, run_experiment, run_sweep
from repro.experiments.spec import RunPoint, SweepSpec, canonical_json, config_hash
from repro.experiments.store import ResultsStore

__all__ = [
    "CampaignSpec",
    "CampaignSummary",
    "ResultsStore",
    "RunPoint",
    "SweepSpec",
    "SweepSummary",
    "aggregate",
    "aggregate_campaign",
    "canonical_json",
    "config_hash",
    "execute_campaign_point",
    "execute_point",
    "register_metrics",
    "render_campaign_text",
    "render_text",
    "run_campaign",
    "run_experiment",
    "run_sweep",
    "wilson_interval",
    "write_bench_json",
    "write_csv_tables",
]
