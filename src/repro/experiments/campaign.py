"""Statistical fault-injection campaigns.

A *campaign* measures what a sweep cannot: the checker's actual
detection coverage under fault models that are not detected by
construction.  For each ``(preset, fault model)`` cell it runs

1. one **calibration** run — fault rate 0, no forced fault — whose only
   job is to count the model's *eligible* fault sites along the
   (deterministic) simulation schedule; then
2. ``trials`` randomized **single-fault** runs, each forcing the
   injection at one eligible site chosen uniformly by index, with an
   independent per-trial model seed.

Because the trigger is an *index* into the eligibility stream rather
than an RNG draw, the site choice is a pure function of
``(campaign seed, preset, model, trial)`` — workers share no state and
rows land in a :class:`~repro.experiments.store.ResultsStore` in
submission order, so the store is byte-identical for any ``--workers``
value and across interrupted/resumed invocations, exactly like sweeps.

Each trial resolves every injected fault to one
:class:`~repro.faults.outcomes.FaultOutcome`.  A trial whose faults all
resolved as masked or SDC, and whose model can inject no more, stops
there: from that cycle on it replays its calibration run's schedule (a
silent fault is a flag that changes no timing), so the rest of its row is
the calibration's (:func:`_resolved_silently`).  The campaign report
aggregates the per-cell outcome counts into coverage / SDC / masking
rates with Wilson score confidence intervals (the standard interval for
binomial proportions at small n) and writes them to
``BENCH_campaign.json``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any

from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams
from repro.experiments.executor import (
    ProgressFn,
    drive,
    point_row,
    shared_input,
    shared_state,
)
from repro.experiments.spec import (
    DEFAULT_OPS,
    SCHEMA_VERSION,
    SpecLoader,
    config_hash,
    run_params,
)
from repro.experiments.store import ResultsStore
from repro.faults.outcomes import OUTCOME_KEYS, zero_outcomes
from repro.workloads import PRESET_NAMES, WrongPathGenerator, generate, preset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.capture import CoreState

#: The ``CheckerParams`` fields, of which a campaign config carries the
#: fault model, its off-default knobs and (in a trial) the forced site and
#: the fault seed.
_CHECKER_FIELDS = frozenset(f.name for f in fields(CheckerParams))

#: The default checker, whose model knobs a campaign spec defaults to.
_CHECKER = CheckerParams()

#: The keys ``CheckerParams.to_dict`` emits at every setting; the others
#: it emits only off their defaults.
_ALWAYS_EMITTED = frozenset(_CHECKER.to_dict())

#: z for the 95% Wilson score interval.
WILSON_Z = 1.96

#: Default report output path for ``python -m repro campaign``.
DEFAULT_CAMPAIGN_JSON = "BENCH_campaign.json"

#: Default results-store path for campaigns (kept separate from sweep
#: stores: the row shapes differ).
DEFAULT_CAMPAIGN_STORE = "campaign_results.jsonl"

#: The result keys a trial that stopped early takes from its calibration.
_CALIBRATED = ("eligible", "cycles", "committed", "recoveries")


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because campaign cells are
    small (tens of trials): it never leaves [0, 1] and stays honest at
    p near 0 or 1 — exactly where coverage and SDC rates live.
    """
    if successes < 0 or n < successes:
        raise ValueError(f"need 0 <= successes <= n, got {successes}/{n}")
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(slots=True)
class CampaignSpec(SpecLoader):
    """One campaign: cells = presets x fault models, ``trials`` each.

    Loadable from TOML/JSON (top-level ``[campaign]`` table or flat
    document), like :class:`~repro.experiments.spec.SweepSpec`.
    The model knobs (``fault_burst``, ``fault_fu``,
    ``fault_repair_cycles``) are scalars applied to every cell whose
    model reads them.
    """

    name: str
    presets: list[str]
    fault_models: list[str]
    trials: int = 50
    seed: int = 0
    ops: int = DEFAULT_OPS
    timeout_s: float | None = None
    fault_burst: int = _CHECKER.fault_burst
    fault_fu: str = _CHECKER.fault_fu
    fault_repair_cycles: int = _CHECKER.fault_repair_cycles

    _kind = "campaign"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.ops <= 0:
            raise ValueError(f"ops must be positive, got {self.ops}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        for axis in ("presets", "fault_models"):
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{axis} must be a non-empty list, got {values!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} contains duplicate values")
        for preset_name in self.presets:
            if preset_name not in PRESET_NAMES:
                raise ValueError(
                    f"unknown preset {preset_name!r}; choose from {list(PRESET_NAMES)}"
                )
        # Each model's checker checks the model name and its knobs.
        for model in self.fault_models:
            self._model_knobs(model)

    def cells(self) -> list[tuple[str, str]]:
        """(preset, model) pairs in spec order — the campaign's grid."""
        return [(p, m) for p in self.presets for m in self.fault_models]

    def _model_knobs(self, model: str) -> dict[str, Any]:
        """The model's knobs as ``CheckerParams.to_dict`` emits them only
        off their defaults, so default knobs leave every config hash alone."""
        checker = CheckerParams(
            fault_model=model,
            fault_burst=self.fault_burst,
            fault_fu=self.fault_fu,
            fault_repair_cycles=self.fault_repair_cycles,
        )
        return {k: v for k, v in checker.to_dict().items() if k not in _ALWAYS_EMITTED}

    def calibration_config(self, preset: str, model: str) -> dict[str, Any]:
        """The rate-0 run that counts the cell's eligible fault sites."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": "calibration",
            "preset": preset,
            "seed": self.seed,
            "ops": self.ops,
            "fault_model": model,
            **self._model_knobs(model),
        }

    def trial_config(
        self, preset: str, model: str, trial: int, eligible: int
    ) -> dict[str, Any]:
        """One single-fault trial, derived purely from (spec, eligible).

        ``random.Random`` with a string seed hashes it (SHA-512), so the
        site index and per-trial model seed are identical in every
        process — the property that keeps campaign stores byte-identical
        across worker counts.
        """
        rng = random.Random(f"{self.seed}:{preset}:{model}:{trial}")
        config = self.calibration_config(preset, model)
        config["kind"] = "trial"
        config["trial"] = trial
        config["force_fault_index"] = rng.randrange(eligible)
        config["fault_seed"] = rng.randrange(2**31)
        return config


def execute_campaign_point(
    config: dict[str, Any],
    timeout_s: float | None = None,
    calibration: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one calibration or trial; always returns a row, never raises.

    Top-level and picklable, with the same crash-isolation and
    transport-key contract as the sweep runner's ``execute_point``.
    Inside a campaign batch the point reuses the trace an earlier point
    of its batch generated, and a trial resumes from the batch's
    fault-free leader core; its ``_elapsed_s`` then includes advancing
    the leader to its site.

    A trial given its cell's ``calibration`` result stops once its fault
    resolves silently (:func:`_resolved_silently`), and its row is
    exactly the row of the same trial run to the end without one.
    """
    with point_row(config, timeout_s) as row:
        row["result"] = _simulate_campaign_point(config, calibration)
    return row


def _execute_trial(
    calibrations: dict[tuple, dict[str, Any]],
    config: dict[str, Any],
    timeout_s: float | None = None,
) -> dict[str, Any]:
    """A trial of :func:`run_campaign`, given its cell's calibration result."""
    return execute_campaign_point(config, timeout_s, calibrations[_leader_key(config)])


def _trace_key(config: dict[str, Any]) -> tuple[str, int, int]:
    """What a campaign point's trace depends on: every cell and trial with
    equal keys simulates the same trace."""
    return (config["preset"], config["ops"], config["seed"])


def _run_order(config: dict[str, Any]) -> tuple[str, int]:
    """The order a batch runs its points in: by model, then by fault site,
    so the batch's leader core for each cell only moves forward."""
    return (config["fault_model"], config.get("force_fault_index", -1))


def _leader_key(config: dict[str, Any]) -> tuple:
    """What a trial's fault-free prefix depends on: its config minus the
    trial's own fault seed and site (its cell's calibration run)."""
    own = ("kind", "trial", "fault_seed", "force_fault_index")
    return tuple(sorted((k, v) for k, v in config.items() if k not in own))


def _state_before(leader: "SuperscalarCore", site: int) -> "CoreState":
    """Advance ``leader`` to the first cycle boundary where eligible event
    ``site`` could come within a cycle, and capture it there.

    At most ``issue_width`` events are eligible per cycle, so the site is
    still ahead at that boundary.  Trials run by site, so the leader only
    moves forward.
    """
    injector = leader.fault_injector
    width = leader.params.issue_width
    if injector.eligible + width <= site:
        leader.advance(lambda: injector.eligible + width > site)
    assert injector.eligible <= site, (injector.eligible, site)
    return leader.capture()


def _resolved_silently(core: SuperscalarCore) -> bool:
    """A trial's stop test, checked after each stepped cycle: every fault
    injected so far resolved as masked or SDC, and the model can inject no
    more (its forced site is behind, its burst spent, its broken unit
    repaired).

    Masked and SDC faults change no timing, so from here on the trial
    replays its calibration run's schedule to the same end.  A trial whose
    fault was detected, squashed or false-alarmed never stops early: every
    transient trial is one.
    """
    model = core.fault_injector
    return model.tracker.silent and model.spent(core._now)


def _simulate_campaign_point(
    config: dict[str, Any], calibration: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Simulate one checked core under the configured fault model.

    Campaigns run the checked core only: the unchecked baseline tells us
    nothing about outcomes, and skipping it halves the per-trial cost.  A
    trial starts from its batch's fault-free leader core just before its
    fault site: up to the site it would replay the leader's schedule
    exactly, because a forced fault draws no random numbers before it.
    With its cell's ``calibration`` result, a trial also stops once its
    fault resolves silently and takes the rest of its row from it.
    """
    profile = preset(config["preset"])
    seed = config["seed"]
    trace = shared_input(
        "trace",
        (profile, config["ops"], seed),
        lambda: generate(profile, config["ops"], seed=seed),
    )
    checker = CheckerParams.from_dict(
        {key: value for key, value in config.items() if key in _CHECKER_FIELDS}
    )

    def checked_core(fault_seed: int | None, force_fault_index: int | None) -> SuperscalarCore:
        base = CoreParams(checker=replace(checker, force_fault_index=force_fault_index))
        return SuperscalarCore(
            run_params(base, seed, checked=True, fault_seed=fault_seed),
            wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream,
        )

    def new_leader() -> SuperscalarCore:
        leader = checked_core(None, None)  # the cell's calibration run
        leader.begin(trace)
        return leader

    site = checker.force_fault_index
    core = checked_core(config.get("fault_seed"), site)
    if site is None:
        stats = core.run(trace)
    else:
        with shared_state("leader", _leader_key(config), new_leader) as leader:
            state = _state_before(leader, site)
        stop = None if calibration is None else functools.partial(_resolved_silently, core)
        stats = core.run(trace, start=state, stop=stop)
    result = {
        "eligible": core.fault_injector.eligible,
        "injected": stats.faults_injected,
        "outcomes": dict(stats.fault_outcomes),
        "cycles": stats.cycles,
        "committed": stats.committed,
        "recoveries": stats.recoveries,
    }
    if stats.committed < len(trace):  # the trial stopped early
        result.update((key, calibration[key]) for key in _CALIBRATED)
    return result


@dataclass(slots=True)
class CampaignSummary:
    """What one ``run_campaign`` invocation did."""

    cells: int  #: (preset, model) cells in the campaign
    calibrations: int  #: calibration runs executed this invocation
    trials_total: int  #: trials in the full campaign
    trials_executed: int  #: trials actually simulated this invocation
    cached: int  #: calibration+trial points already in the store
    errors: int  #: executed points that produced error rows
    wall_seconds: float = 0.0


def _ok_rows_by_hash(store: ResultsStore) -> dict[str, dict[str, Any]]:
    return {
        row["config_hash"]: row
        for row in store.ok_rows()
        if "config_hash" in row
    }


def run_campaign(
    spec: CampaignSpec,
    store: ResultsStore,
    workers: int = 1,
    progress: ProgressFn | None = None,
    timeout_s: float | None = None,
) -> CampaignSummary:
    """Run (or resume) every cell of ``spec`` into ``store``.

    Two phases, each run through the batched executor with rows stored
    in config order: calibrations first (trial configs depend on their
    eligible counts, and each trial gets its cell's calibration result to
    stop early with), then all trials.  Both phases skip points the store
    already covers, so an interrupted campaign resumes where it stopped
    and a completed one is a no-op.  ``progress`` counts each phase from
    1 to that phase's pending total.

    Raises:
        ValueError: if a calibration finds no eligible fault sites — the
            cell cannot host a forced injection; lengthen the trace or
            drop the model for this preset.
    """
    if timeout_s is None:
        timeout_s = spec.timeout_s
    started = time.perf_counter()

    def run_phase(execute, configs: list[dict[str, Any]]):
        # Points that simulate the same trace share a few batches, each of
        # which generates it once and runs its trials by model and site.
        return drive(
            execute, configs, store, _trace_key, workers, timeout_s,
            order=_run_order, progress=progress,
        )

    calib_configs = [spec.calibration_config(p, m) for p, m in spec.cells()]
    calibrations = run_phase(execute_campaign_point, calib_configs)
    by_hash = _ok_rows_by_hash(store)
    calibrated: dict[tuple, dict[str, Any]] = {}
    trial_configs: list[dict[str, Any]] = []
    for (preset_name, model), config in zip(spec.cells(), calib_configs):
        row = by_hash.get(config_hash(config))
        if row is None:
            continue  # calibration errored; its error row is retried next run
        eligible = row["result"]["eligible"]
        if eligible <= 0:
            raise ValueError(
                f"campaign cell preset={preset_name!r} model={model!r} has no "
                f"eligible fault sites in {spec.ops} ops — lengthen the trace "
                f"or drop the model for this preset"
            )
        calibrated[_leader_key(config)] = row["result"]
        trial_configs.extend(
            spec.trial_config(preset_name, model, trial, eligible)
            for trial in range(spec.trials)
        )
    trials = run_phase(functools.partial(_execute_trial, calibrated), trial_configs)
    return CampaignSummary(
        cells=len(spec.cells()),
        calibrations=calibrations.executed,
        trials_total=len(spec.cells()) * spec.trials,
        trials_executed=trials.executed,
        cached=calibrations.cached + trials.cached,
        errors=calibrations.errors + trials.errors,
        wall_seconds=round(time.perf_counter() - started, 3),
    )


def _rate_block(successes: int, n: int) -> dict[str, float | int]:
    lo, hi = wilson_interval(successes, n)
    return {
        "value": round(successes / n, 6) if n else None,
        "n": n,
        "wilson_lo": round(lo, 6),
        "wilson_hi": round(hi, 6),
    }


def aggregate_campaign(spec: CampaignSpec, store: ResultsStore) -> dict[str, Any]:
    """Reduce a campaign store into the per-cell outcome/rate report.

    Only rows whose config hashes this spec derives are read, so a store
    shared across campaigns (or holding stale rows) aggregates cleanly.
    Trials that errored are counted, not silently dropped.
    """
    by_hash = _ok_rows_by_hash(store)
    cells: list[dict[str, Any]] = []
    for preset_name, model in spec.cells():
        calib = by_hash.get(
            config_hash(spec.calibration_config(preset_name, model))
        )
        if calib is None:
            continue
        eligible = calib["result"]["eligible"]
        outcomes = zero_outcomes()
        injected = 0
        trials_ok = 0
        for trial in range(spec.trials):
            config = spec.trial_config(preset_name, model, trial, eligible)
            row = by_hash.get(config_hash(config))
            if row is None:
                continue
            trials_ok += 1
            result = row["result"]
            injected += result["injected"]
            for key, count in result["outcomes"].items():
                outcomes[key] = outcomes.get(key, 0) + count
        # Faults that survived to commit-time resolution: everything the
        # recovery path did not flush before it could matter.
        live = outcomes["detected"] + outcomes["masked"] + outcomes["sdc"]
        cells.append(
            {
                "preset": preset_name,
                "fault_model": model,
                "trials": spec.trials,
                "trials_ok": trials_ok,
                "eligible": eligible,
                "injected": injected,
                "outcomes": outcomes,
                "rates": {
                    "coverage": _rate_block(outcomes["detected"], live),
                    "sdc": _rate_block(outcomes["sdc"], live),
                    "masked": _rate_block(outcomes["masked"], live),
                },
            }
        )
    assert all(set(cell["outcomes"]) == set(OUTCOME_KEYS) for cell in cells)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "campaign",
        "name": spec.name,
        "source": str(store.path),
        "trials_per_cell": spec.trials,
        "wilson_z": WILSON_Z,
        "cells": cells,
    }


def render_campaign_text(report: dict[str, Any]) -> str:
    """Human-readable per-cell table of outcome counts and rates."""
    lines = [
        f"campaign '{report['name']}' — {report['trials_per_cell']} trials/cell "
        f"(95% Wilson intervals)"
    ]
    for cell in report["cells"]:
        outcomes = cell["outcomes"]
        coverage = cell["rates"]["coverage"]
        sdc = cell["rates"]["sdc"]
        value = coverage["value"]
        lines.append(
            f"  {cell['preset']:<12s} {cell['fault_model']:<12s} "
            f"injected {cell['injected']:>4d}  "
            f"det {outcomes['detected']:>3d}  sq {outcomes['squashed']:>3d}  "
            f"mask {outcomes['masked']:>3d}  sdc {outcomes['sdc']:>3d}  "
            f"falarm {outcomes['false_alarm']:>3d}  "
            + (
                f"coverage {value:.1%} "
                f"[{coverage['wilson_lo']:.1%}, {coverage['wilson_hi']:.1%}]  "
                f"sdc-rate {sdc['value']:.1%} "
                f"[{sdc['wilson_lo']:.1%}, {sdc['wilson_hi']:.1%}]"
                if value is not None
                else "coverage n/a (no live faults)"
            )
        )
    return "\n".join(lines)
