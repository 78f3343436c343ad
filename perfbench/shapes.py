"""The four benchmark workloads.

Each workload turns a seed into inputs (``setup``) and then runs one
*unit* of work on them (``unit``): the same call sequence a user of the
simulator makes.  A unit returns a :class:`Unit` with its host time, the
work it completed, a digest of every simulated output, and the invariant
violations it found.  Simulated statistics are outputs to check, never
metrics: they must repeat exactly for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

#: The seed whose outputs are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: The paper's Table 1 machine and the wide-window (MEEK-style) shape.
TABLE1 = {"window_size": 128, "wrong_path_depth": 64}
BIG_CORE = {"window_size": 1024, "wrong_path_depth": 512}
FAULT_RATE = 1e-4


def digest(value: Any) -> str:
    data = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Unit:
    """What one unit of a workload did."""

    wall: float
    ops: int  #: trace ops simulated, each core run counting its trace once
    point_walls: list[float]  #: per experiment point (unchecked + checked run)
    #: (start, end) clock readings of the phase that ran the points
    point_phase: tuple[float, float]
    trials: int  #: checked single-fault trials (campaign) or checked core runs
    #: (start, end) of the phase that ran the trials; None where the
    #: trials are the checked core runs themselves
    trial_phase: tuple[float, float] | None
    items: int  #: work items attempted: core runs, sweep/campaign points, shards
    failed: int  #: work items that failed (error rows, shard retries/fallbacks)
    digest: str
    problems: list[str] = field(default_factory=list)
    #: Workload outputs the per-layer report reads.
    info: dict[str, Any] = field(default_factory=dict)


def _check_core_pair(stats: dict[str, Any], ops: int, problems: list[str], tag: str) -> None:
    """Both modes commit the whole trace; transient faults all resolve."""
    for mode in ("unchecked", "checked"):
        if stats[mode]["committed"] != ops:
            problems.append(f"{tag}: {mode} committed {stats[mode]['committed']} of {ops}")
    checked = stats["checked"]
    resolved = checked["faults_detected"] + checked["faults_squashed"]
    if resolved != checked["faults_injected"]:
        problems.append(
            f"{tag}: {checked['faults_injected']} faults injected, {resolved} detected or squashed"
        )


class CoreRuns:
    """One unchecked and one checked core run over each of a few traces.

    ``traces`` > 1 splits the ops over traces from consecutive sub-seeds
    (``seed * traces + i``): each seed draws a different synthetic program,
    and several programs per unit keep one program's cost from setting
    the whole run's.
    """

    workers = 1

    def __init__(self, name: str, ops: int, preset: str, shape: dict[str, int], traces=1,
                 memdep=False, dcache_banks=1, store_alias_fraction=0.0,
                 reference: str | None = None):
        self.name = name
        self.ops = ops
        self.preset = preset
        self.shape = shape
        self.traces = traces
        self.memdep = memdep
        self.dcache_banks = dcache_banks
        self.store_alias_fraction = store_alias_fraction
        #: Entry of benchmarks/baseline_prerefactor.json with this exact shape.
        self.reference = reference

    def setup(self, seed: int) -> dict[str, Any]:
        from repro import workloads

        profile = workloads.PRESETS[self.preset]
        if self.store_alias_fraction:
            profile = replace(profile, store_alias_fraction=self.store_alias_fraction)
        seeds = [seed * self.traces + i for i in range(self.traces)]
        state: dict[str, Any] = {
            "profile": profile,
            "seeds": seeds,
            "traces": [
                workloads.generate(profile, self.ops // self.traces, seed=sub) for sub in seeds
            ],
        }
        state["cores"] = self._cores(state)
        return state

    def _cores(self, state: dict[str, Any], rec=None, patches=None) -> list[dict[str, Any]]:
        """Fresh cores per trace and mode; traced passes get instance-wrapped inputs."""
        from repro import workloads
        from repro.core.core import SuperscalarCore
        from repro.core.params import CheckerParams, CoreParams, MemDepParams
        from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

        cores = []
        for sub in state["seeds"]:
            modes = {}
            for mode, checker in (
                ("unchecked", CheckerParams(enabled=False)),
                ("checked", CheckerParams(enabled=True, fault_rate=FAULT_RATE, fault_seed=sub + 1)),
            ):
                params = CoreParams(
                    checker=checker, memdep=MemDepParams(enabled=self.memdep), **self.shape
                )
                hierarchy = MemoryHierarchy(HierarchyParams(dcache_banks=self.dcache_banks))
                source = workloads.WrongPathGenerator(state["profile"], seed=sub).iter_stream
                if rec is not None:
                    from spans import memory_wrappers, wrong_path_wrapper

                    memory_wrappers(patches, rec, hierarchy)
                    source = wrong_path_wrapper(rec, source)
                modes[mode] = SuperscalarCore(params, hierarchy=hierarchy, wrong_path_source=source)
            cores.append(modes)
        return cores

    def unit(self, state: dict[str, Any], workers: int = 1, rec=None, patches=None) -> Unit:
        cores = self._cores(state, rec, patches) if rec is not None else state["cores"]
        outputs, point_walls, problems = [], [], []
        started = time.perf_counter()
        for trace, modes in zip(state["traces"], cores):
            point_started = time.perf_counter()
            stats = {mode: modes[mode].run(trace) for mode in ("unchecked", "checked")}
            point_walls.append(time.perf_counter() - point_started)
            outputs.append({mode: s.to_dict() for mode, s in stats.items()})
            _check_core_pair(outputs[-1], len(trace), problems, self.name)
        done = time.perf_counter()
        ipc_u = statistics.fmean(out["unchecked"]["ipc"] for out in outputs)
        ipc_c = statistics.fmean(out["checked"]["ipc"] for out in outputs)
        return Unit(
            wall=done - started,
            ops=2 * sum(len(trace) for trace in state["traces"]),
            point_walls=point_walls,
            point_phase=(started, done),
            trials=len(outputs),
            trial_phase=None,
            items=2 * len(outputs),
            failed=0,
            digest=digest(outputs[0] if len(outputs) == 1 else outputs),
            problems=problems,
            info={
                "outputs": outputs,
                "ipc_checked": ipc_c,
                "slowdown": ipc_u / ipc_c if ipc_c else 0.0,
            },
        )

    def check_reference(self, unit: Unit, root: Path) -> list[str]:
        """At the default seed, equal stats to the pre-refactor reference."""
        if self.reference is None:
            return []
        path = root / "benchmarks" / "baseline_prerefactor.json"
        if not path.exists():
            return [f"{self.name}: reference file {path.name} is missing"]
        entry = json.loads(path.read_text(encoding="utf-8"))["configs"][self.reference]
        return [
            f"{self.name}: {mode} stats differ from the {self.reference!r} reference"
            for mode in ("unchecked", "checked")
            if unit.info["outputs"][0][mode] != entry[mode]["stats"]
        ]


#: The examples/paper_table.toml grid, with its seeds taken from the
#: benchmark seed (seed 0 gives exactly the example's grid).
SWEEP_GRID = {
    "name": "paper-table",
    "ops": 4000,
    "presets": ["branchy", "fp-heavy", "int-heavy", "memory-bound"],
    "fault_rates": [1e-4, 1e-3],
}
#: The examples/campaign_smoke.toml cells with more trials per cell.
CAMPAIGN = {
    "name": "campaign-smoke",
    "presets": ["int-heavy"],
    "fault_models": ["address", "checker"],
    "trials": 48,
    "ops": 1500,
}
#: sha256 of the paper_table sweep store: the contract every PR keeps.
PAPER_TABLE_STORE_SHA = "0854b5eadc6e19cf3328ff53f995b560bd8da695e0468b7fda1a06814471dc30"


class Study:
    """A sweep into a fresh store, then a campaign, each on a process pool."""

    name = "study"
    workers = 2

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int) -> dict[str, Any]:
        from repro.experiments import campaign, spec

        sweep = spec.SweepSpec.from_dict(dict(SWEEP_GRID, seeds=[seed, seed + 1, seed + 2]))
        points = sweep.points()  # expand and validate the grid
        return {
            "seed": seed,
            "sweep": sweep,
            "points": len(points),
            "campaign": campaign.CampaignSpec.from_dict(dict(CAMPAIGN, seed=seed)),
            "count": 0,
        }

    def unit(self, state: dict[str, Any], workers: int = 2, rec=None, patches=None) -> Unit:
        from repro.experiments import campaign, report, runner, store

        state["count"] += 1
        directory = self.scratch / f"study-{state['count']}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        point_walls: list[float] = []

        def progress(done: int, total: int, row: dict[str, Any]) -> None:
            point_walls.append(row["_elapsed_s"])

        try:
            started = time.perf_counter()
            sweep_store = store.ResultsStore(directory / "sweep.jsonl")
            summary = runner.run_sweep(state["sweep"], sweep_store, workers=workers,
                                       progress=progress)
            sweep_done = time.perf_counter()
            rows = sweep_store.rows()
            aggregated = report.aggregate(rows)
            campaign_started = time.perf_counter()
            campaign_store = store.ResultsStore(directory / "campaign.jsonl")
            csummary = campaign.run_campaign(state["campaign"], campaign_store, workers=workers)
            campaign_done = time.perf_counter()
            cagg = campaign.aggregate_campaign(state["campaign"], campaign_store)
            wall = time.perf_counter() - started
            sweep_bytes = (directory / "sweep.jsonl").read_bytes()
            campaign_bytes = (directory / "campaign.jsonl").read_bytes()
            crows = campaign_store.rows()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        cagg.pop("source")
        problems = self._check(state, rows, crows, summary, csummary)
        spec = state["campaign"]
        trial_rows = [r for r in crows if r["config"].get("kind") == "trial"]
        ok_rows = [r for r in rows if r.get("status") == "ok"]
        ops = sum(2 * r["config"]["ops"] for r in rows) + sum(r["config"]["ops"] for r in crows)
        return Unit(
            wall=wall,
            ops=ops,
            point_walls=point_walls,
            point_phase=(started, sweep_done),
            trials=csummary.trials_executed,
            trial_phase=(campaign_started, campaign_done),
            items=len(rows) + len(crows),
            failed=summary.errors + csummary.errors,
            digest=digest(
                {
                    "sweep_store": digest(sweep_bytes),
                    "campaign_store": digest(campaign_bytes),
                    "report": aggregated,
                    "campaign_report": cagg,
                }
            ),
            problems=problems,
            info={
                "sweep_store_sha": digest(sweep_bytes),
                "ipc_checked": statistics.fmean(r["result"]["checked"]["ipc"] for r in ok_rows)
                if ok_rows else 0.0,
                "slowdown": statistics.fmean(r["result"]["slowdown"] for r in ok_rows)
                if ok_rows else 0.0,
                "trial_cycles_mean": statistics.fmean(r["result"]["cycles"] for r in trial_rows)
                if trial_rows else 0.0,
                "duplicate_baselines": _duplicate_baselines(ok_rows),
                "injected": sum(r["result"]["checked"]["faults_injected"] for r in ok_rows)
                + sum(r["result"]["injected"] for r in trial_rows),
                "trials_per_cell": spec.trials,
            },
        )

    def _check(self, state, rows, crows, summary, csummary) -> list[str]:
        problems: list[str] = []
        if len(rows) != state["points"]:
            problems.append(f"study: sweep stored {len(rows)} of {state['points']} points")
        for row in rows:
            if row.get("status") != "ok":
                problems.append(f"study: sweep point {row.get('config_hash')} errored")
                continue
            _check_core_pair(row["result"], row["config"]["ops"], problems, "study sweep point")
        spec = state["campaign"]
        expected = len(spec.cells()) * (1 + spec.trials)
        if len(crows) != expected:
            problems.append(f"study: campaign stored {len(crows)} of {expected} points")
        for row in crows:
            if row.get("status") != "ok":
                problems.append(f"study: campaign point {row.get('config_hash')} errored")
                continue
            result = row["result"]
            if row["config"]["kind"] == "trial" and sum(result["outcomes"].values()) != result["injected"]:
                problems.append(
                    f"study: trial outcomes {result['outcomes']} do not sum to "
                    f"{result['injected']} injected"
                )
        if summary.errors or csummary.errors:
            problems.append(f"study: {summary.errors + csummary.errors} error rows")
        return problems

    def check_reference(self, unit: Unit, root: Path) -> list[str]:
        sha = unit.info["sweep_store_sha"]
        if sha != PAPER_TABLE_STORE_SHA:
            return [f"study: paper_table sweep store sha {sha[:8]}… is not 0854b5ea…"]
        return []


def _duplicate_baselines(rows: list[dict[str, Any]]) -> int:
    """Sweep points whose unchecked run repeats another point's exactly:
    same checker-free config, identical unchecked stats."""
    seen: set[str] = set()
    duplicates = 0
    for row in rows:
        config = {k: v for k, v in row["config"].items() if k != "fault_rate"}
        key = digest([config, row["result"]["unchecked"]])
        duplicates += key in seen
        seen.add(key)
    return duplicates


class Sharded:
    """The big-core shape time-sharded across a process pool."""

    name = "sharded-bigcore"
    workers = 2
    ops = 100_000
    shards = 2
    warmup = 5_000

    def setup(self, seed: int) -> dict[str, Any]:
        from repro import parallel, workloads
        from repro.core.params import CoreParams

        parallel.plan_shards(self.ops, self.shards, self.warmup)
        return {
            "seed": seed,
            "profile": workloads.PRESETS["branchy"],
            "params": CoreParams(**BIG_CORE),
        }

    def unit(self, state: dict[str, Any], workers: int = 2, rec=None, patches=None) -> Unit:
        from repro import parallel

        started = time.perf_counter()
        result = parallel.run_sharded_experiment(
            state["profile"],
            num_ops=self.ops,
            seed=state["seed"],
            shards=self.shards,
            warmup=self.warmup,
            check=True,
            # Fault-free: with transient faults, a fault injected in a
            # shard's warmup but detected after its measurement boundary is
            # counted as detected and not as injected (seed 9: 8 of 7).
            fault_rate=0.0,
            wrong_path_depth=BIG_CORE["wrong_path_depth"],
            params=state["params"],
            workers=workers,
        )
        done = time.perf_counter()
        sharding = result.pop("sharding")
        problems: list[str] = []
        width = state["params"].commit_width
        for mode in ("unchecked", "checked"):
            committed = result[mode]["committed"]
            # Each shard boundary may overshoot by up to one commit group.
            if abs(committed - self.ops) > self.shards * width:
                problems.append(f"{self.name}: {mode} committed {committed} of {self.ops}")
        checked = result["checked"]
        if checked["faults_detected"] + checked["faults_squashed"] != checked["faults_injected"]:
            problems.append(f"{self.name}: a transient fault was neither detected nor squashed")
        retries = sharding["retries"] + sharding["fallbacks"]
        if retries:
            problems.append(f"{self.name}: {sharding['retries']} shard retries, "
                            f"{sharding['fallbacks']} fallbacks")
        ipc_c = result["checked"]["ipc"]
        return Unit(
            wall=done - started,
            ops=2 * self.ops,
            point_walls=[done - started],
            point_phase=(started, done),
            trials=1,
            trial_phase=(started, done),
            items=self.shards,
            failed=retries,
            digest=digest(result),
            problems=problems,
            info={
                "sharding": sharding,
                "ipc_checked": ipc_c,
                "slowdown": result["slowdown"] or 0.0,
                "injected": checked["faults_injected"],
                "simulated_ops": sum(w["warmup"] + w["length"] for w in sharding["windows"]),
            },
        )

    def check_reference(self, unit: Unit, root: Path) -> list[str]:
        return []


def workloads(scratch: Path) -> dict[str, Any]:
    return {
        "kernel-branchy": CoreRuns("kernel-branchy", 100_000, "branchy", TABLE1,
                                   reference="table1"),
        "mem-replay": CoreRuns("mem-replay", 30_000, "memory-bound", TABLE1, traces=6,
                               memdep=True, dcache_banks=4, store_alias_fraction=0.25),
        "study": Study(scratch),
        "sharded-bigcore": Sharded(),
    }
