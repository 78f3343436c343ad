"""Same-host benchmark of the checked-core simulator.

    python3 perfbench/run.py --workload kernel-branchy --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
timed in fresh child processes, then units of the workload repeat for
``--seconds`` and each metric is the median over units.  ``--trace 1`` makes
the separate traced run that reports the per-layer metrics, the tracing
overhead, the isolated layer timings and a cProfile cross-check.  Both
modes check every output: units must repeat exactly, invariants must hold
at any seed, and the default seed's outputs must match ``digests.json``
(and, where a shape matches one, ``benchmarks/baseline_prerefactor.json``).
The last line of standard output is one JSON object; the exit code is 0
only when every check passed.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: Set-up samples per run, each in a fresh interpreter.
SETUP_PROBES = 9
#: Fewest units a timed run makes, however short ``--seconds`` is.
MIN_UNITS = 3


def _load_repro() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.core.core  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return False
    return True


def _metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def _median_iqr(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile range as a share of it."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time in reference seconds over fresh interpreters:
    imports, input generation and construction, as a user pays them per
    invocation."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _ref_factor(records: list[dict], window: tuple[float, float] | None = None) -> float:
    """Reference seconds per host second over the core runs that started
    in ``window`` (all of them if None): how fast the host ran meanwhile."""
    chosen = [r for r in records if window is None or window[0] <= r["start"] < window[1]]
    return sum(r["ref"] for r in chosen) / sum(r["wall"] for r in chosen)


def _mode_ref(records: list[dict], mode: str) -> tuple[int, float]:
    """Trace ops and reference seconds of one mode's core runs."""
    chosen = [r for r in records if r["mode"] == mode]
    return sum(r["ops"] for r in chosen), sum(r["ref"] for r in chosen)


def _unit_samples(unit, runs: list[dict]) -> dict[str, float]:
    """One unit's end-to-end metrics, every time in reference seconds."""
    unit_ref = unit.wall * _ref_factor(runs)
    points_f = _ref_factor(runs, unit.point_phase)
    checked_ops, checked_ref = _mode_ref(runs, "checked")
    unchecked_ops, unchecked_ref = _mode_ref(runs, "unchecked")
    if unit.trial_phase is None:
        trials_ref = checked_ref
    else:
        start, end = unit.trial_phase
        trials_ref = (end - start) * _ref_factor(runs, unit.trial_phase)
    start, end = unit.point_phase
    return {
        "sim_ops_per_s": unit.ops / unit_ref,
        "checked_ops_per_s": checked_ops / checked_ref,
        "unchecked_ops_per_s": unchecked_ops / unchecked_ref,
        "points_per_s": len(unit.point_walls) / ((end - start) * points_f),
        "trials_per_s": unit.trials / trials_ref,
        "point_p50_s": statistics.median(unit.point_walls) * points_f,
    }


class Checks:
    """Output checks; every failure counts against ``attempted``."""

    def __init__(self, name: str, workload, seed: int):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_units(self, units) -> None:
        for unit in units:
            self.attempted += unit.items
            self.failed += unit.failed
            self.fail(unit.problems)
        if len({unit.digest for unit in units}) > 1:
            self.fail([f"{self.name}: outputs differ between units of one seed"])

    def fail(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.problems.extend(problems)

    def default_seed(self, unit) -> None:
        """Compare default-seed outputs with the recorded digests."""
        from shapes import DEFAULT_SEED

        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if recorded["seed"] != DEFAULT_SEED or unit.digest != recorded["workloads"].get(self.name):
            self.fail([f"{self.name}: default-seed outputs differ from digests.json"])
        self.fail(self.workload.check_reference(unit, ROOT))

    def finish(self, units) -> None:
        """Digest-check the default seed, running it if this run used another."""
        from shapes import DEFAULT_SEED

        if self.seed == DEFAULT_SEED:
            self.default_seed(units[0])
            return
        gc.collect()  # the run's own garbage must not lift the peak RSS
        state = self.workload.setup(DEFAULT_SEED)
        unit = self.workload.unit(state, self.workload.workers)
        self.add_units([unit])
        self.default_seed(unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def report(self) -> list[str]:
        lines = [f"  {p}" for p in self.problems]
        rate = self.failed / self.attempted if self.attempted else 1.0
        lines.append(f"error_rate {rate:.6g} ratio ({self.failed} failed of "
                     f"{self.attempted} attempted)")
        return lines


def timed_run(name: str, workload, seed: int, seconds: float) -> tuple[dict, Checks]:
    from spans import RunLog

    checks = Checks(name, workload, seed)
    setup_s = _setup_seconds(name, seed)
    state = workload.setup(seed)
    log = RunLog(SCRATCH / f"runlog-{os.getpid()}", reference=True).install()
    units, runs = [], []
    started = time.perf_counter()
    try:
        # Start a unit only if it should end within the budget.
        while len(units) < MIN_UNITS or (
            time.perf_counter() - started + statistics.median(u.wall for u in units) <= seconds
        ):
            gc.collect()  # every unit starts from the same heap
            units.append(workload.unit(state, workload.workers))
            runs.append(log.take())
    finally:
        log.restore()
        shutil.rmtree(log.directory, ignore_errors=True)
    del state
    checks.add_units(units)
    checks.finish(units)
    per_unit = [_unit_samples(unit, unit_runs) for unit, unit_runs in zip(units, runs)]
    metrics = {key: _median_iqr([s[key] for s in per_unit]) for key in per_unit[0]}
    metrics["setup_s"] = (setup_s, 0.0)
    metrics["peak_rss_mb"] = (_peak_rss_mb(), 0.0)
    speeds = [_ref_factor(unit_runs) for unit_runs in runs]
    print(f"{name}: seed {seed}, {len(units)} units in "
          f"{time.perf_counter() - started:.1f} s (unit walls "
          f"{' '.join(f'{u.wall:.3f}' for u in units)} host s; reference s per host s "
          f"{' '.join(f'{f:.3f}' for f in speeds)}), set-up median of {SETUP_PROBES} probes")
    print(f"host-time sim_ops_per_s {statistics.median(u.ops / u.wall for u in units):.6g} ops/s "
          f"(not a metric: moves with the host's load)")
    return metrics, checks


def traced_run(name: str, workload, seed: int, seconds: float) -> tuple[dict, Checks]:
    import cProfile

    import layers
    import micro
    from shapes import CoreRuns
    from spans import RunLog, SpanRecorder, install_tracing

    checks = Checks(name, workload, seed)
    state = workload.setup(seed)
    log = RunLog(SCRATCH / f"runlog-{os.getpid()}").install()
    try:
        pool_unit = workload.unit(state, workload.workers)
        pool_runs = log.take()
        if workload.workers > 1:
            base_unit = workload.unit(state, 1)
            base_runs = log.take()
        else:
            base_unit, base_runs = pool_unit, pool_runs
    finally:
        log.restore()
        shutil.rmtree(log.directory, ignore_errors=True)
    units = [pool_unit, base_unit]
    base_walls = [base_unit.wall]
    traced_walls: list[float] = []
    started = time.perf_counter()
    while not traced_walls or (
        time.perf_counter() - started + base_walls[-1] + traced_walls[-1] <= seconds
    ):
        if traced_walls:
            units.append(workload.unit(state, 1))
            base_walls.append(units[-1].wall)
        rec = SpanRecorder()
        patches = install_tracing(rec, class_level_inputs=not isinstance(workload, CoreRuns))
        try:
            sid = rec.open(rec.name_id("bench.setup"))
            traced_state = workload.setup(seed)
            rec.close(sid)
            sid = rec.open(rec.name_id("bench.unit"))
            traced_unit = workload.unit(traced_state, 1, rec, patches)
            rec.close(sid)
        finally:
            patches.restore()
        del traced_state
        units.append(traced_unit)
        traced_walls.append(traced_unit.wall)
    overhead = statistics.median(traced_walls) / statistics.median(base_walls) - 1.0

    selfs, nesting = layers.self_times(rec)
    checks.fail([f"{name}: {p}" for p in nesting])
    summary = layers.span_summary(rec, selfs)
    rec.write(SCRATCH / "spans" / f"{name}-seed{seed}")

    profiler = cProfile.Profile()
    profiler.enable()
    units.append(workload.unit(state, 1))
    profiler.disable()

    micro_ns = {
        "wheel": micro.wheel_ns_per_event(seed),
        "readyq": micro.readyq_ns_per_op(seed),
        "access": micro.access_ns_isolated(
            rec.access_stream, getattr(workload, "dcache_banks", 1)
        ),
    }
    del state
    checks.add_units(units)
    checks.finish(units)
    metrics = layers.per_layer(workload, rec, summary, base_runs, pool_unit, pool_runs,
                               traced_unit, overhead, micro_ns)
    print(f"{name}: seed {seed}, {len(rec)} spans over {len(traced_walls)} traced unit(s); "
          f"traced self time vs cProfile own time by layer:")
    print(layers.cross_check_table(layers.layer_self(summary), layers.profile_by_layer(profiler)))
    return {key: (value, None) for key, value in metrics.items()}, checks


def record_digests() -> None:
    """Pin the default seed's outputs (after an intended model change)."""
    from shapes import DEFAULT_SEED, workloads

    recorded = {}
    for name, workload in workloads(SCRATCH).items():
        recorded[name] = workload.unit(workload.setup(DEFAULT_SEED), workload.workers).digest
        print(f"{name}: {recorded[name]}")
    DIGESTS.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=2) + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)

    if args.setup_probe:
        from refclock import Sampler

        # One CPU for the whole probe: migrations made set-up bimodal.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sampler = Sampler()
        sampler.start()
    if not _load_repro():
        return 2
    from shapes import workloads

    registry = workloads(SCRATCH)
    if args.setup_probe:
        registry[args.workload].setup(args.seed)
        print(sampler.stop()[1])
        return 0
    if args.record_digests:
        record_digests()
        return 0
    if args.workload not in registry:
        parser.error(f"--workload must be one of {sorted(registry)}")
    # Pool workers must be forked so they inherit the core-run log.
    if multiprocessing.get_start_method() != "fork":
        multiprocessing.set_start_method("fork", force=True)

    units = _metric_units()["per_layer" if args.trace else "end_to_end"]
    run = traced_run if args.trace else timed_run
    try:
        measured, checks = run(args.workload, registry[args.workload], args.seed, args.seconds)
    except Exception:
        # A crashed unit is a failed unit; there is nothing left to measure.
        traceback.print_exc()
        print("error_rate 1 ratio (the run raised)")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if set(measured) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(measured) ^ set(units))} "
                         f"disagree with BENCHMARK.json")
    for key in units:
        value, spread = measured[key]
        note = "" if spread is None else f"  (IQR {spread:.1%} of median)" if spread else ""
        print(f"{key} {value:.6g} {units[key]}{note}")
    for line in checks.report():
        print(line)
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": measured[key][0], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
