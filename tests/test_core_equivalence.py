"""Golden equivalence: the event-driven kernel reproduces the scan core.

``tests/golden/corestats_golden.json`` pins the complete ``CoreStats``
dictionaries (unchecked and checked, plus slowdown and coverage) that the
*pre-kernel* window-rescan core produced at commit fe5791d for every
preset x seed x slot-policy cell.  The kernel refactor claims to be a pure
restructuring of the per-cycle scans; these tests hold it to that claim
counter by counter — commit cycles, IPC, fault detection and latency,
slot accounting, wrong-path volume, and the memory-system snapshot.

``benchmarks/baseline_prerefactor.json`` pins the same claim at full
length: each entry's stats on 20k-100k-op branchy traces, captured on the
scan core (``table1``, ``big-core``, ``ci-smoke``) or on the event kernel
(``checkpoint``), plus a throughput floor the checked core must clear.
"""

import functools
import json
import time
from pathlib import Path

import pytest

from repro.cli import run_experiment
from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams, RecoveryParams
from repro.core.stats import CoreStats
from repro.workloads import PRESETS, WrongPathGenerator, generate

GOLDEN_PATH = Path(__file__).parent / "golden" / "corestats_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Fixture shape: 4 presets x 3 seeds x 2 slot policies.
assert len(GOLDEN) == 24


def _case_id(row: dict) -> str:
    return f"{row['preset']}-s{row['seed']}-{row['slot_policy']}"


@pytest.mark.parametrize("row", GOLDEN, ids=_case_id)
def test_kernel_core_matches_pinned_prerefactor_stats(row):
    params = CoreParams(
        checker=CheckerParams(slot_policy=row["slot_policy"], reserved_slots=2)
    )
    result = run_experiment(
        PRESETS[row["preset"]],
        num_ops=3000,
        seed=row["seed"],
        check=True,
        fault_rate=1e-3,
        params=params,
    )
    assert result["unchecked"] == row["unchecked"]
    assert result["checked"] == row["checked"]
    assert result["slowdown"] == row["slowdown"]
    assert result["fault_coverage"] == row["fault_coverage"]


def test_golden_fixture_covers_every_preset_seed_and_policy():
    cells = {(row["preset"], row["seed"], row["slot_policy"]) for row in GOLDEN}
    assert cells == {
        (preset, seed, policy)
        for preset in PRESETS
        for seed in (0, 1, 2)
        for policy in ("opportunistic", "reserved")
    }


# ------------------------------------------------- committed bench entries

BASELINE_PATH = Path(__file__).parents[1] / "benchmarks" / "baseline_prerefactor.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
ENTRIES = BASELINE["configs"]


def _timed_run(name: str, mode: str) -> tuple[float, CoreStats]:
    """One run of a committed entry's machine in ``mode``: (wall, stats).

    The checked core runs at the file's fault rate with fault seed
    ``seed + 1``, on the default memory hierarchy.  Only ``run`` is timed.
    """
    entry = ENTRIES[name]
    seed = BASELINE["seed"]
    profile = PRESETS[BASELINE["preset"]]
    checker = (
        CheckerParams(enabled=True, fault_rate=BASELINE["fault_rate"], fault_seed=seed + 1)
        if mode == "checked"
        else CheckerParams(enabled=False)
    )
    core = SuperscalarCore(
        CoreParams(
            window_size=entry["window_size"],
            wrong_path_depth=entry["wrong_path_depth"],
            checker=checker,
            recovery=RecoveryParams(
                checkpoint_interval=entry.get("checkpoint_interval", 0),
                checkpoint_overhead=entry.get("checkpoint_overhead", 1),
            ),
        ),
        wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream,
    )
    trace = generate(profile, entry["ops"], seed=seed)
    started = time.perf_counter()
    stats = core.run(trace)
    return time.perf_counter() - started, stats


@pytest.fixture(scope="module")
def first_run():
    """Each (entry, mode)'s first run, made once: the identity gate checks
    its stats and the throughput floor counts it as one of its two runs."""
    return functools.cache(_timed_run)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_kernel_core_matches_the_committed_bench_stats(name, first_run):
    for mode in ("unchecked", "checked"):
        _, stats = first_run(name, mode)
        assert stats.to_dict() == ENTRIES[name][mode]["stats"], mode


@pytest.mark.parametrize("name", ["checkpoint", "ci-smoke"])
def test_checked_core_clears_the_committed_throughput_floor(name, first_run):
    """Deliberately loose, as hosts differ, yet above the scan core: its
    three window rescans put back into every simulated cycle trip it on
    ``ci-smoke``'s 1,024-entry window."""
    wall = min(first_run(name, "checked")[0], _timed_run(name, "checked")[0])
    ops_per_sec = ENTRIES[name]["ops"] / wall
    assert ops_per_sec >= BASELINE["ci_floor_ops_per_sec"]
