"""Trace identity: observability must not perturb the simulation.

For every benchmarked machine shape, a run with the tracer attached and
telemetry sampling at an arbitrary interval must produce a ``CoreStats``
identical *field for field* to the uninstrumented run — observability
reads the machine, it never schedules it.
"""

import pytest

from repro.cli import run_experiment
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.core.core import SuperscalarCore
from repro.obs import ObsSession
from repro.obs.telemetry import IntervalTelemetry
from repro.obs.tracer import PipelineTracer
from repro.workloads import PRESETS, generate

#: Miniature versions of the benchmarked shapes (see SHAPES in
#: tests/test_core_cycle_skip.py): the paper's table-1 machine, a big-core
#: window, the memdep shape, and the checkpointing shape.
SHAPES = {
    "table1": dict(window_size=128, wrong_path_depth=64),
    "big-core": dict(window_size=1024, wrong_path_depth=512),
    "memdep": dict(
        window_size=128,
        wrong_path_depth=64,
        memdep=MemDepParams(enabled=True),
    ),
    "checkpoint": dict(
        window_size=128,
        wrong_path_depth=64,
        recovery=RecoveryParams(checkpoint_interval=64),
    ),
}
PRESET_FOR = {"memdep": "memory-bound"}


def _params(shape: str) -> CoreParams:
    return CoreParams(
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=1),
        **SHAPES[shape],
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("interval", [64, 777])
def test_traced_run_stats_identical_to_untraced(shape, interval):
    preset = PRESETS[PRESET_FOR.get(shape, "branchy")]
    trace = generate(preset, 3000, seed=0)
    baseline = SuperscalarCore(_params(shape)).run(trace)
    telemetry = IntervalTelemetry(
        interval, SuperscalarCore(_params(shape), tracer=PipelineTracer("checked"))
    )
    instrumented = telemetry.run(trace)
    assert instrumented.to_dict() == baseline.to_dict()
    assert telemetry.samples


def test_run_experiment_results_identical_with_and_without_obs(tmp_path):
    kwargs = dict(num_ops=2000, seed=0, check=True, fault_rate=1e-3)
    plain = run_experiment(PRESETS["branchy"], **kwargs)
    obs = ObsSession(trace_out=tmp_path / "trace.json", telemetry_interval=256)
    observed = run_experiment(PRESETS["branchy"], obs=obs, **kwargs)
    assert observed["unchecked"] == plain["unchecked"]
    assert observed["checked"] == plain["checked"]
    assert observed["slowdown"] == plain["slowdown"]
    assert observed["fault_coverage"] == plain["fault_coverage"]
    # Observing is no part of the configuration.
    assert observed["params"] == plain["params"]
    # Both cores reported telemetry and got tracers.
    assert [label for label, _ in obs.telemetries] == ["unchecked", "checked"]
    assert len(obs.tracers) == 2
