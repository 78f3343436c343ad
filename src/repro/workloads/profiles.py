"""Workload profiles: the knobs the paper's benchmark selection controlled.

A :class:`WorkloadProfile` pins down the op-class mix, the amount of
instruction-level parallelism (via dependency density), the data-cache
behaviour (hot-set size and cold-miss fraction), and the branch behaviour
(frequency implied by the mix, taken rate, misprediction rate).  The
bundled presets span the paper's four qualitative regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.isa.opcodes import OpClass


@dataclass(slots=True, frozen=True)
class WorkloadProfile:
    """Parameters of one synthetic workload.

    Attributes:
        name: Preset label (also used by the CLI).
        mix: Relative weights per op class; normalised at generation time.
        dep_fraction: Probability each source operand reads one of the last
            ``dep_window`` destinations instead of the always-ready zero
            register — higher means longer dependence chains, lower ILP.
        dep_window: How far back a dependent source may reach.
        mispredict_rate: Probability a branch carries the trace-supplied
            ``mispredicted`` flag (synthetic-outcome front-end mode).
        taken_rate: Probability a static branch is loop-like (taken except
            on its periodic exit) rather than skip-like; sets the aggregate
            taken fraction.
        outcome_noise: Probability a dynamic branch instance breaks its
            periodic pattern — the irreducible misprediction floor for the
            real-predictor front end.
        cold_fraction: Probability a memory op touches a never-before-seen
            line (compulsory miss) instead of the hot set.
        hot_lines: Number of 64-byte lines in the hot working set; sets the
            capacity-miss behaviour against the 64KB L1 (1024 lines).
        loop_ops: Static code footprint in micro-ops; the trace loops over
            this program, so each branch PC recurs roughly
            ``num_ops / loop_ops`` times — what makes the real-predictor
            front end trainable.
        store_alias_fraction: Probability each static store is paired with
            a later static load on a shared address stream (a stack slot /
            spill-refill idiom).  Paired slots emit the *same* address
            within a loop iteration, so the store and load genuinely alias
            while both are in flight — the traffic that exercises
            memory-dependence speculation.  0 (the default) draws no RNG
            and leaves every address stream exactly as before.
    """

    name: str
    mix: Mapping[OpClass, float]
    dep_fraction: float = 0.4
    dep_window: int = 8
    mispredict_rate: float = 0.05
    taken_rate: float = 0.6
    outcome_noise: float = 0.02
    cold_fraction: float = 0.02
    hot_lines: int = 512
    loop_ops: int = 1024
    store_alias_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError("mix must not be empty")
        if (
            any(not 0 <= weight < math.inf for weight in self.mix.values())
            or not 0 < sum(self.mix.values()) < math.inf
        ):
            raise ValueError(
                "mix weights must be finite and non-negative with a positive, finite sum"
            )
        for name in (
            "dep_fraction",
            "mispredict_rate",
            "taken_rate",
            "outcome_noise",
            "cold_fraction",
            "store_alias_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.dep_window <= 0 or self.hot_lines <= 0 or self.loop_ops <= 0:
            raise ValueError("dep_window, hot_lines, and loop_ops must be positive")


PRESETS: dict[str, WorkloadProfile] = {
    "int-heavy": WorkloadProfile(
        name="int-heavy",
        mix={
            OpClass.IALU: 0.55,
            OpClass.IMUL: 0.08,
            OpClass.IDIV: 0.02,
            OpClass.LOAD: 0.18,
            OpClass.STORE: 0.07,
            OpClass.BRANCH: 0.10,
        },
        dep_fraction=0.45,
        mispredict_rate=0.04,
        cold_fraction=0.01,
        hot_lines=256,
    ),
    "fp-heavy": WorkloadProfile(
        name="fp-heavy",
        mix={
            OpClass.FALU: 0.30,
            OpClass.FMUL: 0.18,
            OpClass.FDIV: 0.04,
            OpClass.IALU: 0.15,
            OpClass.LOAD: 0.20,
            OpClass.STORE: 0.08,
            OpClass.BRANCH: 0.05,
        },
        dep_fraction=0.50,
        mispredict_rate=0.02,
        cold_fraction=0.03,
        hot_lines=1024,
    ),
    "memory-bound": WorkloadProfile(
        name="memory-bound",
        mix={
            OpClass.LOAD: 0.35,
            OpClass.STORE: 0.15,
            OpClass.IALU: 0.32,
            OpClass.IMUL: 0.02,
            OpClass.BRANCH: 0.08,
            OpClass.NOP: 0.08,
        },
        dep_fraction=0.35,
        mispredict_rate=0.05,
        cold_fraction=0.30,
        hot_lines=32768,
    ),
    "branchy": WorkloadProfile(
        name="branchy",
        mix={
            OpClass.BRANCH: 0.25,
            OpClass.IALU: 0.50,
            OpClass.IMUL: 0.05,
            OpClass.LOAD: 0.15,
            OpClass.STORE: 0.05,
        },
        dep_fraction=0.40,
        mispredict_rate=0.12,
        taken_rate=0.55,
        cold_fraction=0.01,
        hot_lines=256,
        loop_ops=256,  # tight loop: each branch recurs often enough to train
    ),
}


#: Preset names in stable (sorted) order — the canonical ordering for CLI
#: choices, sweep-spec validation, and report rows.
PRESET_NAMES: tuple[str, ...] = tuple(sorted(PRESETS))


def preset(name: str) -> WorkloadProfile:
    """Look up a preset by name.

    Raises:
        KeyError: with the list of valid names, for CLI-friendly errors.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
