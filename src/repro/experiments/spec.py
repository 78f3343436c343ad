"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes the paper's evaluation varies —
workload preset, seed, fault rate, issue width, functional-unit
complement, checker slot policy, wrong-path knobs — and expands to the
cartesian product of concrete :class:`RunPoint`\\ s.  Specs load from TOML
(Python 3.11's ``tomllib``) or JSON; both accept either a top-level
``[sweep]`` table or a flat document.

Every point serializes to a canonical JSON config whose SHA-256 prefix is
the point's identity in the results store: the same spec always hashes to
the same points, which is what makes sweeps resumable and cacheable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Self

from repro.core.params import CoreParams
from repro.isa.opcodes import FUClass
from repro.memory.hierarchy import HierarchyParams
from repro.workloads import PRESET_NAMES, PRESETS

#: Version stamp written into every config and results row; bump on any
#: incompatible change to the config or row layout.
SCHEMA_VERSION = 1

#: Valid FU-count keys in a spec's ``fu_variants`` tables.
_FU_NAMES = tuple(cls.name for cls in FUClass)

#: The ``CoreParams`` default depth: what a run uses unless told
#: otherwise, and the canonical depth written into configs of
#: wrong_path=False points, where the knob is inert (a valid, positive
#: depth, so the config still round-trips through validation).
DEFAULT_WRONG_PATH_DEPTH = CoreParams().wrong_path_depth


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable 64-bit-ish identity of one canonical config dict."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def run_params(
    base: CoreParams | None,
    seed: int,
    checked: bool,
    fault_rate: float = 0.0,
    fault_seed: int | None = None,
    real_predictor: bool = False,
    wrong_path: bool = True,
    wrong_path_depth: int = DEFAULT_WRONG_PATH_DEPTH,
) -> CoreParams:
    """The params of one core of a run at ``seed``: ``base`` (Table 1 when
    None) with the run-level knobs layered on.

    The run-level knobs are the predictor mode, the wrong-path knobs and
    seed, and the checker's enable, fault rate and fault seed (``seed + 1``
    unless given).  An unchecked core keeps the base checker disabled at
    rate 0.  Every caller that builds a core for an experiment point goes
    through here: single runs, sweep points, shards and campaign trials.
    """
    base = base if base is not None else CoreParams()
    if checked:
        checker = replace(
            base.checker,
            enabled=True,
            fault_rate=fault_rate,
            fault_seed=seed + 1 if fault_seed is None else fault_seed,
        )
    else:
        checker = replace(base.checker, enabled=False, fault_rate=0.0)
    return replace(
        base,
        use_real_predictor=real_predictor,
        model_wrong_path=wrong_path,
        wrong_path_depth=wrong_path_depth,
        wrong_path_seed=seed,
        checker=checker,
    )


class SpecLoader:
    """``from_dict`` and ``load`` for a spec dataclass.

    A document is a ``.toml`` or ``.json`` file holding either a top-level
    table named after the spec kind (``_kind``) or a flat document; unknown
    keys are rejected by name.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Self:
        """Build a spec from a parsed document; rejects unknown keys."""
        if cls._kind in data and isinstance(data[cls._kind], Mapping):
            data = data[cls._kind]
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls._kind} keys: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def load(cls, path: str | Path) -> Self:
        """Load a ``.toml`` or ``.json`` spec file."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            with path.open("rb") as fh:
                document = tomllib.load(fh)
        elif path.suffix.lower() == ".json":
            document = json.loads(path.read_text(encoding="utf-8"))
        else:
            raise ValueError(f"unsupported spec format {path.suffix!r} (use .toml or .json)")
        if not isinstance(document, Mapping):
            raise ValueError(f"{cls._kind} spec must be a table/object at top level")
        return cls.from_dict(document)


@dataclass(slots=True, frozen=True)
class RunPoint:
    """One fully-specified experiment: a cell of the sweep grid.

    ``fu_counts`` is either ``None`` (the Table 1 complement) or a sorted
    tuple of ``(FU class name, count)`` pairs — a hashable canonical form
    so identical variants written in different key orders collapse to the
    same config hash.
    """

    preset: str
    seed: int
    ops: int
    fault_rate: float
    issue_width: int
    slot_policy: str
    reserved_slots: int
    wrong_path: bool
    wrong_path_depth: int
    real_predictor: bool
    fu_counts: tuple[tuple[str, int], ...] | None
    memdep: bool = False
    dcache_banks: int = 1
    store_alias_fraction: float = 0.0
    #: Verified-state checkpointing (0 = off, the legacy flat-penalty
    #: recovery); the overhead knob only matters while the interval is on.
    checkpoint_interval: int = 0
    checkpoint_overhead: int = 1
    #: Which fault model the checked core injects with (one of
    #: ``repro.faults.FAULT_MODELS``; ``transient`` is the legacy default).
    fault_model: str = "transient"

    def config(self) -> dict[str, Any]:
        """The canonical, JSON-serializable identity of this point.

        Inert knobs are normalized before hashing so behaviorally
        identical points share a cache identity: ``reserved_slots`` only
        exists under the ``reserved`` policy, and ``wrong_path_depth``
        only matters when wrong-path modelling is on.  Without this,
        editing an ignored spec field would invalidate every stored row.
        The memory-dependence keys appear only at non-default values for
        the same reason: every pre-existing stored row keeps its hash.
        """
        config = {
            "schema": SCHEMA_VERSION,
            "preset": self.preset,
            "seed": self.seed,
            "ops": self.ops,
            "fault_rate": self.fault_rate,
            "issue_width": self.issue_width,
            "slot_policy": self.slot_policy,
            "reserved_slots": self.reserved_slots if self.slot_policy == "reserved" else 0,
            "wrong_path": self.wrong_path,
            "wrong_path_depth": (
                self.wrong_path_depth if self.wrong_path else DEFAULT_WRONG_PATH_DEPTH
            ),
            "real_predictor": self.real_predictor,
            "fu_counts": dict(self.fu_counts) if self.fu_counts is not None else None,
        }
        if self.memdep:
            config["memdep"] = True
        if self.dcache_banks != 1:
            config["dcache_banks"] = self.dcache_banks
        if self.store_alias_fraction:
            config["store_alias_fraction"] = self.store_alias_fraction
        if self.checkpoint_interval:
            config["checkpoint_interval"] = self.checkpoint_interval
            config["checkpoint_overhead"] = self.checkpoint_overhead
        if self.fault_model != "transient":
            config["fault_model"] = self.fault_model
        return config

    def config_hash(self) -> str:
        return config_hash(self.config())

    def group_config(self) -> dict[str, Any]:
        """The config with the seed removed — the cross-seed aggregation key."""
        config = self.config()
        del config["seed"]
        return config

    def group_hash(self) -> str:
        return config_hash(self.group_config())

    def core_params(self) -> CoreParams:
        """Build the machine shape this point simulates.

        Run-level knobs (predictor mode, wrong-path modelling, checker
        enable/fault seed) are layered on by :func:`run_params`; this
        carries only what the grid varies.
        """
        data: dict[str, Any] = {
            "issue_width": self.issue_width,
            "checker": {
                "slot_policy": self.slot_policy,
                "reserved_slots": self.reserved_slots,
            },
        }
        if self.fault_model != "transient":
            data["checker"]["fault_model"] = self.fault_model
        if self.fu_counts is not None:
            data["fu_counts"] = dict(self.fu_counts)
        if self.memdep:
            data["memdep"] = {"enabled": True}
        if self.checkpoint_interval:
            data["recovery"] = {
                "checkpoint_interval": self.checkpoint_interval,
                "checkpoint_overhead": self.checkpoint_overhead,
            }
        return CoreParams.from_dict(data)

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "RunPoint":
        """Rebuild a point from a stored config dict.

        Raises:
            ValueError: if the schema version or any field is unusable —
                the runner turns this into an error row rather than a
                crashed worker.
        """
        data = dict(config)
        schema = data.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {schema!r}")
        # Memory-dependence keys are emitted only at non-default values
        # (see config()); stored rows that predate them load unchanged.
        data.setdefault("memdep", False)
        data.setdefault("dcache_banks", 1)
        data.setdefault("store_alias_fraction", 0.0)
        data.setdefault("checkpoint_interval", 0)
        data.setdefault("checkpoint_overhead", 1)
        data.setdefault("fault_model", "transient")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        fu_counts = data["fu_counts"]
        data["fu_counts"] = _normalize_fu_variant(fu_counts) if fu_counts is not None else None
        point = cls(**data)
        _validate_point(point)
        return point


def _normalize_fu_variant(variant: Mapping[str, Any]) -> tuple[tuple[str, int], ...]:
    unknown = set(variant) - set(_FU_NAMES)
    if unknown:
        raise ValueError(
            f"unknown FU classes {sorted(unknown)}; valid names: {list(_FU_NAMES)}"
        )
    counts = {name: int(count) for name, count in variant.items()}
    if any(count <= 0 for count in counts.values()):
        raise ValueError(f"FU counts must be positive, got {counts}")
    # Every class is pinned explicitly so a variant is self-contained (no
    # silent fallback to Table 1 for an omitted class).
    missing = set(_FU_NAMES) - set(counts)
    if missing:
        raise ValueError(f"fu variant must name every class; missing {sorted(missing)}")
    return tuple(sorted(counts.items()))


def _validate_point(point: RunPoint) -> None:
    """Build what the point simulates, so each part checks its own fields.

    The checked core's params check the machine shape, the slot policy,
    the fault rate and model and the checkpoint knobs; the hierarchy
    params check ``dcache_banks``; the profile checks
    ``store_alias_fraction``.  Only the preset name and ``ops`` have no
    object of their own.
    """
    if point.preset not in PRESET_NAMES:
        raise ValueError(
            f"unknown preset {point.preset!r}; choose from {list(PRESET_NAMES)}"
        )
    if point.ops < 0:
        raise ValueError(f"ops must be non-negative, got {point.ops}")
    run_params(
        point.core_params(),
        point.seed,
        checked=True,
        fault_rate=point.fault_rate,
        real_predictor=point.real_predictor,
        wrong_path=point.wrong_path,
        wrong_path_depth=point.wrong_path_depth,
    )
    HierarchyParams(dcache_banks=point.dcache_banks)
    replace(PRESETS[point.preset], store_alias_fraction=point.store_alias_fraction)


def _default_fault_rates() -> list[float]:
    return [1e-4]


def _default_issue_widths() -> list[int]:
    return [8]


def _default_slot_policies() -> list[str]:
    return ["opportunistic"]


def _default_wrong_path() -> list[bool]:
    return [True]


def _default_wrong_path_depths() -> list[int]:
    return [DEFAULT_WRONG_PATH_DEPTH]


def _default_fu_variants() -> list[dict[str, int] | None]:
    return [None]


def _default_memdep() -> list[bool]:
    return [False]


def _default_dcache_banks() -> list[int]:
    return [1]


def _default_checkpoint_intervals() -> list[int]:
    return [0]


def _default_fault_models() -> list[str]:
    return ["transient"]


@dataclass(slots=True)
class SweepSpec(SpecLoader):
    """A cartesian grid of experiments.

    List-valued fields are grid *axes*; scalar fields apply to every
    point.  ``fu_variants`` entries are complete FU-count tables (every
    class named), or ``None`` for the Table 1 defaults; TOML cannot spell
    ``None``, so a TOML spec that lists variants and also wants the
    default complement includes it explicitly.
    """

    name: str
    presets: list[str]
    seeds: list[int]
    ops: int = 20_000
    #: Per-point wall-clock budget in seconds (None = unbounded).  A point
    #: exceeding it becomes an error row — retried on the next invocation —
    #: instead of a stuck worker.  Scalar, not an axis: it shapes execution,
    #: not the experiment, so it never enters a point's config hash.
    timeout_s: float | None = None
    fault_rates: list[float] = field(default_factory=_default_fault_rates)
    issue_widths: list[int] = field(default_factory=_default_issue_widths)
    slot_policies: list[str] = field(default_factory=_default_slot_policies)
    reserved_slots: int = 2
    wrong_path: list[bool] = field(default_factory=_default_wrong_path)
    wrong_path_depths: list[int] = field(default_factory=_default_wrong_path_depths)
    real_predictor: bool = False
    fu_variants: list[dict[str, int] | None] = field(default_factory=_default_fu_variants)
    #: Memory-dependence axes: whether the LSQ/store-set subsystem is on,
    #: and how many D-cache banks the hierarchy models.
    memdep: list[bool] = field(default_factory=_default_memdep)
    dcache_banks: list[int] = field(default_factory=_default_dcache_banks)
    #: Scalar, like ``reserved_slots``: the fraction of static stores the
    #: workload pairs with later loads on shared address streams.
    store_alias_fraction: float = 0.0
    #: Recovery axis: commits between verified-state checkpoints (0 = the
    #: legacy flat-penalty recovery, the default so existing specs and
    #: their stored config hashes are untouched).
    checkpoint_intervals: list[int] = field(default_factory=_default_checkpoint_intervals)
    #: Scalar checkpoint-creation cost in fetch-stall cycles (inert at
    #: interval 0, and normalized out of those points' config hashes).
    checkpoint_overhead: int = 1
    #: Fault-model axis: which injector the checked core runs (default
    #: knobs per model; campaigns, not sweeps, vary the model internals).
    fault_models: list[str] = field(default_factory=_default_fault_models)

    _kind = "sweep"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        for axis in (
            "presets",
            "seeds",
            "fault_rates",
            "issue_widths",
            "slot_policies",
            "wrong_path",
            "wrong_path_depths",
            "fu_variants",
            "memdep",
            "dcache_banks",
            "checkpoint_intervals",
            "fault_models",
        ):
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)):
                raise ValueError(
                    f"axis {axis!r} must be a list, got {type(values).__name__} "
                    f"({values!r})"
                )
            if not values:
                raise ValueError(f"axis {axis!r} must list at least one value")
            if len(set(map(repr, values))) != len(values):
                raise ValueError(f"axis {axis!r} contains duplicate values")
        # Check every point once, now, so each point-level constraint
        # (unknown preset, bad FU variant, reserved_slots vs issue_width,
        # …) surfaces at load time as a clean ValueError, not mid-sweep.
        for point in self.points():
            _validate_point(point)

    def points(self) -> list[RunPoint]:
        """Expand the grid, seeds innermost so one config's seeds are adjacent.

        Only expands: the points were checked when the spec was built.
        """
        out: list[RunPoint] = []
        for (
            preset_name,
            fault_rate,
            issue_width,
            slot_policy,
            wrong_path,
            wrong_path_depth,
            fu_variant,
            memdep,
            banks,
            ckpt_interval,
            fault_model,
            seed,
        ) in itertools.product(
            self.presets,
            self.fault_rates,
            self.issue_widths,
            self.slot_policies,
            self.wrong_path,
            self.wrong_path_depths,
            self.fu_variants,
            self.memdep,
            self.dcache_banks,
            self.checkpoint_intervals,
            self.fault_models,
            self.seeds,
        ):
            point = RunPoint(
                preset=preset_name,
                seed=seed,
                ops=self.ops,
                fault_rate=fault_rate,
                issue_width=issue_width,
                slot_policy=slot_policy,
                reserved_slots=self.reserved_slots,
                wrong_path=wrong_path,
                wrong_path_depth=wrong_path_depth,
                real_predictor=self.real_predictor,
                fu_counts=(
                    _normalize_fu_variant(fu_variant) if fu_variant is not None else None
                ),
                memdep=memdep,
                dcache_banks=banks,
                store_alias_fraction=self.store_alias_fraction,
                checkpoint_interval=ckpt_interval,
                checkpoint_overhead=self.checkpoint_overhead,
                fault_model=fault_model,
            )
            out.append(point)
        return out
