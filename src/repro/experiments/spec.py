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
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping, Self

from repro.core.params import CheckerParams, CoreParams
from repro.isa.opcodes import FUClass
from repro.memory.hierarchy import HierarchyParams
from repro.workloads import PRESET_NAMES, PRESETS

#: Version stamp written into every config and results row; bump on any
#: incompatible change to the config or row layout.
SCHEMA_VERSION = 1

#: Valid FU-count keys in a spec's ``fu_variants`` tables.
_FU_NAMES = tuple(cls.name for cls in FUClass)

#: The Table 1 machine and memory system, whose fields give every knob
#: of a run, a point and a spec that a params class owns its default.
_CORE = CoreParams()
_HIERARCHY = HierarchyParams()

#: The ``CoreParams`` default depth: what a run uses unless told
#: otherwise, and the canonical depth written into configs of
#: wrong_path=False points, where the knob is inert (a valid, positive
#: depth, so the config still round-trips through validation).
DEFAULT_WRONG_PATH_DEPTH = _CORE.wrong_path_depth

#: Trace length of a run, a sweep point and a campaign cell unless told
#: otherwise.
DEFAULT_OPS = 20_000

#: Per-op fault probability of a checked run unless told otherwise.
DEFAULT_FAULT_RATE = 1e-4


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

    Raises:
        ValueError: naming ``params.<field>`` when ``base`` sets the
            predictor mode, a wrong-path knob or (for the checked core)
            the fault rate off its default and the run's keyword gives
            another value, which would override it silently.
    """
    base = base if base is not None else CoreParams()
    # Each run-level knob ``base`` may also set: its field and keyword.
    knobs = [
        ("use_real_predictor", "real_predictor", real_predictor),
        ("model_wrong_path", "wrong_path", wrong_path),
        ("wrong_path_depth", "wrong_path_depth", wrong_path_depth),
    ]
    if checked:
        knobs.append(("checker.fault_rate", "fault_rate", fault_rate))
    for name, keyword, run_value in knobs:
        value = attrgetter(name)(base)
        if value != attrgetter(name)(_CORE) and value != run_value:
            raise ValueError(
                f"params.{name}={value!r} would be overridden by "
                f"{keyword}={run_value!r}; pass it as {keyword}"
            )
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
    memdep: bool = _CORE.memdep.enabled
    dcache_banks: int = _HIERARCHY.dcache_banks
    store_alias_fraction: float = 0.0
    #: Verified-state checkpointing (0 = off, the legacy flat-penalty
    #: recovery); the overhead knob only matters while the interval is on.
    checkpoint_interval: int = _CORE.recovery.checkpoint_interval
    checkpoint_overhead: int = _CORE.recovery.checkpoint_overhead
    #: Which fault model the checked core injects with (one of
    #: ``repro.faults.FAULT_MODELS``; ``transient`` is the legacy default).
    fault_model: str = _CORE.checker.fault_model

    def config(self) -> dict[str, Any]:
        """The canonical, JSON-serializable identity of this point.

        Inert knobs are normalized before hashing so behaviorally
        identical points share a cache identity: ``reserved_slots`` only
        exists under the ``reserved`` policy, and ``wrong_path_depth``
        only matters when wrong-path modelling is on.  Without this,
        editing an ignored spec field would invalidate every stored row.
        The keys added after the first stores appear only off their
        defaults for the same reason: every pre-existing stored row keeps
        its hash.  ``checkpoint_overhead`` comes with a positive interval,
        at any value.
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
        for name, default in _LATER_KEYS.items():
            value = getattr(self, name)
            if value != default:
                config[name] = value
        if self.checkpoint_interval:
            config["checkpoint_overhead"] = self.checkpoint_overhead
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
            "checker": CheckerParams(
                slot_policy=self.slot_policy,
                reserved_slots=self.reserved_slots,
                fault_model=self.fault_model,
            ),
        }
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
        # An absent key that config() emits only off its default takes
        # the field's default, so stored rows that predate it load unchanged.
        unknown = set(data) - _POINT_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = _REQUIRED_KEYS - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        fu_counts = data["fu_counts"]
        data["fu_counts"] = _normalize_fu_variant(fu_counts) if fu_counts is not None else None
        point = cls(**data)
        _validate_point(point)
        return point


#: Every config key of a point, and the keys every config carries.
_POINT_KEYS = frozenset(f.name for f in fields(RunPoint))
_REQUIRED_KEYS = frozenset(f.name for f in fields(RunPoint) if f.default is MISSING)

#: The keys added after the first stores, with their defaults: a config
#: carries each only off its default (``checkpoint_overhead`` apart, which
#: comes with the interval).
_LATER_KEYS = {
    f.name: f.default
    for f in fields(RunPoint)
    if f.default is not MISSING and f.name != "checkpoint_overhead"
}


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


#: Each grid axis of a :class:`SweepSpec` and the :class:`RunPoint` field
#: it sets, in expansion order: presets outermost, seeds innermost so one
#: config's seeds are adjacent.
_AXES: tuple[tuple[str, str], ...] = (
    ("presets", "preset"),
    ("fault_rates", "fault_rate"),
    ("issue_widths", "issue_width"),
    ("slot_policies", "slot_policy"),
    ("wrong_path", "wrong_path"),
    ("wrong_path_depths", "wrong_path_depth"),
    ("fu_variants", "fu_counts"),
    ("memdep", "memdep"),
    ("dcache_banks", "dcache_banks"),
    ("checkpoint_intervals", "checkpoint_interval"),
    ("fault_models", "fault_model"),
    ("seeds", "seed"),
)

#: The spec's scalars, each setting the point field of the same name.
_SCALARS = (
    "ops",
    "reserved_slots",
    "real_predictor",
    "store_alias_fraction",
    "checkpoint_overhead",
)


def _axis(default: Any) -> Any:
    """A grid axis that holds ``default`` alone unless a spec lists values."""
    return field(default_factory=lambda: [default])


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
    ops: int = DEFAULT_OPS
    #: Per-point wall-clock budget in seconds (None = unbounded).  A point
    #: exceeding it becomes an error row — retried on the next invocation —
    #: instead of a stuck worker.  Scalar, not an axis: it shapes execution,
    #: not the experiment, so it never enters a point's config hash.
    timeout_s: float | None = None
    fault_rates: list[float] = _axis(DEFAULT_FAULT_RATE)
    issue_widths: list[int] = _axis(_CORE.issue_width)
    slot_policies: list[str] = _axis(_CORE.checker.slot_policy)
    reserved_slots: int = _CORE.checker.reserved_slots
    wrong_path: list[bool] = _axis(_CORE.model_wrong_path)
    wrong_path_depths: list[int] = _axis(DEFAULT_WRONG_PATH_DEPTH)
    real_predictor: bool = _CORE.use_real_predictor
    fu_variants: list[dict[str, int] | None] = _axis(None)
    #: Memory-dependence axes: whether the LSQ/store-set subsystem is on,
    #: and how many D-cache banks the hierarchy models.
    memdep: list[bool] = _axis(_CORE.memdep.enabled)
    dcache_banks: list[int] = _axis(_HIERARCHY.dcache_banks)
    #: Scalar, like ``reserved_slots``: the fraction of static stores the
    #: workload pairs with later loads on shared address streams.
    store_alias_fraction: float = 0.0
    #: Recovery axis: commits between verified-state checkpoints (0 = the
    #: legacy flat-penalty recovery, the default so existing specs and
    #: their stored config hashes are untouched).
    checkpoint_intervals: list[int] = _axis(_CORE.recovery.checkpoint_interval)
    #: Scalar checkpoint-creation cost in fetch-stall cycles (inert at
    #: interval 0, and normalized out of those points' config hashes).
    checkpoint_overhead: int = _CORE.recovery.checkpoint_overhead
    #: Fault-model axis: which injector the checked core runs (default
    #: knobs per model; campaigns, not sweeps, vary the model internals).
    fault_models: list[str] = _axis(_CORE.checker.fault_model)

    _kind = "sweep"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        for axis, _ in _AXES:
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
        """Expand the grid in :data:`_AXES` order.

        Only expands: the points were checked when the spec was built.
        """
        axes = {axis: getattr(self, axis) for axis, _ in _AXES}
        axes["fu_variants"] = [
            _normalize_fu_variant(variant) if variant is not None else None
            for variant in self.fu_variants
        ]
        names = [name for _, name in _AXES]
        scalars = {name: getattr(self, name) for name in _SCALARS}
        return [
            RunPoint(**dict(zip(names, values)), **scalars)
            for values in itertools.product(*axes.values())
        ]
