"""Small helpers shared across the simulator packages.

Besides the power-of-two guard, this module is the one reader of
params-field declarations.  A params dataclass declares each knob once,
with :func:`knob`: its default, its valid range or choices, and how it is
serialized.  :func:`check_fields` checks every declared range at
construction, and :class:`Params` gives each serialized params class its
``to_dict`` and ``from_dict``.  Each class's plan is built once, on first
use.

It also holds the run-state rules: a core and each subsystem a capture
copies declare every attribute once, with :func:`run_state`.
:func:`start_run` sets those with a start at each reset, and
:mod:`repro.core.capture` copies and restores them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields
from functools import partial
from typing import Any, Callable, Mapping, Self


def require_power_of_two(value: int, name: str) -> int:
    """Return ``value`` after checking it is a positive power of two.

    All table and set geometries in the simulator are indexed with masks,
    so every size must satisfy this; centralising the guard keeps the
    error message uniform.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


#: Emission rule of a field that ``to_dict`` writes only off its default:
#: the knobs added after the first stores, so older rows keep their bytes.
OFF_DEFAULT = "off-default"


def knob(
    default: Any = MISSING,
    *,
    factory: Any = MISSING,
    lo: float | None = None,
    hi: float | None = None,
    choices: tuple | Callable[[], tuple] | None = None,
    emit: str | Callable[[Any], bool] | None = None,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
) -> Any:
    """Declare one params field.

    Args:
        default / factory: The default value, or a factory for a mutable one.
        lo / hi: Inclusive bounds (None: unbounded).  A dict field's bounds
            hold for each of its values; a None value is never checked.
        choices: The valid values, or a function returning them, called
            when the class's plan is built (to break an import cycle).
        emit: When ``to_dict`` writes the field: always (None), only off
            its default (:data:`OFF_DEFAULT`), or when a predicate of the
            value holds.
        encode / decode: The field's JSON form and back.  A nested
            :class:`Params` field uses its own ``to_dict``/``from_dict``.
    """
    return field(
        default=default,
        default_factory=factory,
        metadata={
            "lo": lo,
            "hi": hi,
            "choices": choices,
            "emit": emit,
            "encode": encode,
            "decode": decode,
        },
    )


class _Plan:
    """What one class's check, ``to_dict`` and ``from_dict`` do, per field."""

    __slots__ = ("bounds", "each", "members", "emission", "decoders", "names")

    def __init__(self, cls: type) -> None:
        self.bounds: list[tuple[str, float, float]] = []
        self.each: list[tuple[str, float, float]] = []
        self.members: list[tuple[str, tuple]] = []
        self.emission: list[tuple[str, Callable | None, Callable | None]] = []
        self.decoders: dict[str, Callable] = {}
        self.names = frozenset(f.name for f in fields(cls))
        for f in fields(cls):
            meta = f.metadata
            default = f.default if f.default_factory is MISSING else f.default_factory()
            lo, hi, choices = meta.get("lo"), meta.get("hi"), meta.get("choices")
            if lo is not None or hi is not None:
                bound = (
                    f.name,
                    -math.inf if lo is None else lo,
                    math.inf if hi is None else hi,
                )
                (self.each if isinstance(default, dict) else self.bounds).append(bound)
            if choices is not None:
                if callable(choices):
                    choices = choices()
                self.members.append((f.name, tuple(choices)))
            emit, encode, decode = meta.get("emit"), meta.get("encode"), meta.get("decode")
            if emit == OFF_DEFAULT:
                emit = partial(operator.ne, default)
            if isinstance(default, Params):
                nested = type(default)
                encode = nested.to_dict
                decode = partial(_nested_from_dict, nested)
            self.emission.append((f.name, emit, encode))
            if decode is not None:
                self.decoders[f.name] = decode


#: Each class's plan, built at its first check or serialization.  A plan
#: is a pure function of the class's declarations.
_PLANS: dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def _nested_from_dict(cls: type[Params], value: Any) -> Params:
    return value if isinstance(value, cls) else cls.from_dict(value)


def _bound_text(lo: float, hi: float) -> str:
    return f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"


def check_fields(obj: Any) -> None:
    """Check each declared range and choice of ``obj``'s fields.

    Raises:
        ValueError: naming the first field outside its declaration.
    """
    plan = _plan(type(obj))
    for name, lo, hi in plan.bounds:
        value = getattr(obj, name)
        if value is not None and not lo <= value <= hi:
            raise ValueError(f"{name} must be {_bound_text(lo, hi)}, got {value!r}")
    for name, lo, hi in plan.each:
        for value in getattr(obj, name).values():
            if not lo <= value <= hi:
                raise ValueError(
                    f"every {name} value must be {_bound_text(lo, hi)}, got {value!r}"
                )
    for name, choices in plan.members:
        value = getattr(obj, name)
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")


class Params:
    """Base of the serialized params dataclasses.

    A subclass declares its fields with :func:`knob`; construction checks
    them, and ``to_dict``/``from_dict`` follow each field's emission rule
    and encoding.  A subclass with a cross-field check overrides
    ``__post_init__`` and calls :func:`check_fields` first.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        check_fields(self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot, in field order.

        Fields emitted only off their defaults keep every stored config
        hash and golden params block from before their knob existed
        byte-identical.
        """
        data = {}
        for name, emit, encode in _plan(type(self)).emission:
            value = getattr(self, name)
            if emit is None or emit(value):
                data[name] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Self:
        """Inverse of :meth:`to_dict`; missing keys keep their defaults.

        Raises:
            ValueError: on keys that are not fields of the class, so a
                stale sweep spec fails loudly instead of silently dropping
                a knob.
        """
        plan = _plan(cls)
        unknown = set(data) - plan.names
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        kwargs = dict(data)
        for name, decode in plan.decoders.items():
            if name in kwargs:
                kwargs[name] = decode(kwargs[name])
        return cls(**kwargs)


# The run-state rules.
#: Capture skips it: every reset builds it from the params, the trace or
#: the constructor's arguments.
DERIVED = "derived"
#: Capture copies it, and every container nested in it.
VALUE = "value"
#: DynOp references, however nested: capture points them at copies.
OPS = "ops"
#: An object that declares its own run state by these rules.
SUBSYSTEM = "subsystem"
#: The start of an attribute its constructor builds: :func:`start_run`
#: leaves it alone.
BUILT = MISSING


def run_state(
    *,
    derived: str | dict[str, Any] = "",
    value: str | dict[str, Any] = "",
    ops: str | dict[str, Any] = "",
    subsystem: str = "",
) -> dict[str, tuple[str, Any]]:
    """Declare a class's run state: each attribute's rule, and the start
    of each attribute that :func:`start_run` sets.

    Each argument names the attributes of its rule, space-separated.  A
    derived, value or ops argument may instead map each name to its
    start: a constant, a type (built empty), a function of the object, or
    :data:`BUILT`.

    Raises:
        ValueError: if an attribute is named twice.
    """
    declared: dict[str, tuple[str, Any]] = {}
    for rule, names in ((DERIVED, derived), (VALUE, value), (OPS, ops), (SUBSYSTEM, subsystem)):
        starts = names if isinstance(names, dict) else dict.fromkeys(names.split(), BUILT)
        for name, start in starts.items():
            if name in declared:
                raise ValueError(f"run-state attribute {name} is declared twice")
            declared[name] = (rule, start)
    return declared


def start_run(obj: Any, declared: dict[str, tuple[str, Any]] | None = None) -> None:
    """Set each attribute of ``obj`` whose run-state declaration names a
    start to that start: all of ``obj.RUN_STATE``, or only ``declared``
    (a part of it)."""
    for name, (_, start) in (obj.RUN_STATE if declared is None else declared).items():
        if start is BUILT:
            continue
        if isinstance(start, type):
            start = start()
        elif callable(start):
            start = start(obj)
        setattr(obj, name, start)
