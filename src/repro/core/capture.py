"""Capture a fault-free core's run state, and resume other cores from it.

Until its one injected fault, a campaign trial replays exactly the
schedule of its cell's fault-free calibration run: a forced fault draws
no random numbers before its site.  So a trial can start from a copy of a
fault-free *leader* core, taken just before the trial's site, instead of
from cycle 0.  ``SuperscalarCore.capture()`` copies a core's run state at
a cycle boundary into a :class:`CoreState`, and ``SuperscalarCore.run(
trace, start=state)`` resumes from it (via :func:`resume`) with exactly
the statistics of an uninterrupted run.

What a state holds is declared once, in ``SuperscalarCore.RUN_STATE`` and
the ``RUN_STATE`` of each subsystem it names (:func:`repro.util.run_state`),
each attribute by one of four rules:

* **derived** — skipped: the resuming core's reset built it;
* **value** — copied with every nested container (a flat one by its C
  constructor); an object with a ``copy()`` method copies itself, so a
  cache copies only the sets a fill has created;
* **ops** — ``DynOp`` references, however nested: each in-flight op is
  copied once, and the live copies' own references point at copies.
  Committed ops never change again and are shared;
* **subsystem** — saved by its own declaration, and restored in place
  into the resuming core's subsystem, which keeps its derived wiring.

A live wrong-path episode's stream is kept as the number of ops already
pulled from it (those in the window plus any peeked op).  Streams are pure
functions of (seed, branch pc, branch seq), so the resuming core
re-creates the stream from its own source and pulls that many ops again.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import fields, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.core.dynop import DynOp
from repro.util import OPS, SUBSYSTEM, VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.core import SuperscalarCore
    from repro.core.params import CoreParams

_dynop_fields = attrgetter(*(f.name for f in fields(DynOp)))

#: Values shared by every copy.
_ATOMS = frozenset({int, float, bool, str, type(None)})
#: Containers a value copy rebuilds.
_CONTAINERS = frozenset({list, tuple, dict, deque})


def _copy(value: Any) -> Any:
    """A value attribute's copy: shares nothing mutable with ``value``
    except objects held inside containers."""
    kind = type(value)
    if kind is list or kind is deque or kind is tuple:
        if _CONTAINERS.isdisjoint(map(type, value)):
            return value if kind is tuple else kind(value)
        return kind(map(_copy, value))
    if kind is dict:
        if _CONTAINERS.isdisjoint(map(type, value.values())):
            return dict(value)
        return {key: _copy(item) for key, item in value.items()}
    if kind in _ATOMS:
        return value
    own = getattr(value, "copy", None)
    return own() if own is not None else copy.deepcopy(value)


def _op_copier() -> tuple[Callable[[Any], Any], list[DynOp]]:
    """A function returning its argument with each uncommitted ``DynOp`` in
    it, however nested, replaced by the op's one copy (containers rebuilt,
    anything else shared), and the list of its copies of live ops."""
    by_id: dict[int, DynOp] = {}
    live: list[DynOp] = []

    def copies(value: Any) -> Any:
        kind = type(value)
        if kind is DynOp:
            if value.committed_at is not None:
                return value
            clone = by_id.get(id(value))
            if clone is None:
                clone = by_id[id(value)] = DynOp(*_dynop_fields(value))
                if not value.squashed:
                    live.append(clone)
            return clone
        if kind is int or value is None:
            return value
        if kind is tuple or kind is list or kind is deque:
            return kind(map(copies, value))
        if kind is dict:
            return {key: copies(item) for key, item in value.items()}
        return value

    return copies, live


def _point_at_copies(live: list[DynOp], copies: Callable[[Any], Any]) -> None:
    """Point each live copy's dependences, wake-up list and forwarding
    store at copies.  Nothing follows a squashed op's references."""
    for op in live:
        if op.deps:
            op.deps = tuple(map(copies, op.deps))
        if op.waiters is not None:
            op.waiters = list(map(copies, op.waiters))
        if op.fwd_from is not None:
            op.fwd_from = copies(op.fwd_from)


def _save(obj: Any, copies: Callable[[Any], Any]) -> tuple[dict, dict]:
    """``obj``'s run state by its declaration: its values and op
    references, and each subsystem's save (derived attributes skipped)."""
    own, parts = {}, {}
    for name, (rule, _) in obj.RUN_STATE.items():
        if rule is VALUE:
            value = getattr(obj, name)
            own[name] = value if type(value) in _ATOMS else _copy(value)
        elif rule is OPS:
            own[name] = copies(getattr(obj, name))
        elif rule is SUBSYSTEM:
            part = getattr(obj, name)
            parts[name] = None if part is None else _save(part, copies)
    return own, parts


def _restore(obj: Any, saved: tuple[dict, dict]) -> None:
    """Give ``obj`` the run state :func:`_save` took, subsystems in place."""
    own, parts = saved
    for name, value in own.items():
        setattr(obj, name, value)
    for name, part in parts.items():
        if part is not None:
            _restore(getattr(obj, name), part)


class CoreState:
    """A fault-free core's run state at a cycle boundary (see the module
    docstring); starts one resumed run.

    Raises:
        ValueError: if the core has injected a fault (only fault-free
            prefixes are shared), or has a tracer attached (a run resumed
            from the state would lack its records of the prefix).
    """

    def __init__(self, core: "SuperscalarCore") -> None:
        if core.tracer is not None:
            raise ValueError(
                "cannot capture a core with a tracer attached: a resumed run "
                "would lack its records of the prefix"
            )
        injector = core.fault_injector
        if injector is not None and injector.injected:
            raise ValueError(
                "cannot capture a core that has injected a fault: only "
                "fault-free run states can be shared"
            )
        self.params = core.params
        self.memory_params = core.hierarchy.params
        self.trace = core._trace
        self.eligible = injector.eligible if injector is not None else 0
        # Every wrong-path op in the window belongs to the live episode:
        # resolution and every squash end an episode together with its ops.
        self.wp_peeked = core._wp_peek is not None
        self.wp_pulled = sum(op.wrong_path for op in core._window) + self.wp_peeked
        copies, live = _op_copier()
        self.saved = _save(core, copies)
        _point_at_copies(live, copies)
        self.used = False


def _same_run(params: "CoreParams", captured: "CoreParams") -> bool:
    """Whether ``params`` differ from ``captured`` at most in the checker's
    fault seed and forced fault site."""
    checker = replace(
        params.checker,
        fault_seed=captured.checker.fault_seed,
        force_fault_index=captured.checker.force_fault_index,
    )
    return replace(params, checker=checker) == captured


def resume(core: "SuperscalarCore", state: CoreState) -> None:
    """Continue ``core``'s begun run from ``state``, which it takes over.

    ``core`` has just been reset for ``state``'s trace, so its fault model
    comes from its own params: it picks up the captured eligible count
    and, as the captured core injected nothing and drew no random number,
    nothing else.

    Raises:
        ValueError: if the state already started a run, if ``core`` runs
            another trace object or has a tracer attached, if its params
            differ from the captured core's in anything but the checker's
            ``fault_seed`` and ``force_fault_index``, if its fault rate is
            not 0 (a rate draws random numbers before the site), or if its
            forced site is already behind the captured state.
    """
    params = core.params
    cp = params.checker
    if state.used:
        raise ValueError("this state already started a run; capture another")
    if core._trace is not state.trace:
        raise ValueError("a captured state resumes only on the trace it was captured on")
    if core.tracer is not None:
        raise ValueError("a resumed run cannot be traced: its prefix was not")
    if not _same_run(params, state.params) or core.hierarchy.params != state.memory_params:
        raise ValueError(
            "a captured state resumes only on a core whose params differ at "
            "most in the checker's fault_seed and force_fault_index"
        )
    if cp.fault_rate:
        raise ValueError("a captured state resumes only with fault rate 0")
    if cp.force_fault_index is not None and cp.force_fault_index < state.eligible:
        raise ValueError(
            f"forced fault site {cp.force_fault_index} is behind the captured "
            f"state ({state.eligible} eligible events seen)"
        )
    state.used = True
    _restore(core, state.saved)
    # The hot loops' aliases of restored containers are derived: rebind them.
    core._ready_heap = core._ready._heap
    core._check_deque = core.checker._pending if core.checker is not None else None
    branch = core._wp_branch
    if branch is not None:
        stream = iter(core._wp_source(branch.uop, branch.seq, params.wrong_path_depth))
        for _ in range(state.wp_pulled - state.wp_peeked):
            next(stream)
        core._wp_iter = stream
        core._wp_peek = next(stream) if state.wp_peeked else None
