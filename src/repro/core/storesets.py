"""Store-set memory-dependence predictor (Chrysos & Emer, ISCA 1998).

Two direct-mapped tables drive the prediction:

* **SSIT** (Store Set ID Table), indexed by a PC hash, maps both load and
  store PCs to a *store-set id* (SSID).  A load and a store share an SSID
  exactly when a memory-order violation between them has been observed.
* **LFST** (Last Fetched Store Table), indexed by SSID, tracks the most
  recently fetched in-flight store of each set.  A load whose PC maps to a
  set with a live last-fetched store is predicted dependent on it and
  waits for that store instead of issuing speculatively.

Training happens only on violations: the offending load and store PCs are
merged into one set (both unassigned → allocate; one assigned → join;
both assigned → the smaller SSID wins, the canonical "merge" rule that
makes chains of conflicting stores converge on a single set).

The tables are deliberately small and direct-mapped like the hardware
proposal: aliasing between unrelated PCs is part of the model (a false
dependency costs delay, never correctness).

With ``decay_cycles > 0`` both tables are additionally cleared once per
that many cycles, bounding how long a trained-in (possibly false)
dependency can keep delaying loads on long runs.  The clear is lazy and
interval-aligned: the first table access whose cycle lies past an
interval boundary wipes the tables once, so the observable behaviour is
a pure function of the access cycles — deterministic, and unaffected by
the run loop's cycle skipping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util import run_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.dynop import DynOp


class StoreSetPredictor:
    """SSIT/LFST tables predicting which store a load must wait for."""

    RUN_STATE = run_state(
        derived="_ssit_size _lfst_size _decay_cycles",
        value="_ssit _next_ssid _decay_boundary decays",
        ops="_lfst",
    )
    __slots__ = tuple(RUN_STATE)

    def __init__(self, ssit_size: int = 1024, lfst_size: int = 128, decay_cycles: int = 0):
        if ssit_size <= 0 or lfst_size <= 0:
            raise ValueError("ssit_size and lfst_size must be positive")
        if decay_cycles < 0:
            raise ValueError("decay_cycles must be non-negative")
        self._ssit_size = ssit_size
        self._lfst_size = lfst_size
        #: PC-hash slot -> SSID, or None while the PC has no set.
        self._ssit: list[int | None] = [None] * ssit_size
        #: SSID -> last fetched in-flight store of that set (or None).
        self._lfst: list[DynOp | None] = [None] * lfst_size
        # Round-robin SSID allocator; wraps and reuses sets under pressure,
        # like a real finite table.
        self._next_ssid = 0
        #: Cycles per decay interval; 0 disables decay (entries persist).
        self._decay_cycles = decay_cycles
        # Last interval-aligned boundary at which the tables were cleared.
        self._decay_boundary = 0
        #: Times the tables were cleared by decay (surfaced in CoreStats).
        self.decays = 0

    def _index(self, pc: int) -> int:
        # Word-aligned PCs: drop the low bits before the modulo so adjacent
        # instructions spread across slots.
        return (pc >> 2) % self._ssit_size

    def _maybe_decay(self, now: int) -> None:
        # One clear per crossed boundary set, not per elapsed interval: a
        # quiet predictor that skips several intervals wipes once, exactly
        # what interval-timer hardware would have left behind.
        boundary = now - now % self._decay_cycles
        if boundary > self._decay_boundary:
            self._decay_boundary = boundary
            self._ssit = [None] * self._ssit_size
            self._lfst = [None] * self._lfst_size
            self.decays += 1

    # ---------------------------------------------------------------- predict

    def predicted_store(self, load_pc: int, now: int = 0) -> "DynOp | None":
        """The in-flight store this load should wait for, or None.

        Stale entries — the set's last store was squashed — are cleared on
        the way out rather than eagerly at squash time (the LFST is tiny,
        and squashes would otherwise need a full-table sweep).
        """
        if self._decay_cycles:
            self._maybe_decay(now)
        ssid = self._ssit[self._index(load_pc)]
        if ssid is None:
            return None
        store = self._lfst[ssid]
        if store is None:
            return None
        if store.squashed:
            self._lfst[ssid] = None
            return None
        return store

    def store_fetched(self, store_pc: int, op: "DynOp", now: int = 0) -> None:
        """Record ``op`` as its set's last fetched store (if it has a set)."""
        if self._decay_cycles:
            self._maybe_decay(now)
        ssid = self._ssit[self._index(store_pc)]
        if ssid is not None:
            self._lfst[ssid] = op

    # ------------------------------------------------------------------ train

    def train(self, load_pc: int, store_pc: int, now: int = 0) -> None:
        """Merge the violating load and store into one store set."""
        if self._decay_cycles:
            self._maybe_decay(now)
        load_slot = self._index(load_pc)
        store_slot = self._index(store_pc)
        load_ssid = self._ssit[load_slot]
        store_ssid = self._ssit[store_slot]
        if load_ssid is None and store_ssid is None:
            ssid = self._next_ssid
            self._next_ssid = (ssid + 1) % self._lfst_size
            self._lfst[ssid] = None  # reclaimed set must not alias old stores
            self._ssit[load_slot] = ssid
            self._ssit[store_slot] = ssid
        elif load_ssid is None:
            self._ssit[load_slot] = store_ssid
        elif store_ssid is None:
            self._ssit[store_slot] = load_ssid
        elif load_ssid != store_ssid:
            # Both already belong to sets: converge on the smaller SSID.
            winner = min(load_ssid, store_ssid)
            self._ssit[load_slot] = winner
            self._ssit[store_slot] = winner
