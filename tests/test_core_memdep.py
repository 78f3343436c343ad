"""Memory-dependence subsystem: store sets, LSQ, forwarding, violations."""

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.dynop import DynOp
from repro.core.params import MemDepParams
from repro.core.sched import EV_MEM_VIOLATION
from repro.core.storesets import StoreSetPredictor
from repro.isa import MicroOp, OpClass


def _store(seq: int, squashed: bool = False) -> DynOp:
    op = DynOp(uop=MicroOp(op=OpClass.STORE, srcs=(1, 2), addr=0x40), seq=seq, fetched_at=0)
    op.squashed = squashed
    return op


# ------------------------------------------------------------------- predictor


def test_predictor_unknown_load_predicts_nothing():
    pred = StoreSetPredictor()
    assert pred.predicted_store(0x1000) is None


def test_train_allocates_one_set_and_lfst_tracks_last_fetched_store():
    pred = StoreSetPredictor()
    load_pc, store_pc = 0x1000, 0x2000
    pred.train(load_pc, store_pc)
    # Newly allocated set: no live store yet.
    assert pred.predicted_store(load_pc) is None
    st = _store(seq=5)
    pred.store_fetched(store_pc, st)
    assert pred.predicted_store(load_pc) is st
    # A younger instance of the same static store replaces the entry.
    st2 = _store(seq=9)
    pred.store_fetched(store_pc, st2)
    assert pred.predicted_store(load_pc) is st2


def test_untrained_store_pc_is_not_tracked():
    pred = StoreSetPredictor()
    pred.store_fetched(0x2000, _store(seq=1))
    # No SSIT entry for the PC: fetch must not allocate (train-on-violation).
    assert all(entry is None for entry in pred._lfst)


def test_squashed_store_is_cleared_lazily():
    pred = StoreSetPredictor()
    pred.train(0x1000, 0x2000)
    st = _store(seq=5, squashed=True)
    pred.store_fetched(0x2000, st)
    assert pred.predicted_store(0x1000) is None
    # The stale entry was scrubbed, not just skipped.
    assert all(entry is None for entry in pred._lfst)


def test_train_merge_rules_join_and_converge():
    pred = StoreSetPredictor()
    # Allocate set A = {load1, store1} and set B = {load2, store2}.
    pred.train(0x1000, 0x2000)
    pred.train(0x1004, 0x2004)
    idx = pred._index
    ssid_a = pred._ssit[idx(0x1000)]
    ssid_b = pred._ssit[idx(0x1004)]
    assert ssid_a is not None and ssid_b is not None and ssid_a != ssid_b
    # One-sided: a new load joins store1's existing set.
    pred.train(0x1008, 0x2000)
    assert pred._ssit[idx(0x1008)] == ssid_a
    # Two-sided: load2 violates against store1 -> both converge on min SSID.
    pred.train(0x1004, 0x2000)
    winner = min(ssid_a, ssid_b)
    assert pred._ssit[idx(0x1004)] == winner
    assert pred._ssit[idx(0x2000)] == winner


def test_round_robin_reallocation_clears_the_reclaimed_set():
    pred = StoreSetPredictor(lfst_size=2)
    pred.train(0x1000, 0x2000)  # ssid 0
    st = _store(seq=1)
    pred.store_fetched(0x2000, st)
    pred.train(0x1004, 0x2004)  # ssid 1
    # Wrap: the next allocation reclaims ssid 0 and must not inherit `st`.
    pred.train(0x1008, 0x2008)
    assert pred.predicted_store(0x1008) is None


@pytest.mark.parametrize("kwargs", [{"ssit_size": 0}, {"lfst_size": -1}])
def test_predictor_rejects_non_positive_sizes(kwargs):
    with pytest.raises(ValueError):
        StoreSetPredictor(**kwargs)


# ----------------------------------------------------------------- core params


def _memdep_params(**overrides) -> CoreParams:
    defaults = dict(
        model_icache=False,
        record_retired=True,
        memdep=MemDepParams(enabled=True),
    )
    defaults.update(overrides)
    return CoreParams(**defaults)


def test_memdep_params_emitted_only_when_enabled():
    assert "memdep" not in CoreParams().to_dict()
    data = _memdep_params().to_dict()
    assert data["memdep"]["enabled"] is True
    assert CoreParams.from_dict(data).memdep.enabled is True


# ------------------------------------------------------------------ forwarding


def test_load_forwards_from_older_issued_store():
    trace = [
        MicroOp(op=OpClass.STORE, srcs=(0, 0), pc=0x400, addr=0x1000),
        MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), pc=0x404, addr=0x1000),
    ]
    core = SuperscalarCore(_memdep_params())
    stats = core.run(trace)
    store, load = core.retired
    # Same-cycle issue is seq-ordered, so the store has issued by the time
    # the load asks; the load bypasses the D-cache entirely.
    assert load.fwd_from is store
    assert load.complete_at == load.issued_at + 1
    assert stats.loads_forwarded == 1
    assert stats.mem_order_violations == 0
    assert stats.committed == 2


def test_load_from_other_address_does_not_forward():
    trace = [
        MicroOp(op=OpClass.STORE, srcs=(0, 0), pc=0x400, addr=0x1000),
        MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), pc=0x404, addr=0x2000),
    ]
    core = SuperscalarCore(_memdep_params())
    stats = core.run(trace)
    assert core.retired[1].fwd_from is None
    assert stats.loads_forwarded == 0


def test_disabled_memdep_never_forwards():
    trace = [
        MicroOp(op=OpClass.STORE, srcs=(0, 0), pc=0x400, addr=0x1000),
        MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), pc=0x404, addr=0x1000),
    ]
    core = SuperscalarCore(CoreParams(model_icache=False, record_retired=True))
    stats = core.run(trace)
    assert core.retired[1].fwd_from is None
    assert stats.loads_forwarded == 0
    assert stats.memdep_enabled is False
    assert "loads_forwarded" not in stats.to_dict()


# ------------------------------------------------------------------ violations


def _violation_trace() -> list[MicroOp]:
    """Two (slow store, eager load) alias pairs on the same static PCs.

    The store waits on a long-latency divide, the same-address load has no
    dependencies and issues long before it — the canonical memory-order
    violation.  The second pair re-uses the PCs so the squash-and-replay
    refetch demonstrates the trained predictor delaying the load.
    """
    return [
        MicroOp(op=OpClass.IDIV, dest=2, srcs=(0, 0), pc=0x400),
        MicroOp(op=OpClass.STORE, srcs=(2, 0), pc=0x404, addr=0x1000),
        MicroOp(op=OpClass.LOAD, dest=3, srcs=(0,), pc=0x408, addr=0x1000),
        MicroOp(op=OpClass.IDIV, dest=4, srcs=(0, 0), pc=0x400),
        MicroOp(op=OpClass.STORE, srcs=(4, 0), pc=0x404, addr=0x1000),
        MicroOp(op=OpClass.LOAD, dest=5, srcs=(0,), pc=0x408, addr=0x1000),
    ]


def test_violation_squashes_replays_and_trains_the_predictor():
    core = SuperscalarCore(_memdep_params())
    stats = core.run(_violation_trace())
    # Exactly the first pair violates: its squash refetches everything from
    # the load on, and by then the trained predictor holds the re-fetched
    # second store, so the second load waits instead of re-violating.
    assert stats.mem_order_violations == 1
    assert stats.loads_delayed >= 1
    assert stats.committed == 6
    assert stats.squashed >= 1  # the violating load (at least) was squashed
    first_store, first_load = core.retired[1], core.retired[2]
    # The surviving (replayed) load instance observed the store: it either
    # issued after the store or forwarded from it.
    assert first_load.fwd_from is first_store or first_load.issued_at >= first_store.issued_at


def test_violation_replay_works_with_checker_enabled():
    core = SuperscalarCore(
        _memdep_params(checker=CheckerParams(enabled=True, force_fault_seqs=frozenset({0})))
    )
    stats = core.run(_violation_trace())
    # Fault recovery (seq 0) and memory-order replay share the squash
    # machinery; both paths must drain cleanly to full commit.
    assert stats.recoveries == 1
    assert stats.mem_order_violations >= 1
    assert stats.committed == 6
    assert all(op.checked for op in core.retired)


def test_disabled_memdep_lets_the_load_race_the_store():
    params = CoreParams(model_icache=False, record_retired=True)
    core = SuperscalarCore(params)
    stats = core.run(_violation_trace())
    # Baseline (the bug this subsystem fixes): the load issues under the
    # unresolved older store and nothing notices.
    assert stats.mem_order_violations == 0
    store, load = core.retired[1], core.retired[2]
    assert load.issued_at < store.issued_at
    assert stats.committed == 6


# ------------------------------------------------------------------------- LSQ


def test_full_lsq_stalls_fetch_until_slots_free():
    trace = [
        MicroOp(op=OpClass.STORE, srcs=(0, 0), pc=0x400 + 4 * i, addr=0x1000 + 64 * i)
        for i in range(8)
    ]
    params = _memdep_params(memdep=MemDepParams(enabled=True, lsq_size=2))
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.lsq_full_stalls > 0
    assert stats.committed == 8
    assert len(core._lsq) == 0


def test_lsq_slots_refunded_on_wrong_path_squash():
    # A mispredicted branch fetches wrong-path work (which contains memory
    # ops) into a tiny LSQ; after resolution squashes it, the correct-path
    # stores behind the branch must still find slots.
    trace = [
        MicroOp(op=OpClass.BRANCH, srcs=(0,), pc=0x400, taken=True, target=0x800,
                mispredicted=True),
        *[
            MicroOp(op=OpClass.STORE, srcs=(0, 0), pc=0x500 + 4 * i, addr=0x1000 + 64 * i)
            for i in range(6)
        ],
    ]
    params = _memdep_params(memdep=MemDepParams(enabled=True, lsq_size=4))
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.wrong_path_fetched > 0
    assert stats.committed == 7
    assert len(core._lsq) == 0


def _reference_forwarding_store(lsq, load: DynOp) -> DynOp | None:
    """The full-LSQ youngest-first scan the address index replaced."""
    for entry in reversed(lsq):
        if entry.seq >= load.seq:
            continue
        if (
            entry.uop.op is OpClass.STORE
            and not entry.wrong_path
            and entry.uop.addr == load.uop.addr
        ):
            return entry if entry.issued_at is not None else None
    return None


def _reference_violating_load(lsq, store: DynOp) -> DynOp | None:
    """The full-LSQ oldest-first scan the address index replaced."""
    for entry in lsq:
        if entry.seq <= store.seq or entry.wrong_path:
            continue
        if entry.uop.op is not OpClass.LOAD or entry.issued_at is None:
            continue
        if entry.uop.addr != store.uop.addr:
            continue
        fwd = entry.fwd_from
        if fwd is not None and fwd.seq > store.seq:
            continue
        return entry
    return None


class _ReferenceCheckedCore(SuperscalarCore):
    """Checks every indexed LSQ search against the full-scan reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = 0
        self.violations_posted = 0
        self.wrong_path_stores_seen = 0

    def _check_index(self, addr: int) -> None:
        expected = [op for op in self._lsq if not op.wrong_path and op.uop.addr == addr]
        entries = self._lsq_index.get(addr, [])
        assert len(entries) == len(expected)
        assert all(a is b for a, b in zip(entries, expected))

    def _forwarding_store(self, load: DynOp) -> DynOp | None:
        self._check_index(load.uop.addr)
        found = super()._forwarding_store(load)
        assert found is _reference_forwarding_store(self._lsq, load)
        self.lookups += 1
        if any(op.wrong_path and op.uop.op is OpClass.STORE for op in self._lsq):
            self.wrong_path_stores_seen += 1
        return found

    def _scan_order_violation(self, store: DynOp, now: int) -> None:
        self._check_index(store.uop.addr)
        expected = _reference_violating_load(self._lsq, store)
        posted = self._wheel.posted
        super()._scan_order_violation(store, now)
        if expected is None:
            assert self._wheel.posted == posted
            return
        assert self._wheel.posted == posted + 1
        kind, (got_store, got_load) = self._wheel._due[now + 1][-1]
        assert kind == EV_MEM_VIOLATION
        assert got_store is store and got_load is expected
        self.violations_posted += 1


@pytest.mark.parametrize("seed", [0, 3])
def test_address_index_matches_the_full_lsq_scans(seed: int):
    from dataclasses import replace

    from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
    from repro.workloads import PRESETS, WrongPathGenerator, generate

    profile = replace(PRESETS["memory-bound"], store_alias_fraction=0.6)
    params = CoreParams(
        window_size=64,
        memdep=MemDepParams(enabled=True, lsq_size=24),
        checker=CheckerParams(enabled=True, fault_rate=3e-3, fault_seed=seed + 5),
    )
    core = _ReferenceCheckedCore(
        params,
        hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=4)),
        wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream,
    )
    stats = core.run(generate(profile, 3_000, seed=seed))
    assert stats.committed == 3_000
    # Every squash path ran while the index was live.
    assert stats.mem_order_violations > 0 and core.violations_posted > 0
    assert stats.recoveries > 0 and stats.faults_squashed > 0
    assert core.wrong_path_stores_seen > 0 and stats.wrong_path_squashed > 0
    assert core.lookups > 0 and stats.loads_forwarded > 0
    assert not core._lsq and not core._lsq_index


# ---------------------------------------------------------------- integration


def test_memory_bound_aliasing_workload_exercises_every_memdep_path():
    """ISSUE acceptance: store sets on the memory-bound preset produce
    nonzero violations and forwards, and violations replay to completion."""
    from repro.cli import run_experiment
    from repro.workloads import PRESETS

    result = run_experiment(
        PRESETS["memory-bound"],
        num_ops=20_000,
        seed=3,
        check=True,
        fault_rate=1e-4,
        params=CoreParams(memdep=MemDepParams(enabled=True)),
        store_alias_fraction=0.3,
    )
    for mode in ("unchecked", "checked"):
        stats = result[mode]
        assert stats["mem_order_violations"] > 0
        assert stats["loads_forwarded"] > 0
        assert stats["loads_delayed"] > 0
        assert stats["committed"] == 20_000


def test_banked_dcache_surfaces_checker_conflicts_in_snapshot():
    from repro.cli import run_experiment
    from repro.workloads import PRESETS

    result = run_experiment(
        PRESETS["memory-bound"],
        num_ops=5_000,
        seed=1,
        check=True,
        fault_rate=1e-4,
        dcache_banks=4,
    )
    checked = result["checked"]
    assert checked["mem_dcache_banks"] == 4
    assert checked["mem_checker_probes"] > 0
    # Per-bank accounting is present and consistent with the totals.
    assert len(checked["mem_checker_bank_conflicts_per_bank"]) == 4
    assert sum(checked["mem_checker_bank_conflicts_per_bank"]) == (
        checked["mem_checker_bank_conflicts"]
    )
    assert len(checked["mem_bank_conflicts_per_bank"]) == 4
    # The unbanked baseline result keys are unchanged.
    unbanked = run_experiment(
        PRESETS["memory-bound"], num_ops=1_000, seed=1, check=False, fault_rate=0.0
    )
    assert "mem_dcache_banks" not in unbanked["unchecked"]


def test_default_config_emits_no_memdep_keys():
    from repro.cli import run_experiment
    from repro.workloads import PRESETS

    result = run_experiment(PRESETS["int-heavy"], num_ops=500, seed=0, check=True)
    for mode in ("unchecked", "checked"):
        assert "mem_order_violations" not in result[mode]
        assert "loads_forwarded" not in result[mode]
    assert "memdep" not in result["params"]


# ----------------------------------------------------------------- SSIT decay


def test_decay_clears_trained_sets_after_the_interval():
    pred = StoreSetPredictor(decay_cycles=100)
    load_pc, store_pc = 0x1000, 0x2000
    pred.train(load_pc, store_pc, now=10)
    pred.store_fetched(store_pc, _store(seq=3), now=20)
    assert pred.predicted_store(load_pc, now=50) is not None
    # First access past the interval boundary wipes both tables.
    assert pred.predicted_store(load_pc, now=120) is None
    assert pred.decays == 1
    # The store's set is gone too: re-recording it predicts nothing.
    pred.store_fetched(store_pc, _store(seq=9), now=130)
    assert pred.predicted_store(load_pc, now=140) is None


def test_decay_is_lazy_and_once_per_boundary():
    pred = StoreSetPredictor(decay_cycles=100)
    pred.train(0x1000, 0x2000, now=0)
    # Several quiet intervals elapse; the next access clears exactly once.
    pred.train(0x3000, 0x4000, now=550)
    assert pred.decays == 1
    pred.store_fetched(0x4000, _store(seq=1), now=560)
    assert pred.predicted_store(0x3000, now=570) is not None
    assert pred.decays == 1


def test_decay_zero_never_clears():
    pred = StoreSetPredictor()  # decay_cycles=0, the legacy default
    pred.train(0x1000, 0x2000, now=0)
    pred.store_fetched(0x2000, _store(seq=2), now=10**9)
    assert pred.predicted_store(0x1000, now=2 * 10**9) is not None
    assert pred.decays == 0


def test_negative_decay_cycles_rejected():
    with pytest.raises(ValueError):
        StoreSetPredictor(decay_cycles=-1)
    with pytest.raises(ValueError):
        MemDepParams(enabled=True, ssit_decay_cycles=-1)


def test_ssit_decay_runs_end_to_end_and_counts_in_stats():
    from repro.cli import run_experiment
    from repro.workloads import PRESETS

    from dataclasses import replace

    profile = replace(PRESETS["memory-bound"], store_alias_fraction=0.5)
    base = CoreParams(memdep=MemDepParams(enabled=True, ssit_decay_cycles=200))
    result = run_experiment(profile, num_ops=2_000, seed=0, check=True, params=base)
    for mode in ("unchecked", "checked"):
        assert result[mode]["ssit_decays"] > 0
    assert result["params"]["memdep"]["ssit_decay_cycles"] == 200
    # Decay off: the key stays out of both stats and params (golden safety).
    plain = run_experiment(
        profile, num_ops=2_000, seed=0, check=True,
        params=CoreParams(memdep=MemDepParams(enabled=True)),
    )
    assert "ssit_decays" not in plain["unchecked"]
    assert "ssit_decay_cycles" not in plain["params"]["memdep"]
