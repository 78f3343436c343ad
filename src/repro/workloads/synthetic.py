"""Synthetic micro-op trace generator.

Generation is two-phase, like a real program: a **static program** of
``profile.loop_ops`` micro-op slots (fixed op class, registers, PC, and —
for branches — a periodic outcome pattern and a stable target) is built
once, then the trace is emitted by iterating over that program as one big
loop and instantiating the *dynamic* parts of each slot: the branch
outcome for this iteration (its slot's period, plus ``outcome_noise``
pattern breaks), mispredict flags, and memory addresses.  Re-visiting the
same branch PCs with learnable periodic outcomes and stable targets is
what makes the real-predictor front end trainable; never-repeating PCs or
i.i.d. outcomes would reduce the combining predictor to cold-start noise.

Traces are pure functions of ``(profile, num_ops, seed)``: one private
:class:`random.Random` instance drives both phases, so identical inputs
give identical traces — the determinism the experiment harness and the
test suite both rely on.

**Trace ops are shared, so they are read-only.**  Only loads and stores
are new objects per instance.  Every instance of a plain slot (a NOP or
any op that is neither a memory op nor a branch) is the same
:class:`MicroOp`, and every instance of a branch slot is one of four, one
per combination of taken and mispredicted.  An op assigned to in place
would change every instance of its slot, in this trace and in any other
trace taken from the same generator; build a changed copy with
:func:`dataclasses.replace` instead.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect, bisect_left
from collections import deque
from dataclasses import dataclass

from repro.isa.instruction import MicroOp
from repro.isa.opcodes import OpClass, is_fp
from repro.isa.registers import FP_REG_BASE, NUM_FP_REGS, NUM_INT_REGS, REG_ZERO
from repro.memory.cache import LINE_BYTES as _LINE_BYTES
from repro.workloads.profiles import WorkloadProfile

_HOT_BASE = 0x1000_0000
_COLD_BASE = 0x8000_0000
_CODE_BASE = 0x0040_0000

#: Aliased store/load pairs (``store_alias_fraction``) share per-pair
#: address streams in this region — disjoint from the hot set, the cold
#: stream, and wrong-path data, so pairing changes which ops *alias*, not
#: which other lines they contend for.
_ALIAS_BASE = 0x2000_0000
#: Lines a pair cycles through (re-touched every window iterations: stays
#: cache-resident like the stack slots it models).
_ALIAS_WINDOW = 16
#: Line distance between consecutive pairs' regions.
_ALIAS_STRIDE_LINES = 64

#: Periods assigned to static branches.  Outcomes are periodic — a
#: loop-like branch is taken except on every ``period``-th instance (a
#: loop back-edge that falls through on exit), a skip-like branch inverts
#: that — so history predictors can genuinely learn them: the PAs local
#: history (12 bits) covers any period in this range, and training a
#: period-p pattern needs only ~2p recurrences of the branch.
_MIN_PERIOD = 3
_MAX_PERIOD = 8

#: Kinds of static slot that draw or build, fixed when the program is
#: built: a branch draws its outcome, an unpaired load or store draws its
#: address, and a paired one computes it.  A plain slot (a NOP or any op
#: that is neither a memory op nor a branch) does neither.
_BRANCH, _MEM, _ALIAS = range(3)


@dataclass(slots=True)
class _StaticOp:
    """One slot of the static program (the per-instance fields are drawn
    at emission time)."""

    op: OpClass
    pc: int
    dest: int | None = None
    srcs: tuple[int, ...] = ()
    period: int = 0
    loop_like: bool = True
    target: int | None = None
    #: Alias-pair id shared by one store slot and one later load slot;
    #: paired slots emit the same address within a loop iteration.
    alias_pair: int | None = None


class TraceGenerator:
    """Stateful generator for one trace (one RNG, one static program).

    :meth:`take` emits the next ops of the looped program and
    :meth:`fast_forward` skips them; both continue where the last call
    stopped, so any split of a trace into takes and skips emits the ops a
    single :func:`generate` would.

    **Draw contract.**  One ``random.Random(seed)`` makes every draw.
    Each slot of the static program, in order, makes the draws these
    ``random.Random`` calls would make:

    * its class: ``choices(classes, weights)``, one ``random()``;
    * each source (one for a branch or a load, two otherwise), once a
      destination of its register file has been drawn (a load's own
      included): ``random() < dep_fraction`` and, when that holds,
      ``choice`` over the last ``dep_window`` destinations of that file;
    * a destination, after the sources but before a load's source:
      ``randrange(1, 32)`` for an integer one, ``randrange(32)`` for a
      floating-point one;
    * a branch, after its source: ``randint(3, 8)`` for its period,
      ``random() < taken_rate`` for loop-like, ``randint(2, 64)`` for
      its target distance in words.

    With a nonzero ``store_alias_fraction``, each store then draws
    ``random() < store_alias_fraction`` and, when that holds,
    ``randrange(len(free))`` for a still-unpaired later load (pairing
    stops at the first store with none left).  Op *i* of the trace, an
    instance of slot ``i % loop_ops``, then makes in order:

    * a branch: ``random() < outcome_noise`` (a break from the slot's
      periodic outcome), then ``random() < mispredict_rate``;
    * a load or store outside an alias pair: ``random() <
      cold_fraction``, then, unless that holds (the op takes the next line
      of the cold stream), ``randrange(hot_lines)`` for a hot-set line;
    * nothing else draws: plain ops and alias-paired loads and stores.

    The body draws through ``getrandbits`` directly: ``choices`` is a
    bisect over cumulative weights, ``choice`` and ``randrange(n)`` are
    CPython's ``_randbelow(n)`` rejection loop (``k = n.bit_length()``
    bits, redrawn while the value is ``>= n``), and ``randint(a, b)`` and
    ``randrange(a, b)`` add ``a`` to it.  ``tests/test_workloads.py`` pins
    a digest of traces recorded through those calls, and
    ``tests/test_core_wrong_path.py`` checks on the running CPython that
    the written-out draws still draw what the calls draw.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self._rng = random.Random(seed)
        self._ops = tuple(profile.mix.keys())
        # Cumulative weights reproduce random.choices() exactly (see
        # WrongPathGenerator).
        self._cum_weights = list(itertools.accumulate(profile.mix.values()))
        self._total_weight = self._cum_weights[-1] + 0.0
        self._recent_int: deque[int] = deque(maxlen=profile.dep_window)
        self._recent_fp: deque[int] = deque(maxlen=profile.dep_window)
        self._cold_ptr = _COLD_BASE
        self._program = [self._build_static(i) for i in range(profile.loop_ops)]
        # Gated on the knob, not just called unconditionally: with the
        # fraction at 0 the pairing pass must draw *zero* RNG values so
        # legacy (profile, num_ops, seed) traces stay byte-identical.
        if profile.store_alias_fraction:
            self._assign_alias_pairs()
        self._index = 0
        self._build_emission()

    # -------------------------------------------------------- static program

    def _below(self, n: int) -> int:
        """``randrange(n)``: CPython's ``_randbelow`` rejection loop."""
        bits = self._rng.getrandbits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def _pick_src(self, fp: bool) -> int:
        recent = self._recent_fp if fp else self._recent_int
        if recent and self._rng.random() < self.profile.dep_fraction:
            return recent[self._below(len(recent))]
        return REG_ZERO  # architecturally ready, creates no dependency

    def _pick_dest(self, fp: bool) -> int:
        if fp:
            dest = FP_REG_BASE + self._below(NUM_FP_REGS)
            self._recent_fp.append(dest)
        else:
            dest = 1 + self._below(NUM_INT_REGS - 1)  # never r0
            self._recent_int.append(dest)
        return dest

    def _build_static(self, slot: int) -> _StaticOp:
        draw = self._rng.random() * self._total_weight
        op = self._ops[bisect(self._cum_weights, draw, 0, len(self._ops) - 1)]
        pc = _CODE_BASE + 4 * slot
        if op is OpClass.NOP:
            return _StaticOp(op=op, pc=pc)
        if op is OpClass.BRANCH:
            return _StaticOp(
                op=op,
                pc=pc,
                srcs=(self._pick_src(fp=False),),
                period=_MIN_PERIOD + self._below(_MAX_PERIOD - _MIN_PERIOD + 1),
                loop_like=self._rng.random() < self.profile.taken_rate,
                target=pc + 4 * (2 + self._below(63)),
            )
        if op is OpClass.LOAD:
            return _StaticOp(
                op=op, pc=pc, dest=self._pick_dest(fp=False), srcs=(self._pick_src(fp=False),)
            )
        if op is OpClass.STORE:
            return _StaticOp(
                op=op,
                pc=pc,
                srcs=(self._pick_src(fp=False), self._pick_src(fp=False)),
            )
        fp = is_fp(op)
        srcs = (self._pick_src(fp), self._pick_src(fp))
        return _StaticOp(op=op, pc=pc, dest=self._pick_dest(fp), srcs=srcs)

    def _assign_alias_pairs(self) -> None:
        """Pair static stores with later static loads on shared addresses.

        Models the stack-slot / spill-refill idiom: a store writes a slot
        and a nearby later load reads it back.  Each store passes an
        independent ``store_alias_fraction`` draw and then claims a random
        still-unpaired load *after* it in the program, so within one loop
        iteration the store is the older op and the load the younger — the
        shape that exercises forwarding, predictor delays, and
        memory-order violations.  Stores with no later load available stay
        unpaired.
        """
        rng = self._rng
        fraction = self.profile.store_alias_fraction
        program = self._program
        free_loads = [
            i for i, s in enumerate(program) if s.op is OpClass.LOAD
        ]
        next_pair = 0
        for index, static in enumerate(program):
            if static.op is not OpClass.STORE:
                continue
            if rng.random() >= fraction:
                continue
            while free_loads and free_loads[0] <= index:
                free_loads.pop(0)
            if not free_loads:
                break
            load_index = free_loads.pop(self._below(len(free_loads)))
            static.alias_pair = next_pair
            program[load_index].alias_pair = next_pair
            next_pair += 1

    # ------------------------------------------------------ dynamic instances

    def _build_emission(self) -> None:
        """Fix each slot's kind and build its shared ops.

        ``_shared`` holds each plain slot's one op, and ``None`` at every
        other slot; ``_dynamic`` holds ``(slot, kind, record)`` for every
        other slot in program order, and ``_dynamic_slots`` their slots.
        """
        shared: list[MicroOp | None] = []
        dynamic: list[tuple[int, int, tuple]] = []
        micro_op = MicroOp  # fields: op, dest, srcs, pc, addr, taken, target, mispredicted
        for slot, static in enumerate(self._program):
            op, srcs, pc = static.op, static.srcs, static.pc
            if op is OpClass.BRANCH:
                target = static.target
                taken = (
                    micro_op(op, None, srcs, pc, None, True, target, False),
                    micro_op(op, None, srcs, pc, None, True, target, True),
                )
                not_taken = (
                    micro_op(op, None, srcs, pc, None, False, None, False),
                    micro_op(op, None, srcs, pc, None, False, None, True),
                )
                # Indexed by whether the iteration is on the slot's period:
                # a loop-like branch falls through there, a skip-like one
                # is taken there.
                outcomes = (taken, not_taken) if static.loop_like else (not_taken, taken)
                dynamic.append((slot, _BRANCH, (static.period, outcomes)))
            elif op is OpClass.LOAD or op is OpClass.STORE:
                record = (op, static.dest, srcs, pc)
                if static.alias_pair is None:
                    dynamic.append((slot, _MEM, record))
                else:
                    # The pair's region; the iteration picks a line in it.
                    base = _ALIAS_BASE + _LINE_BYTES * _ALIAS_STRIDE_LINES * static.alias_pair
                    dynamic.append((slot, _ALIAS, (*record, base)))
            else:
                shared.append(micro_op(op, static.dest, srcs, pc))
                continue
            shared.append(None)
        self._shared = shared
        self._dynamic = dynamic
        self._dynamic_slots = [slot for slot, _, _ in dynamic]

    def take(self, count: int) -> list[MicroOp]:
        """Emit the next ``count`` ops of the looped program.

        One pass per loop iteration (or part of one): the plain slots'
        shared ops are copied in one slice, then each other slot in the
        pass makes its draws in program order and fills its place.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        profile = self.profile
        noise = profile.outcome_noise
        mispredict = profile.mispredict_rate
        cold = profile.cold_fraction
        hot_lines = profile.hot_lines
        hot_bits = hot_lines.bit_length()  # what _randbelow(hot_lines) draws
        draw = self._rng.random
        bits = self._rng.getrandbits
        shared = self._shared
        dynamic = self._dynamic
        dynamic_slots = self._dynamic_slots
        n = len(shared)
        micro_op = MicroOp  # positional fields: op, dest, srcs, pc, addr
        cold_ptr = self._cold_ptr
        out: list[MicroOp] = []
        index = self._index
        end = index + count
        while index < end:
            iteration, first = divmod(index, n)
            stop = min(n, first + end - index)
            offset = len(out) - first
            out += shared[first:stop]  # None where a slot draws or builds
            alias_line = _LINE_BYTES * (iteration % _ALIAS_WINDOW)
            lo = bisect_left(dynamic_slots, first)
            hi = bisect_left(dynamic_slots, stop)
            for slot, kind, record in dynamic[lo:hi]:
                if kind == _BRANCH:
                    period, outcomes = record
                    phase = iteration % period == period - 1
                    if draw() < noise:
                        phase = not phase  # data-dependent break from the pattern
                    out[offset + slot] = outcomes[phase][draw() < mispredict]
                elif kind == _MEM:
                    if draw() < cold:
                        addr = cold_ptr
                        cold_ptr += _LINE_BYTES  # fresh line: compulsory miss
                    else:
                        r = bits(hot_bits)
                        while r >= hot_lines:
                            r = bits(hot_bits)
                        addr = _HOT_BASE + _LINE_BYTES * r
                    op, dest, srcs, pc = record
                    out[offset + slot] = micro_op(op, dest, srcs, pc, addr)
                else:
                    # Both halves of the pair compute the same address for
                    # the same iteration (no draw: the pairing replaced
                    # it), stepping through a small resident window.
                    op, dest, srcs, pc, base = record
                    out[offset + slot] = micro_op(op, dest, srcs, pc, base + alias_line)
            index += stop - first
        self._index = index
        self._cold_ptr = cold_ptr
        return out

    def fast_forward(self, count: int) -> None:
        """Skip the next ``count`` ops: :meth:`take` them and drop them, so
        a later :meth:`take` returns precisely the ops a fresh generator
        would emit at this offset.  Shard workers rebuild their trace
        windows this way (see :func:`generate_window`).  One loop
        iteration is taken at a time, so a long skip never holds more
        than one iteration's ops.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        n = len(self._shared)
        for _ in range(count // n):
            self.take(n)
        self.take(count % n)


#: Wrong-path data accesses land here by default: a region disjoint from
#: both the hot set and the cold-streaming region, so wrong-path loads
#: genuinely pollute the caches rather than silently warming the hot set.
_WRONG_PATH_DATA_BASE = 0x4000_0000

#: Default op mix for wrong-path streams when no profile is supplied:
#: ALU-dominated straight-line code with a realistic sprinkling of memory
#: ops, mirroring what a front end finds past a mispredicted branch.
_WRONG_PATH_MIX: dict[OpClass, float] = {
    OpClass.IALU: 0.55,
    OpClass.IMUL: 0.05,
    OpClass.LOAD: 0.20,
    OpClass.STORE: 0.08,
    OpClass.BRANCH: 0.12,
}


#: Kinds of wrong-path op, one per op class of a mix: what an op draws
#: after its class and sources, and what it yields.
_WP_INT, _WP_FP, _WP_BRANCH, _WP_LOAD, _WP_STORE = range(5)

#: ``n.bit_length()`` for the 1-8 recent destinations a source can name:
#: the bit count ``random.Random._randbelow(n)`` draws.
_RECENT_BITS = (0, 1, 2, 2, 3, 3, 3, 3, 4)

#: Lines of the wrong-path data region a stray access picks from.
_WRONG_PATH_DATA_LINES = 4096


class WrongPathGenerator:
    """Deterministic per-branch wrong-path micro-op streams.

    When a branch is mispredicted the front end fetches the *other* side
    of it: the fall-through when the branch was actually taken, the target
    when it was actually not taken.  :meth:`stream` synthesises that code
    as a straight-line run of micro-ops starting at the wrong-path PC —
    enough structure for the core to rename, issue, and execute them so
    they consume real issue slots, functional units, and memory bandwidth
    before the resolution squash throws them away.

    Streams are pure functions of ``(seed, branch pc, branch seq)``: a
    squash-and-replay refetch of the same dynamic branch regenerates the
    identical wrong path, keeping whole-run determinism.

    Wrong-path branches are emitted without outcomes (``taken=None``) —
    the core executes their condition on an ALU but never predicts,
    trains, or forks a nested wrong path from them.

    **Draw contract.**  Each stream seeds its own ``random.Random`` with
    ``seed * 0x9E3779B1 ^ (pc << 4) ^ seq``, and op *i* makes, in order,
    the draws these ``random.Random`` calls would make:

    * its class: ``choices(classes, weights)``, one ``random()``;
    * two sources: once an earlier op has written a register, each
      draws ``random() < 0.4`` and, when that holds, ``choice(recent)``
      over the last 8 destinations (before that, neither draws);
    * a load or store: ``random() < 0.3``, then ``randrange(hot_lines)``
      (a line of the profile's hot set) or ``randrange(4096)`` (a line of
      the wrong-path data region);
    * a destination, for a load or an integer op ``randrange(1, 32)`` and
      for a floating-point op ``randrange(32)``.

    The body draws through ``getrandbits`` directly: ``choice`` and
    ``randrange(n)`` are CPython's ``_randbelow(n)`` rejection loop
    (``k = n.bit_length()`` bits, redrawn while the value is ``>= n``),
    and ``randrange(1, 32)`` is ``1 + _randbelow(31)``.
    ``tests/test_core_wrong_path.py`` pins a digest of streams recorded
    through those calls, and checks on the running CPython that the
    written-out loops still draw what the calls draw: a CPython change
    to ``_randbelow`` fails that check.

    A mix with no positive weight outside ``NOP`` builds a generator but
    has no stream: :meth:`iter_stream` raises ``ValueError``.
    """

    def __init__(self, profile: WorkloadProfile | None = None, seed: int = 0):
        self._mix = profile.mix if profile is not None else _WRONG_PATH_MIX
        # Nops waste no back-end bandwidth.
        mix = {op: weight for op, weight in self._mix.items() if op is not OpClass.NOP}
        self._ops = tuple(mix.keys())
        self._kinds = tuple(
            _WP_BRANCH if op is OpClass.BRANCH
            else _WP_LOAD if op is OpClass.LOAD
            else _WP_STORE if op is OpClass.STORE
            else _WP_FP if is_fp(op)
            else _WP_INT
            for op in self._ops
        )
        # Cumulative weights reproduce random.choices() exactly (same
        # accumulate -> random() * total -> bisect arithmetic) without the
        # per-call accumulation.
        self._cum_weights = list(itertools.accumulate(mix.values()))
        self._total_weight = self._cum_weights[-1] + 0.0 if mix else 0.0
        self._seed = seed
        self._hot_lines = profile.hot_lines if profile is not None else 256

    def stream(self, branch: MicroOp, seq: int, depth: int) -> list[MicroOp]:
        """Synthesize up to ``depth`` wrong-path micro-ops for ``branch``."""
        return list(self.iter_stream(branch, seq, depth))

    def iter_stream(self, branch: MicroOp, seq: int, depth: int):
        """Lazily yield up to ``depth`` wrong-path micro-ops for ``branch``.

        The RNG draws for op *i* happen only when op *i* is requested, in
        the exact order :meth:`stream` performs them, so a consumer that
        stops after *k* ops sees the identical prefix of the eager list —
        the core exploits this to synthesize only what it fetches before
        the branch resolves (~1/6 of the depth on the branchy preset).

        Raises:
            ValueError: on the first pull, if the mix has no positive
                weight outside ``NOP`` (``random.choices`` refuses a zero
                total too).
        """
        total = self._total_weight
        if total <= 0.0:
            named = {op.name: weight for op, weight in self._mix.items()}
            raise ValueError(f"wrong-path mix {named} has no positive weight outside NOP")
        if branch.taken:
            wrong_pc = branch.pc + 4  # predicted not-taken, fell through
        else:
            wrong_pc = branch.target if branch.target is not None else branch.pc + 4
        rng = random.Random(self._seed * 0x9E3779B1 ^ (branch.pc << 4) ^ seq)
        draw = rng.random
        bits = rng.getrandbits
        ops = self._ops
        kinds = self._kinds
        cum_weights = self._cum_weights
        hi = len(ops) - 1
        # Bits each _randbelow(n) draws: n.bit_length().
        hot_lines = self._hot_lines
        hot_bits = hot_lines.bit_length()
        data_bits = _WRONG_PATH_DATA_LINES.bit_length()
        int_bits = (NUM_INT_REGS - 1).bit_length()
        fp_bits = NUM_FP_REGS.bit_length()
        recent_bits = _RECENT_BITS
        # The last 8 destinations, oldest first: choice() indexes them.
        recent: list[int] = []
        n_recent = 0
        micro_op = MicroOp  # positional fields: op, dest, srcs, pc, addr
        for pc in range(wrong_pc, wrong_pc + 4 * depth, 4):
            index = bisect(cum_weights, draw() * total, 0, hi)
            kind = kinds[index]
            if n_recent and draw() < 0.4:
                k = recent_bits[n_recent]
                r = bits(k)
                while r >= n_recent:
                    r = bits(k)
                src0 = recent[r]
            else:
                src0 = REG_ZERO
            if n_recent and draw() < 0.4:
                k = recent_bits[n_recent]
                r = bits(k)
                while r >= n_recent:
                    r = bits(k)
                src1 = recent[r]
            else:
                src1 = REG_ZERO
            if kind == _WP_BRANCH:
                yield micro_op(ops[index], None, (src0,), pc)
                continue
            if kind >= _WP_LOAD:
                if draw() < 0.3:
                    # Stray into the real working set: contend for its lines.
                    r = bits(hot_bits)
                    while r >= hot_lines:
                        r = bits(hot_bits)
                    addr = _HOT_BASE + _LINE_BYTES * r
                else:
                    r = bits(data_bits)
                    while r >= _WRONG_PATH_DATA_LINES:
                        r = bits(data_bits)
                    addr = _WRONG_PATH_DATA_BASE + _LINE_BYTES * r
                if kind == _WP_STORE:
                    yield micro_op(ops[index], None, (src0, src1), pc, addr)
                    continue
                srcs = (src0,)
            else:
                srcs = (src0, src1)
                addr = None
            if kind == _WP_FP:
                r = bits(fp_bits)
                while r >= NUM_FP_REGS:
                    r = bits(fp_bits)
                dest = FP_REG_BASE + r
            else:
                # r1..r31: never the zero register.
                r = bits(int_bits)
                while r >= NUM_INT_REGS - 1:
                    r = bits(int_bits)
                dest = 1 + r
            if n_recent < 8:
                n_recent += 1
            else:
                del recent[0]
            recent.append(dest)
            yield micro_op(ops[index], dest, srcs, pc, addr)


def generate(profile: WorkloadProfile, num_ops: int, seed: int = 0) -> list[MicroOp]:
    """Generate a deterministic trace of ``num_ops`` micro-ops."""
    if num_ops < 0:
        raise ValueError(f"num_ops must be non-negative, got {num_ops}")
    return TraceGenerator(profile, seed=seed).take(num_ops)


def generate_window(
    profile: WorkloadProfile, start: int, count: int, seed: int = 0
) -> list[MicroOp]:
    """The slice ``generate(profile, start + count, seed)[start:]``, cheaply.

    Fast-forwards a fresh generator over the first ``start`` ops (see
    :meth:`TraceGenerator.fast_forward`) and keeps the next ``count``.
    Element-for-element equal to the monolithic slice; sharded runs
    rebuild each window this way.
    """
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    generator = TraceGenerator(profile, seed=seed)
    generator.fast_forward(start)
    return generator.take(count)
