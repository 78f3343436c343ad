"""Static micro-op records produced by workloads and consumed by cores.

A :class:`MicroOp` is one element of a trace.  It is *static* in the sense
that it carries everything the simulator needs to know about the
instruction before execution: operation class, register operands, effective
address (for memory ops) and resolved outcome (for branches).  The dynamic
execution state (issue time, completion time, squash status, ...) lives in
the core's per-in-flight-instruction records, not here, so a single trace
can be replayed through many core models.

Trace ops are read-only.  A trace may hold one object many times (the
synthetic generator hands out one shared op per plain static slot and
four per branch slot), and one trace is replayed through several cores,
so assigning to a field would change other instances and other runs.
Build a changed copy with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.isa.registers import reg_name


@dataclass(slots=True)
class MicroOp:
    """One trace instruction; read-only once it is in a trace (see the
    module docstring).

    Attributes:
        op: Operation class.
        dest: Architectural destination register, or ``None`` if the
            instruction writes no register (stores, branches, nops).
        srcs: Architectural source registers.  Register 0 is the integer
            zero register and never creates a dependency.
        pc: Static instruction address (used by the I-cache model and the
            branch predictor).
        addr: Effective memory address for loads and stores, else ``None``.
        taken: Resolved branch direction for branches, else ``None``.
        target: Branch target address for branches, else ``None``.
        mispredicted: Trace-supplied misprediction flag.  Used when the
            core runs with the synthetic-outcome front end (the default in
            the paper-reproduction experiments, where the misprediction
            *rate* is a controlled workload parameter).  Ignored when the
            core is configured to use the real combining predictor.
    """

    op: OpClass
    dest: int | None = None
    srcs: tuple[int, ...] = field(default=())
    pc: int = 0
    addr: int | None = None
    taken: bool | None = None
    target: int | None = None
    mispredicted: bool = False

    def is_mem(self) -> bool:
        """True if this micro-op is a load or a store."""
        return self.op is OpClass.LOAD or self.op is OpClass.STORE

    def is_branch(self) -> bool:
        """True if this micro-op is a control-flow operation."""
        return self.op is OpClass.BRANCH

    def writes_register(self) -> bool:
        """True if this micro-op produces an architectural register value."""
        return self.dest is not None


def format_microop(uop: MicroOp) -> str:
    """Render ``uop`` as a short assembly-like string (for logs and debuggers)."""
    parts = [uop.op.name.lower()]
    if uop.dest is not None:
        parts.append(reg_name(uop.dest))
    if uop.srcs:
        parts.append(", ".join(reg_name(s) for s in uop.srcs))
    if uop.addr is not None:
        parts.append(f"[{uop.addr:#x}]")
    if uop.taken is not None:
        direction = "T" if uop.taken else "N"
        flag = "!" if uop.mispredicted else ""
        parts.append(f"{direction}{flag}->{uop.target:#x}" if uop.target is not None else direction)
    return " ".join(parts)
