"""Small-step interpreter for the stack machine with a resource budget.

States are four-tuples (consumed, total allowed, heap, frame stack); every
step that consumes resource is checked against the budget, and exceeding
it is a distinguished outcome rather than an exception.  The acquisition
variant (`acquire`) can raise the budget mid-run under a deterministic,
externally supplied policy.

Values are Python ints, `Addr` objects, or None for null.  Heaps map
(address, field name) pairs to values.  All step functions are pure: they
return fresh states and never mutate their arguments, which the test
harness exploits to diff heaps across steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .bytecode import Instr, Program
from .resources import ZERO, ResourceValue, res_of_int


@dataclass(frozen=True)
class Addr:
    index: int

    def __str__(self) -> str:
        return f"a{self.index}"


Value = object  # int | Addr | None
Heap = dict  # (Addr, str) -> Value


def is_ref(v: Value) -> bool:
    return v is None or isinstance(v, Addr)


def value_str(v: Value) -> str:
    return "null" if v is None else str(v)


@dataclass(frozen=True)
class Frame:
    proc: str
    stack: tuple  # head = top of stack
    locals: Mapping[int, Value]
    pc: int


@dataclass(frozen=True)
class MachineState:
    consumed: ResourceValue
    total_allowed: ResourceValue
    heap: Heap
    frames: tuple  # tuple[Frame, ...], head = active frame
    next_addr: int = 0
    acquire_count: int = 0


@dataclass(frozen=True)
class Halt:
    heap: Heap
    consumed: ResourceValue
    total: ResourceValue
    value: Value


@dataclass(frozen=True)
class Stuck:
    reason: str
    proc: str
    pc: int


@dataclass(frozen=True)
class BudgetViolation:
    proc: str
    pc: int
    consumed: ResourceValue
    total: ResourceValue


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


class VmError(Exception):
    """Raised by drivers for malformed invocations (not by `step`)."""


class _StuckSignal(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class AcquisitionPolicy:
    """Deterministic grant/deny decisions for `acquire` requests."""

    def __init__(self, decide):
        self._decide = decide

    def decide(self, request_index: int, requested: ResourceValue) -> bool:
        return self._decide(request_index, requested)

    @classmethod
    def from_script(cls, script: Sequence[bool]) -> "AcquisitionPolicy":
        if not script:
            raise VmError("acquisition script must be nonempty")
        moves = tuple(bool(b) for b in script)
        return cls(lambda i, _req: moves[i % len(moves)])

    @classmethod
    def seeded(cls, seed: int) -> "AcquisitionPolicy":
        rng = random.Random(seed)
        draws: list[bool] = []

        def decide(i: int, _req) -> bool:
            while len(draws) <= i:
                draws.append(rng.random() < 0.5)
            return draws[i]

        return cls(decide)

    @classmethod
    def always(cls, grant: bool) -> "AcquisitionPolicy":
        return cls(lambda _i, _req: grant)


ALWAYS_GRANT = AcquisitionPolicy.always(True)
ALWAYS_DENY = AcquisitionPolicy.always(False)


def parse_policy(text: str) -> AcquisitionPolicy:
    """Parse a policy script like "grant,deny,grant" (or "1,0,1")."""
    moves = []
    for word in text.split(","):
        word = word.strip().lower()
        if word in ("grant", "g", "1", "yes"):
            moves.append(True)
        elif word in ("deny", "d", "0", "no"):
            moves.append(False)
        else:
            raise VmError(f"bad policy entry {word!r} (want grant/deny)")
    return AcquisitionPolicy.from_script(moves)


# ---------------------------------------------------------------------------
# intra-frame steps


def _pop(stack: tuple, n: int = 1) -> tuple:
    if len(stack) < n:
        raise _StuckSignal("stack underflow")
    return stack[:n] + (stack[n:],)


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _int_div,
    "rem": _int_rem,
}


def step_frame(frame: Frame, ins: Instr) -> Frame:
    """One intra-frame step; raises _StuckSignal when no rule applies."""
    stack, locals_, pc = frame.stack, frame.locals, frame.pc
    op = ins.op
    if op == "iconst":
        return replace(frame, stack=(ins.value,) + stack, pc=pc + 1)
    if op == "aconst_null":
        return replace(frame, stack=(None,) + stack, pc=pc + 1)
    if op == "pop":
        v, rest = _pop(stack)
        return replace(frame, stack=rest, pc=pc + 1)
    if op == "load":
        if ins.slot not in locals_:
            raise _StuckSignal(f"load of uninitialised local {ins.slot}")
        return replace(frame, stack=(locals_[ins.slot],) + stack, pc=pc + 1)
    if op == "store":
        v, rest = _pop(stack)
        new_locals = dict(locals_)
        new_locals[ins.slot] = v
        return replace(frame, stack=rest, locals=new_locals, pc=pc + 1)
    if op == "ibinop":
        z1, z2, rest = _pop(stack, 2)
        if not (isinstance(z1, int) and isinstance(z2, int)):
            raise _StuckSignal(f"ibinop {ins.alu} on non-integer operands")
        if ins.alu in ("div", "rem") and z2 == 0:
            raise _StuckSignal("division by zero")
        return replace(frame, stack=(_ALU[ins.alu](z1, z2),) + rest, pc=pc + 1)
    if op == "binarycmp":
        z1, z2, rest = _pop(stack, 2)
        ints = isinstance(z1, int) and isinstance(z2, int)
        refs = is_ref(z1) and is_ref(z2)
        if ins.cmp in ("eq", "ne"):
            if not (ints or refs):
                raise _StuckSignal(f"binarycmp {ins.cmp} on mixed operand types")
        elif not ints:
            raise _StuckSignal(f"binarycmp {ins.cmp} requires integer operands")
        taken = _CMP[ins.cmp](z1, z2)
        return replace(frame, stack=rest, pc=ins.target if taken else pc + 1)
    if op == "unarycmp":
        z, rest = _pop(stack)
        if not isinstance(z, int):
            raise _StuckSignal(f"unarycmp {ins.cmp} requires an integer operand")
        taken = _CMP[ins.cmp](z, 0)
        return replace(frame, stack=rest, pc=ins.target if taken else pc + 1)
    if op == "ifnull":
        a, rest = _pop(stack)
        if not is_ref(a):
            raise _StuckSignal("ifnull on an integer operand")
        return replace(frame, stack=rest, pc=ins.target if a is None else pc + 1)
    if op == "goto":
        return replace(frame, pc=ins.target)
    raise _StuckSignal(f"{op} is not an intra-frame instruction")


# ---------------------------------------------------------------------------
# heap / resource mutating steps


_DEFAULTS = {"int": 0, "ref": None}

MUT_OPS = ("new", "getfield", "putfield", "free", "consume", "consume_dyn", "acquire")


def step_mut(
    frame: Frame,
    heap: Heap,
    ins: Instr,
    next_addr: int,
    grant: Optional[bool] = None,
) -> tuple[Frame, Heap, ResourceValue, ResourceValue, Optional[ResourceValue], int]:
    """One mutating step.

    Returns (frame', heap', consumed, acquired, request, next_addr').  For
    `acquire` the caller supplies the policy's decision via `grant`; the
    request amount is reported back regardless.
    """
    stack, pc = frame.stack, frame.pc
    op = ins.op
    if op == "new":
        a = Addr(next_addr)
        new_heap = dict(heap)
        for fname, ftype in ins.desc.entries:
            new_heap[(a, fname)] = _DEFAULTS[ftype]
        return (
            replace(frame, stack=(a,) + stack, pc=pc + 1),
            new_heap,
            ZERO,
            ZERO,
            None,
            next_addr + 1,
        )
    if op == "getfield":
        a, rest = _pop(stack)
        if not isinstance(a, Addr):
            raise _StuckSignal(f"getfield {ins.field} on {value_str(a)}")
        if (a, ins.field) not in heap:
            raise _StuckSignal(f"getfield {ins.field}: cell absent at {a}")
        v = heap[(a, ins.field)]
        return replace(frame, stack=(v,) + rest, pc=pc + 1), heap, ZERO, ZERO, None, next_addr
    if op == "putfield":
        a, v, rest = _pop(stack, 2)
        if not isinstance(a, Addr):
            raise _StuckSignal(f"putfield {ins.field} on {value_str(a)}")
        if (a, ins.field) not in heap:
            raise _StuckSignal(f"putfield {ins.field}: cell absent at {a}")
        new_heap = dict(heap)
        new_heap[(a, ins.field)] = v
        return replace(frame, stack=rest, pc=pc + 1), new_heap, ZERO, ZERO, None, next_addr
    if op == "free":
        a, rest = _pop(stack)
        if not isinstance(a, Addr):
            raise _StuckSignal(f"free on {value_str(a)}")
        cells = [(a, fname) for fname, _ in ins.desc.entries]
        missing = [f for (_, f) in cells if (a, f) not in heap]
        if missing:
            raise _StuckSignal(f"free at {a}: field {missing[0]} absent")
        new_heap = {c: v for c, v in heap.items() if c not in cells}
        return replace(frame, stack=rest, pc=pc + 1), new_heap, ZERO, ZERO, None, next_addr
    if op == "consume":
        return replace(frame, pc=pc + 1), heap, Fraction(ins.amount), ZERO, None, next_addr
    if op == "consume_dyn":
        z, rest = _pop(stack)
        if not isinstance(z, int):
            raise _StuckSignal("consume_dyn requires an integer operand")
        return replace(frame, stack=rest, pc=pc + 1), heap, res_of_int(z), ZERO, None, next_addr
    if op == "acquire":
        z, rest = _pop(stack)
        if not isinstance(z, int):
            raise _StuckSignal("acquire requires an integer operand")
        request = res_of_int(z)
        if grant:
            new_frame = replace(frame, stack=(1,) + rest, pc=pc + 1)
            return new_frame, heap, ZERO, request, request, next_addr
        new_frame = replace(frame, stack=(0,) + rest, pc=pc + 1)
        return new_frame, heap, ZERO, ZERO, request, next_addr
    raise _StuckSignal(f"{op} is not a mutating instruction")


# ---------------------------------------------------------------------------
# program steps


def step(state: MachineState, program: Program, policy: AcquisitionPolicy = ALWAYS_DENY):
    """One small step: a new MachineState, or a terminal outcome."""
    frame = state.frames[0]
    proc = program.proc(frame.proc)
    if not (0 <= frame.pc < len(proc.code)):
        return Stuck(f"pc {frame.pc} out of range", frame.proc, frame.pc)
    ins = proc.code[frame.pc]
    try:
        if ins.op == "return":
            if not frame.stack:
                return Stuck("return with an empty stack", frame.proc, frame.pc)
            v = frame.stack[0]
            if len(state.frames) == 1:
                return Halt(state.heap, state.consumed, state.total_allowed, v)
            caller = state.frames[1]
            resumed = replace(caller, stack=(v,) + caller.stack)
            return replace(state, frames=(resumed,) + state.frames[2:])
        if ins.op == "call":
            callee = program.proc(ins.callee)
            if len(frame.stack) < callee.arity:
                return Stuck(f"call {ins.callee}: stack underflow", frame.proc, frame.pc)
            args = frame.stack[: callee.arity]
            rest = frame.stack[callee.arity :]
            fresh = Frame(
                proc=ins.callee,
                stack=(),
                locals={i: v for i, v in enumerate(args)},
                pc=0,
            )
            suspended = replace(frame, stack=rest, pc=frame.pc + 1)
            return replace(state, frames=(fresh, suspended) + state.frames[1:])
        if ins.op in MUT_OPS:
            grant = None
            if ins.op == "acquire":
                z = frame.stack[0] if frame.stack else 0
                request_preview = res_of_int(z) if isinstance(z, int) else ZERO
                grant = policy.decide(state.acquire_count, request_preview)
            new_frame, new_heap, consumed, acquired, request, next_addr = step_mut(
                frame, state.heap, ins, state.next_addr, grant
            )
            new_consumed = state.consumed + consumed
            new_total = state.total_allowed + acquired
            if new_consumed > new_total:
                return BudgetViolation(frame.proc, frame.pc, new_consumed, new_total)
            return MachineState(
                consumed=new_consumed,
                total_allowed=new_total,
                heap=new_heap,
                frames=(new_frame,) + state.frames[1:],
                next_addr=next_addr,
                acquire_count=state.acquire_count + (1 if request is not None else 0),
            )
        new_frame = step_frame(frame, ins)
        return replace(state, frames=(new_frame,) + state.frames[1:])
    except _StuckSignal as s:
        return Stuck(s.reason, frame.proc, frame.pc)


@dataclass(frozen=True)
class RunResult:
    outcome: object  # Halt | Stuck | BudgetViolation | FuelExhausted
    steps: int
    consumed: ResourceValue
    total: ResourceValue
    states: tuple = ()  # populated only when tracing

    @property
    def kind(self) -> str:
        return type(self.outcome).__name__

    def to_json(self) -> dict:
        out = {
            "outcome": self.kind,
            "steps": self.steps,
            "consumed": str(self.consumed),
            "total": str(self.total),
        }
        if isinstance(self.outcome, Halt):
            v = self.outcome.value
            out["return"] = value_str(v) if not isinstance(v, int) else v
        if isinstance(self.outcome, Stuck):
            out["reason"] = self.outcome.reason
            out["at"] = f"{self.outcome.proc}@{self.outcome.pc}"
        if isinstance(self.outcome, BudgetViolation):
            out["at"] = f"{self.outcome.proc}@{self.outcome.pc}"
        return out


def initial_state(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
) -> MachineState:
    entry = program.proc(program.entry)
    if len(args) != entry.arity:
        raise VmError(f"{program.entry} expects {entry.arity} arguments, got {len(args)}")
    frame = Frame(
        proc=program.entry,
        stack=(),
        locals={i: v for i, v in enumerate(args)},
        pc=0,
    )
    return MachineState(
        consumed=ZERO,
        total_allowed=Fraction(budget),
        heap=dict(heap or {}),
        frames=(frame,),
        next_addr=next_addr,
    )


def run(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy = ALWAYS_DENY,
    fuel: int = 100_000,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
    trace: bool = False,
) -> RunResult:
    """Drive `step` until a terminal outcome or `fuel` steps elapse."""
    state = initial_state(program, args, budget, heap, next_addr)
    states = [state] if trace else []
    for steps in range(fuel):
        nxt = step(state, program, policy)
        if not isinstance(nxt, MachineState):
            if isinstance(nxt, Halt):
                consumed, total = nxt.consumed, nxt.total
            elif isinstance(nxt, BudgetViolation):
                consumed, total = nxt.consumed, nxt.total
            else:
                consumed, total = state.consumed, state.total_allowed
            return RunResult(nxt, steps + 1, consumed, total, tuple(states))
        state = nxt
        if trace:
            states.append(state)
    return RunResult(FuelExhausted(fuel), fuel, state.consumed, state.total_allowed, tuple(states))
