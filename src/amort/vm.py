"""Small-step interpreter for the stack machine with a resource budget.

States are four-tuples (consumed, total allowed, heap, frame stack); every
step that consumes resource is checked against the budget, and exceeding
it is a distinguished outcome rather than an exception.  The acquisition
variant (`acquire`) can raise the budget mid-run under a deterministic,
externally supplied policy.

Values are Python ints, `Addr` objects, or None for null.  Heaps map
(address, field name) pairs to values.

There is one machine, one rule per instruction and one driver.  Each rule
is an in-place update of the machine: a heap dict, and a list of frames,
each with a list stack (top at the end), a locals dict and a pc.  `run`
copies the caller's heap once into a fresh machine, and `_drive` applies
the rules to it, so a step costs the same at any heap size or call depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bytecode import Program
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
    """A malformed invocation: a wrong argument count, a negative budget or
    fuel, or a bad acquisition policy script."""


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
# the machine: every rule updates it in place


class _Frame:
    """A live frame; `stack` is a list whose top is its last element."""

    __slots__ = ("proc", "code", "stack", "locals", "pc")

    def __init__(self, proc: str, code: tuple, stack: list, locals_: dict, pc: int):
        self.proc, self.code, self.stack, self.locals, self.pc = proc, code, stack, locals_, pc


class _Machine:
    """The live state of a run: heap, frames (active last), consumed and total
    allowed, the next fresh address and the number of `acquire` requests so
    far, plus the procedure table and the acquisition policy."""

    __slots__ = (
        "procs", "policy", "heap", "frames", "consumed", "total", "next_addr", "acquire_count"
    )

    def __init__(self, procs, policy, heap, frames, consumed, total, next_addr, acquire_count):
        self.procs, self.policy, self.heap, self.frames = procs, policy, heap, frames
        self.consumed, self.total = consumed, total
        self.next_addr, self.acquire_count = next_addr, acquire_count


def _proc_table(program: Program) -> dict:
    # the first procedure of a name wins, as in `Program.proc`
    return {p.name: p for p in reversed(program.procedures)}


def _pop(stack: list) -> Value:
    if not stack:
        raise _StuckSignal("stack underflow")
    return stack.pop()


def _pop2(stack: list) -> tuple[Value, Value]:
    """Pop the top two values, top first."""
    if len(stack) < 2:
        raise _StuckSignal("stack underflow")
    return stack.pop(), stack.pop()


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


# Each rule takes (machine, active frame, instruction), updates them in place
# and returns None, or a terminal outcome; it raises _StuckSignal, before
# touching the budget, when no rule applies.


def _iconst(m, f, ins):
    f.stack.append(ins.value)
    f.pc += 1


def _aconst_null(m, f, ins):
    f.stack.append(None)
    f.pc += 1


def _pop_rule(m, f, ins):
    _pop(f.stack)
    f.pc += 1


def _load(m, f, ins):
    try:
        v = f.locals[ins.slot]
    except KeyError:
        raise _StuckSignal(f"load of uninitialised local {ins.slot}") from None
    f.stack.append(v)
    f.pc += 1


def _store(m, f, ins):
    f.locals[ins.slot] = _pop(f.stack)
    f.pc += 1


def _ibinop(m, f, ins):
    z1, z2 = _pop2(f.stack)
    if not (isinstance(z1, int) and isinstance(z2, int)):
        raise _StuckSignal(f"ibinop {ins.alu} on non-integer operands")
    if ins.alu in ("div", "rem") and z2 == 0:
        raise _StuckSignal("division by zero")
    f.stack.append(_ALU[ins.alu](z1, z2))
    f.pc += 1


def _binarycmp(m, f, ins):
    z1, z2 = _pop2(f.stack)
    ints = isinstance(z1, int) and isinstance(z2, int)
    if ins.cmp in ("eq", "ne"):
        if not (ints or (is_ref(z1) and is_ref(z2))):
            raise _StuckSignal(f"binarycmp {ins.cmp} on mixed operand types")
    elif not ints:
        raise _StuckSignal(f"binarycmp {ins.cmp} requires integer operands")
    f.pc = ins.target if _CMP[ins.cmp](z1, z2) else f.pc + 1


def _unarycmp(m, f, ins):
    z = _pop(f.stack)
    if not isinstance(z, int):
        raise _StuckSignal(f"unarycmp {ins.cmp} requires an integer operand")
    f.pc = ins.target if _CMP[ins.cmp](z, 0) else f.pc + 1


def _ifnull(m, f, ins):
    a = _pop(f.stack)
    if not is_ref(a):
        raise _StuckSignal("ifnull on an integer operand")
    f.pc = ins.target if a is None else f.pc + 1


def _goto(m, f, ins):
    f.pc = ins.target


_DEFAULTS = {"int": 0, "ref": None}


def _new(m, f, ins):
    a = Addr(m.next_addr)
    m.next_addr += 1
    heap = m.heap
    for fname, ftype in ins.desc.entries:
        heap[(a, fname)] = _DEFAULTS[ftype]
    f.stack.append(a)
    f.pc += 1


def _getfield(m, f, ins):
    a = _pop(f.stack)
    if not isinstance(a, Addr):
        raise _StuckSignal(f"getfield {ins.field} on {value_str(a)}")
    try:
        v = m.heap[(a, ins.field)]
    except KeyError:
        raise _StuckSignal(f"getfield {ins.field}: cell absent at {a}") from None
    f.stack.append(v)
    f.pc += 1


def _putfield(m, f, ins):
    a, v = _pop2(f.stack)
    if not isinstance(a, Addr):
        raise _StuckSignal(f"putfield {ins.field} on {value_str(a)}")
    cell = (a, ins.field)
    if cell not in m.heap:
        raise _StuckSignal(f"putfield {ins.field}: cell absent at {a}")
    m.heap[cell] = v
    f.pc += 1


def _free(m, f, ins):
    a = _pop(f.stack)
    if not isinstance(a, Addr):
        raise _StuckSignal(f"free on {value_str(a)}")
    heap = m.heap
    cells = [(a, fname) for fname, _ in ins.desc.entries]
    missing = [fname for (_, fname) in cells if (a, fname) not in heap]
    if missing:
        raise _StuckSignal(f"free at {a}: field {missing[0]} absent")
    for cell in cells:
        del heap[cell]
    f.pc += 1


def _charge(m, f, amount):
    """Consume `amount` at the active instruction; a violation if it overdraws."""
    if amount:
        m.consumed += amount
        if m.consumed > m.total:
            return BudgetViolation(f.proc, f.pc, m.consumed, m.total)
    return None


def _consume(m, f, ins):
    over = _charge(m, f, ins.amount)
    f.pc += 1
    return over


def _consume_dyn(m, f, ins):
    z = _pop(f.stack)
    if not isinstance(z, int):
        raise _StuckSignal("consume_dyn requires an integer operand")
    over = _charge(m, f, res_of_int(z))
    f.pc += 1
    return over


def _acquire(m, f, ins):
    z = _pop(f.stack)
    if not isinstance(z, int):
        raise _StuckSignal("acquire requires an integer operand")
    request = res_of_int(z)
    granted = m.policy.decide(m.acquire_count, request)
    m.acquire_count += 1
    if granted and request:
        m.total += request
    f.stack.append(1 if granted else 0)
    f.pc += 1


def _call(m, f, ins):
    callee = m.procs[ins.callee]
    stack, n = f.stack, callee.arity
    if len(stack) < n:
        raise _StuckSignal(f"call {ins.callee}: stack underflow")
    # the top of the stack becomes local 0
    locals_ = {i: stack[-1 - i] for i in range(n)}
    del stack[len(stack) - n :]
    f.pc += 1
    m.frames.append(_Frame(ins.callee, callee.code, [], locals_, 0))


def _return(m, f, ins):
    if not f.stack:
        raise _StuckSignal("return with an empty stack")
    v = f.stack[-1]
    frames = m.frames
    frames.pop()
    if not frames:
        return Halt(m.heap, m.consumed, m.total, v)
    frames[-1].stack.append(v)
    return None


_RULES = {
    "iconst": _iconst,
    "aconst_null": _aconst_null,
    "pop": _pop_rule,
    "load": _load,
    "store": _store,
    "ibinop": _ibinop,
    "binarycmp": _binarycmp,
    "unarycmp": _unarycmp,
    "ifnull": _ifnull,
    "goto": _goto,
    "new": _new,
    "getfield": _getfield,
    "putfield": _putfield,
    "free": _free,
    "consume": _consume,
    "consume_dyn": _consume_dyn,
    "acquire": _acquire,
    "call": _call,
    "return": _return,
}


def _no_rule(m, f, ins):
    raise _StuckSignal(f"no rule for {ins.op}")


def _drive(m: _Machine, fuel: int) -> tuple[object, int]:
    """Apply rules until a terminal outcome or `fuel` steps.

    Returns (outcome, steps), with outcome None when the fuel ran out.
    """
    frames, rules = m.frames, _RULES
    for steps in range(1, fuel + 1):
        f = frames[-1]
        pc, code = f.pc, f.code
        if not 0 <= pc < len(code):
            return Stuck(f"pc {pc} out of range", f.proc, pc), steps
        ins = code[pc]
        try:
            outcome = rules.get(ins.op, _no_rule)(m, f, ins)
        except _StuckSignal as s:
            return Stuck(s.reason, f.proc, pc), steps
        if outcome is not None:
            return outcome, steps
    return None, fuel


# ---------------------------------------------------------------------------
# whole runs


@dataclass(frozen=True)
class RunResult:
    outcome: object  # Halt | Stuck | BudgetViolation | FuelExhausted
    steps: int
    consumed: ResourceValue
    total: ResourceValue

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


def _start(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy,
    heap: Optional[Heap],
    next_addr: int,
) -> _Machine:
    """The machine at the entry procedure, with its own copy of `heap`."""
    procs = _proc_table(program)
    entry = procs[program.entry]
    if len(args) != entry.arity:
        raise VmError(f"{program.entry} expects {entry.arity} arguments, got {len(args)}")
    total = Fraction(budget)
    if total < 0:
        raise VmError(f"budget must be nonnegative, got {total}")
    frame = _Frame(program.entry, entry.code, [], dict(enumerate(args)), 0)
    return _Machine(procs, policy, dict(heap or {}), [frame], ZERO, total, next_addr, 0)


def run(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy = ALWAYS_DENY,
    fuel: int = 100_000,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
) -> RunResult:
    """Apply the rules to one machine until a terminal outcome or `fuel` steps
    elapse.  The caller's `heap` is copied once and never mutated."""
    if fuel < 0:
        raise VmError(f"fuel must be nonnegative, got {fuel}")
    m = _start(program, args, budget, policy, heap, next_addr)
    outcome, steps = _drive(m, fuel)
    if outcome is None:
        outcome = FuelExhausted(fuel)
    return RunResult(outcome, steps, m.consumed, m.total)
