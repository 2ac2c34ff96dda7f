"""Small-step interpreter for the stack machine with a resource budget.

A state is consumed, total allowed, heap and frame stack; every step that
consumes resource is checked against the budget, and exceeding it is a
distinguished outcome rather than an exception.  The acquisition variant
(`acquire`) can raise the budget mid-run under a deterministic, externally
supplied policy.

Values are Python ints, `Addr` objects, or None for null.  Heaps map
(address, field name) pairs to values.

There is one machine, one rule per instruction and one driver.  The
machine is a heap dict and a list of frames, each with a list stack (top
at the end), a locals dict and a pc.  `run` copies the caller's heap once
into a fresh machine and decodes each procedure once: its code becomes a
list of (rule, operand) pairs taken from `_RULES`, with the operand read
off the instruction in advance (a `call` carries its callee's decoded code
and arity).  `_drive` holds the active frame's code, stack, locals and pc
in local variables and applies the pairs: a rule updates the stack,
locals and heap in place and returns the next pc, so a step costs the
same at any heap size or call depth.  Only `call`, `return` and a budget
overdraw touch the frame list or end the run; they save the pc into the
frame themselves and return None, and the driver reloads the active frame.

The machine counts consumed and total allowed as integers in units of
1/scale, where scale is the lcm of the budget's denominator and of every
`consume` amount's in the program; `consume_dyn` and a granted `acquire`
of z add z * scale.  Every outcome reports the exact rational amounts.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .bytecode import Instr, Program
from .resources import ResourceValue, res_of_int


class Addr:
    """A heap address: equal to, and hashed as, any other `Addr` with the
    same index.  Every heap access hashes its (address, field) key, so the
    hash is the index itself.  `index` is never reassigned."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other):
        if isinstance(other, Addr):
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"Addr(index={self.index})"

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


# A live frame is a list [proc, code, stack, locals, pc]: the procedure's
# name, its decoded code, a list stack whose top is its last element, a
# locals dict and the pc (slots 0 to 4).  `_drive` unpacks the active one
# into local variables.


class _Machine:
    """The live state of a run: heap, frames (active last), consumed and total
    allowed as integers in units of 1/`scale`, the next fresh address and the
    number of `acquire` requests so far, plus the acquisition policy.  A
    terminal outcome (`Halt`, `BudgetViolation`) is recorded in `outcome`."""

    __slots__ = (
        "policy", "heap", "frames", "consumed", "total", "scale", "next_addr", "acquire_count",
        "outcome",
    )

    def __init__(self, policy, heap, frames, consumed, total, scale, next_addr, acquire_count):
        self.policy, self.heap, self.frames = policy, heap, frames
        self.consumed, self.total, self.scale = consumed, total, scale
        self.next_addr, self.acquire_count = next_addr, acquire_count
        self.outcome = None

    def amounts(self) -> tuple[ResourceValue, ResourceValue]:
        """(consumed, total allowed) as exact resource amounts."""
        return Fraction(self.consumed, self.scale), Fraction(self.total, self.scale)


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
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


_ALU = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _int_div,
    "rem": _int_rem,
}


# Each rule takes (machine, active frame's stack, its locals, decoded
# operand, pc), updates them in place and returns the next pc.  `call`,
# `return` and a budget overdraw instead save the pc into the frame, switch
# frames or record a terminal outcome on the machine, and return None.  A
# rule raises _StuckSignal, before touching the budget, when none applies.


def _iconst(m, stack, locals_, value, pc):
    stack.append(value)
    return pc + 1


def _aconst_null(m, stack, locals_, _, pc):
    stack.append(None)
    return pc + 1


def _pop_rule(m, stack, locals_, _, pc):
    if not stack:
        raise _StuckSignal("stack underflow")
    stack.pop()
    return pc + 1


def _load(m, stack, locals_, slot, pc):
    try:
        stack.append(locals_[slot])
    except KeyError:
        raise _StuckSignal(f"load of uninitialised local {slot}") from None
    return pc + 1


def _store(m, stack, locals_, slot, pc):
    if not stack:
        raise _StuckSignal("stack underflow")
    locals_[slot] = stack.pop()
    return pc + 1


def _ibinop(m, stack, locals_, operand, pc):
    alu, fn = operand
    z1, z2 = _pop2(stack)
    if not (isinstance(z1, int) and isinstance(z2, int)):
        raise _StuckSignal(f"ibinop {alu} on non-integer operands")
    if alu in ("div", "rem") and z2 == 0:
        raise _StuckSignal("division by zero")
    stack.append(fn(z1, z2))
    return pc + 1


def _binarycmp(m, stack, locals_, operand, pc):
    cmp, fn, target = operand
    z1, z2 = _pop2(stack)
    ints = isinstance(z1, int) and isinstance(z2, int)
    if cmp in ("eq", "ne"):
        if not (ints or (is_ref(z1) and is_ref(z2))):
            raise _StuckSignal(f"binarycmp {cmp} on mixed operand types")
    elif not ints:
        raise _StuckSignal(f"binarycmp {cmp} requires integer operands")
    return target if fn(z1, z2) else pc + 1


def _unarycmp(m, stack, locals_, operand, pc):
    cmp, fn, target = operand
    z = _pop(stack)
    if not isinstance(z, int):
        raise _StuckSignal(f"unarycmp {cmp} requires an integer operand")
    return target if fn(z, 0) else pc + 1


def _ifnull(m, stack, locals_, target, pc):
    if not stack:
        raise _StuckSignal("stack underflow")
    a = stack.pop()
    if a is None:
        return target
    if isinstance(a, Addr):
        return pc + 1
    raise _StuckSignal("ifnull on an integer operand")


def _goto(m, stack, locals_, target, pc):
    return target


_DEFAULTS = {"int": 0, "ref": None}


def _new(m, stack, locals_, cells, pc):
    a = Addr(m.next_addr)
    m.next_addr += 1
    heap = m.heap
    for fname, default in cells:
        heap[(a, fname)] = default
    stack.append(a)
    return pc + 1


def _getfield(m, stack, locals_, field, pc):
    if not stack:
        raise _StuckSignal("stack underflow")
    a = stack[-1]
    if not isinstance(a, Addr):
        raise _StuckSignal(f"getfield {field} on {value_str(a)}")
    try:
        stack[-1] = m.heap[(a, field)]
    except KeyError:
        raise _StuckSignal(f"getfield {field}: cell absent at {a}") from None
    return pc + 1


def _putfield(m, stack, locals_, field, pc):
    a, v = _pop2(stack)
    if not isinstance(a, Addr):
        raise _StuckSignal(f"putfield {field} on {value_str(a)}")
    cell = (a, field)
    heap = m.heap
    if cell not in heap:
        raise _StuckSignal(f"putfield {field}: cell absent at {a}")
    heap[cell] = v
    return pc + 1


def _free(m, stack, locals_, fields, pc):
    a = _pop(stack)
    if not isinstance(a, Addr):
        raise _StuckSignal(f"free on {value_str(a)}")
    heap = m.heap
    missing = [fname for fname in fields if (a, fname) not in heap]
    if missing:
        raise _StuckSignal(f"free at {a}: field {missing[0]} absent")
    for fname in fields:
        del heap[(a, fname)]
    return pc + 1


# consumed <= total holds until a charge overdraws it (it holds at the start,
# and `acquire` only raises the total), so charging 0 needs no test of its
# own.  A violation ends the run, so the active frame keeps the pc it has.


def _overdraw(m, pc):
    f = m.frames[-1]
    f[4] = pc
    m.outcome = BudgetViolation(f[0], pc, *m.amounts())


def _consume(m, stack, locals_, amount, pc):
    m.consumed += amount
    if m.consumed > m.total:
        return _overdraw(m, pc)
    return pc + 1


def _consume_dyn(m, stack, locals_, _, pc):
    z = _pop(stack)
    if not isinstance(z, int):
        raise _StuckSignal("consume_dyn requires an integer operand")
    if z > 0:
        m.consumed += z * m.scale
        if m.consumed > m.total:
            return _overdraw(m, pc)
    return pc + 1


def _acquire(m, stack, locals_, _, pc):
    z = _pop(stack)
    if not isinstance(z, int):
        raise _StuckSignal("acquire requires an integer operand")
    granted = m.policy.decide(m.acquire_count, res_of_int(z))
    m.acquire_count += 1
    if granted and z > 0:
        m.total += z * m.scale
    stack.append(1 if granted else 0)
    return pc + 1


def _call(m, stack, locals_, operand, pc):
    callee, code, n = operand
    # the top of the stack becomes local 0; most calls take one argument,
    # and skipping the loop for them makes replay-walk ~10% faster
    if n == 1 and stack:
        callee_locals = {0: stack.pop()}
    else:
        if len(stack) < n:
            raise _StuckSignal(f"call {callee}: stack underflow")
        callee_locals = {}
        for i in range(n):
            callee_locals[i] = stack.pop()
    frames = m.frames
    frames[-1][4] = pc + 1
    frames.append([callee, code, [], callee_locals, 0])


def _return(m, stack, locals_, _, pc):
    if not stack:
        raise _StuckSignal("return with an empty stack")
    v = stack[-1]
    frames = m.frames
    frames.pop()
    if frames:
        frames[-1][2].append(v)
    else:
        m.outcome = Halt(m.heap, *m.amounts(), v)


def _stuck(m, stack, locals_, reason, pc):
    raise _StuckSignal(reason)


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


def _scale(budget: ResourceValue, instrs: Iterable[Instr]) -> int:
    """The lcm of the budget's denominator and every `consume` amount's."""
    dens = [ins.amount.denominator for ins in instrs if ins.op == "consume" and ins.amount]
    return lcm(budget.denominator, *dens)


def _decode(ins: Instr, codes: dict, scale: int) -> tuple:
    """The (rule, operand) pair that executes `ins`.

    `codes` maps each procedure name to its (decoded code, arity); a
    `call` carries its callee's, and a `consume` its amount in units of
    1/`scale`.  An instruction that no rule executes decodes to one that
    gets stuck when it is reached."""
    op = ins.op
    rule = _RULES.get(op)
    if rule is None:
        return _stuck, f"no rule for {op}"
    if op == "iconst":
        return rule, ins.value
    if op in ("load", "store"):
        return rule, ins.slot
    if op == "ibinop":
        return rule, (ins.alu, _ALU[ins.alu])
    if op in ("binarycmp", "unarycmp"):
        return rule, (ins.cmp, _CMP[ins.cmp], ins.target)
    if op in ("ifnull", "goto"):
        return rule, ins.target
    if op == "new":
        return rule, tuple((fname, _DEFAULTS[ftype]) for fname, ftype in ins.desc.entries)
    if op == "free":
        return rule, ins.desc.fields()
    if op in ("getfield", "putfield"):
        return rule, ins.field
    if op == "consume":
        a = ins.amount or 0
        return rule, a.numerator * (scale // a.denominator)
    if op == "call":
        if ins.callee not in codes:
            return _stuck, f"call to absent procedure {ins.callee}"
        return rule, (ins.callee, *codes[ins.callee])
    return rule, None


def _drive(m: _Machine, fuel: int) -> tuple[object, int]:
    """Apply rules until a terminal outcome or `fuel` steps.

    Returns (outcome, steps), with outcome None when the fuel ran out.
    While it runs, the active frame's code, stack, locals and pc live in
    local variables; they are reloaded from `m.frames` after a rule returns
    None (a call, a return or an overdraw).  On every exit the pc is back
    in its frame, so the machine is whole between calls and `_drive(m, 1)`
    steps it one rule at a time.
    """
    frames = m.frames
    f = frames[-1]
    _, code, stack, locals_, pc = f
    try:
        for steps in range(1, fuel + 1):
            if pc < 0:  # as a list index it would count from the end
                raise _StuckSignal(f"pc {pc} out of range")
            try:
                rule, operand = code[pc]
            except IndexError:
                raise _StuckSignal(f"pc {pc} out of range") from None
            nxt = rule(m, stack, locals_, operand, pc)
            if nxt is None:
                if m.outcome is not None:
                    return m.outcome, steps
                f = frames[-1]
                _, code, stack, locals_, nxt = f
            pc = nxt
    except _StuckSignal as s:
        f[4] = pc
        return Stuck(s.reason, f[0], pc), steps
    f[4] = pc
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
    """The machine at the entry procedure, with its own copy of `heap` and
    every procedure decoded."""
    # the first procedure of a name wins, as in `Program.proc`
    procs = {p.name: p for p in reversed(program.procedures)}
    entry = procs[program.entry]
    if len(args) != entry.arity:
        raise VmError(f"{program.entry} expects {entry.arity} arguments, got {len(args)}")
    total = Fraction(budget)
    if total < 0:
        raise VmError(f"budget must be nonnegative, got {total}")
    scale = _scale(total, (ins for p in procs.values() for ins in p.code))
    # every list exists before any is filled, so each call, recursive ones
    # too, can carry its callee's
    codes = {name: ([], p.arity) for name, p in procs.items()}
    for name, p in procs.items():
        codes[name][0].extend(_decode(ins, codes, scale) for ins in p.code)
    frame = [program.entry, codes[program.entry][0], [], dict(enumerate(args)), 0]
    units = total.numerator * (scale // total.denominator)
    return _Machine(policy, dict(heap or {}), [frame], 0, units, scale, next_addr, 0)


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
    return RunResult(outcome, steps, *m.amounts())
