"""Small-step interpreter for the stack machine with a resource budget.

A state is consumed, total allowed, heap and frame stack; every step that
consumes resource is checked against the budget, and exceeding it is a
distinguished outcome rather than an exception.  The acquisition variant
(`acquire`) can raise the budget mid-run under a deterministic, externally
supplied policy.

Values are Python ints, `Addr` objects, or None for null.  Heaps map
(address, field name) pairs to values.

There is one machine and one compiler.  The machine is a heap dict and a
list of frames, each with a list stack (top at the end), a locals dict and
a pc; calls and returns push and pop frames on that list, never on
Python's own stack.  The first `run` of a program compiles it to Python:
one source template per opcode turns each procedure into a loop with one
arm per basic block, and into one function per instruction for single
steps, and one `exec` defines them all.  The result is cached for as long
as the program object lives.  Inside a block, the values it pushes and
pops live in Python locals and reach the frame's list stack only when
control leaves the block; every instruction keeps its own checks and its
own `Stuck` reason.  `_drive` enters the active procedure's loop, which
runs whole blocks while the fuel left covers them and follows jumps,
calls and returns within the procedure.  When the fuel left is short of
the next block, or the pc is inside one, instructions run one at a time,
so a run stops after exactly as many steps as `fuel` allows.  `run`
copies the caller's heap once into a fresh machine.

The machine counts consumed and total allowed as integers in units of
1/scale, where scale is the lcm of every `consume` amount's denominator
in the program, so the compiled code serves every budget.  A budget's
fractional part in those units is kept apart: an integer amount consumed
exceeds the total exactly when it exceeds the total's integer part.
`consume_dyn` and a granted `acquire` of z add z * scale.  Every outcome
reports the exact rational amounts.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .bytecode import BRANCHES, Instr, Program, successors
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


class _Stop(Exception):
    """The run ends inside a block.  `back` counts the block's steps after
    the one that ended it, and `left` is the fuel left once the whole block
    was charged, set by whoever ran the block."""

    left = None


class _StuckSignal(_Stop):
    """No rule applies at `pc`."""

    def __init__(self, reason: str, pc: Optional[int] = None, back: int = 0):
        self.reason, self.pc, self.back = reason, pc, back


class _Finished(_Stop):
    """The run ends in `outcome`, a `Halt` or a `BudgetViolation`."""

    def __init__(self, outcome, back: int):
        self.outcome, self.back = outcome, back


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
# the machine


# A live frame is a list [proc, code, stack, locals, pc]: the procedure's
# name, its compiled code (a `_Proc`), a list stack whose top is its last
# element, a locals dict and the pc (slots 0 to 4).


class _Machine:
    """The live state of a run: heap, frames (active last), consumed and total
    allowed in units of 1/`scale`, the next fresh address and the number of
    `acquire` requests so far, plus the acquisition policy.  `consumed` and
    `total` are ints; the total's fractional part, which no comparison with
    an integer `consumed` can see, is kept apart in `spare`.  `blocks`
    counts the blocks entered so far."""

    __slots__ = (
        "policy", "heap", "frames", "consumed", "total", "spare", "scale", "next_addr",
        "acquire_count", "blocks",
    )

    def __init__(self, policy, heap, frames, total, spare, scale, next_addr):
        self.policy, self.heap, self.frames = policy, heap, frames
        self.consumed, self.total, self.spare, self.scale = 0, total, spare, scale
        self.next_addr, self.acquire_count, self.blocks = next_addr, 0, 0

    def amounts(self) -> tuple[ResourceValue, ResourceValue]:
        """(consumed, total allowed) as exact resource amounts."""
        return Fraction(self.consumed, self.scale), (self.total + self.spare) / self.scale


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def _stuck(reason: str, pc: int, back: int):
    raise _StuckSignal(reason, pc, back)


# consumed <= total holds until a charge overdraws it (it holds at the start,
# and `acquire` only raises the total), so charging 0 needs no test of its
# own.  A violation ends the run, so the active frame keeps the pc it has.


def _overdraw(m: _Machine, pc: int, back: int):
    f = m.frames[-1]
    f[4] = pc
    raise _Finished(BudgetViolation(f[0], pc, *m.amounts()), back)


# ---------------------------------------------------------------------------
# compiling a program to Python
#
# One source template per opcode: (values popped, whether it pushes one,
# code).  The popped values are {z1} (the top), {z2}, ... and the pushed one
# is assigned to {out}.  Inside a block these are Python locals; a value
# the block did not push is popped off the frame's list stack, after an
# underflow test.  Code that leaves the block first puts the values the
# block still holds back on the list stack ({flush}).  A template raises
# through `_stuck` when no rule applies, before it touches the budget; {at}
# is the pc and the number of the block's steps after it.
#
# The code runs in one of two places, which fill in how control leaves an
# instruction ({to_target}, {to_next}, {called}, {returned}): an arm of its
# procedure's loop, or a function that runs that one instruction.  Both see
# the machine `m`, the active frame `f`, `frames`, `heap`, and the active
# frame's `stack` and `locals_`.

_TEMPLATES = {
    "iconst": (0, True, "{out} = {value!r}\n"),
    "aconst_null": (0, True, "{out} = None\n"),
    "pop": (1, False, ""),
    "load": (0, True, """\
try:
    {out} = locals_[{slot!r}]
except KeyError:
    _stuck("load of uninitialised local %s" % ({slot!r},), {at})
"""),
    "store": (1, False, "locals_[{slot!r}] = {z1}\n"),
    "ibinop": (2, True, """\
if not (isinstance({z1}, int) and isinstance({z2}, int)):
    _stuck("ibinop %s on non-integer operands" % ({alu!r},), {at})
{zero_test}{out} = {result}
"""),
    "binarycmp": (2, False, """\
if not ({operands_ok}):
    _stuck("binarycmp %s {operands_why}" % ({cmp!r},), {at})
if {z1} {rel} {z2}:
    {flush}{to_target}
{flush}{to_next}
"""),
    "unarycmp": (1, False, """\
if not isinstance({z1}, int):
    _stuck("unarycmp %s requires an integer operand" % ({cmp!r},), {at})
if {z1} {rel} 0:
    {flush}{to_target}
{flush}{to_next}
"""),
    "ifnull": (1, False, """\
if {z1} is None:
    {flush}{to_target}
if not isinstance({z1}, Addr):
    _stuck("ifnull on an integer operand", {at})
{flush}{to_next}
"""),
    "goto": (0, False, "{flush}{to_target}\n"),
    "new": (0, True, """\
{out} = Addr(m.next_addr)
m.next_addr += 1
{cells}"""),
    "getfield": (1, True, """\
if not isinstance({z1}, Addr):
    _stuck("getfield %s on %s" % ({field!r}, value_str({z1})), {at})
try:
    {out} = heap[{z1}, {field!r}]
except KeyError:
    _stuck("getfield %s: cell absent at %s" % ({field!r}, {z1}), {at})
"""),
    "putfield": (2, False, """\
if not isinstance({z1}, Addr):
    _stuck("putfield %s on %s" % ({field!r}, value_str({z1})), {at})
if ({z1}, {field!r}) not in heap:
    _stuck("putfield %s: cell absent at %s" % ({field!r}, {z1}), {at})
heap[{z1}, {field!r}] = {z2}
"""),
    "free": (1, False, """\
if not isinstance({z1}, Addr):
    _stuck("free on %s" % (value_str({z1}),), {at})
{cells}"""),
    "consume": (0, False, """\
m.consumed = c = m.consumed + {units}
if c > m.total:
    _overdraw(m, {at})
"""),
    "consume_dyn": (1, False, """\
if not isinstance({z1}, int):
    _stuck("consume_dyn requires an integer operand", {at})
if {z1} > 0:
    m.consumed = c = m.consumed + {z1} * {scale}
    if c > m.total:
        _overdraw(m, {at})
"""),
    "acquire": (1, True, """\
if not isinstance({z1}, int):
    _stuck("acquire requires an integer operand", {at})
{out} = m.policy.decide(m.acquire_count, res_of_int({z1}))
m.acquire_count += 1
if {out} and {z1} > 0:
    m.total += {z1} * {scale}
{out} = 1 if {out} else 0
"""),
    # the top of the stack becomes the callee's local 0
    "call": (None, False, """\
{flush}f[4] = {nxt}
stack = []
locals_ = {{{args}}}
f = [{callee!r}, {code}, stack, locals_, 0]
frames.append(f)
{called}"""),
    "return": (1, False, """\
frames.pop()
if not frames:
    raise _Finished(Halt(m.heap, *m.amounts(), {z1}), 0)
f = frames[-1]
f[2].append({z1})
{returned}"""),
}
# an instruction no rule executes gets stuck when it is reached
_NO_RULE = (0, False, "_stuck({reason!r}, {at})\n")

_REL = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_RESULT = {
    "add": "{z1} + {z2}",
    "sub": "{z1} - {z2}",
    "mul": "{z1} * {z2}",
    "div": "_int_div({z1}, {z2})",
    "rem": "_int_rem({z1}, {z2})",
}
_DEFAULTS = {"int": 0, "ref": None}
_ENDS_BLOCK = ("goto", "call", "return", *BRANCHES)
# a block runs on through the pcs jumps reach until it is this long, so no
# instruction is compiled into more than this many blocks plus one
_LONG_BLOCK = 16


class _Proc(NamedTuple):
    """A procedure compiled: `run(m, f, left)` runs its blocks from the pc
    of its active frame `f`, `sizes` maps each pc a block starts at to the
    block's steps, and `steps` maps every pc to the function that runs one
    step there."""

    run: Callable
    sizes: dict
    steps: dict


# the names compiled code reads besides its own
_GLOBALS = {
    "Addr": Addr, "Halt": Halt, "_Finished": _Finished, "_Proc": _Proc, "_Stop": _Stop,
    "_int_div": _int_div, "_int_rem": _int_rem, "_overdraw": _overdraw, "_stuck": _stuck,
    "res_of_int": res_of_int, "value_str": value_str,
}


def _operand_fields(ins: Instr, fields: dict, callees: dict, scale: int) -> dict:
    """The fields of `ins`'s template that depend on more than one operand."""
    op = ins.op
    at = fields["at"]
    if op == "ibinop":
        zero = ins.alu in ("div", "rem")
        return {
            "zero_test": f"if {fields['z2']} == 0:\n    _stuck('division by zero', {at})\n" if zero else "",
            "result": _RESULT[ins.alu].format(**fields),
        }
    if op == "binarycmp":
        ints = "isinstance({z1}, int) and isinstance({z2}, int)".format(**fields)
        if ins.cmp in ("eq", "ne"):
            refs = "({z1} is None or isinstance({z1}, Addr)) and ({z2} is None or isinstance({z2}, Addr))"
            ok, why = f"{ints} or {refs.format(**fields)}", "on mixed operand types"
        else:
            ok, why = ints, "requires integer operands"
        return {"operands_ok": ok, "operands_why": why, "rel": _REL[ins.cmp]}
    if op == "unarycmp":
        return {"rel": _REL[ins.cmp]}
    if op == "new":
        cells = (f"heap[{fields['out']}, {n!r}] = {_DEFAULTS[t]!r}\n" for n, t in ins.desc.entries)
        return {"cells": "".join(cells)}
    if op == "free":
        a, names = fields["z1"], ins.desc.fields()
        tests = (
            f"if ({a}, {n!r}) not in heap:\n"
            f"    _stuck('free at %s: field %s absent' % ({a}, {n!r}), {at})\n"
            for n in names
        )
        return {"cells": "".join(tests) + "".join(f"del heap[{a}, {n!r}]\n" for n in names)}
    if op == "consume":
        a = Fraction(ins.amount or 0)
        return {"units": a.numerator * (scale // a.denominator)}
    if op == "call":
        code, arity = callees[ins.callee]
        args = ", ".join(f"{i}: {fields[f'z{i + 1}']}" for i in range(arity))
        return {"code": code, "args": args}
    return {"scale": scale}


def _block_body(code: Sequence[Instr], start: int, end: int, exits, callees: dict, scale: int) -> str:
    """The code that runs code[start:end], a straight run of instructions of
    which only the last may leave it.  `exits(ins, pc)` gives the code that
    leaves it for a pc, after a call and after a return."""
    body, held, names = [], [], count()

    def flush() -> str:
        if not held:
            return ""
        if len(held) == 1:
            return f"stack.append({held[0]}); "
        return f"stack.extend(({', '.join(held)})); "

    for pc in range(start, end):
        ins = code[pc]
        op = ins.op
        fields = {**vars(ins), "pc": pc, "nxt": pc + 1, "at": f"{pc}, {end - 1 - pc}"}
        template = _TEMPLATES.get(op, _NO_RULE)
        if op == "call" and ins.callee not in callees:
            template = _NO_RULE
            fields["reason"] = f"call to absent procedure {ins.callee}"
        elif template is _NO_RULE:
            fields["reason"] = f"no rule for {op}"
        popped, pushes, text = template
        if popped is None:
            popped = callees[ins.callee][1]
        # the top values first, from the block's own and then off the list
        own = min(popped, len(held))
        values = [held.pop() for _ in range(own)]
        if own < popped:
            need = popped - own
            why = "stack underflow"
            if op == "call":
                why = f"call {ins.callee}: stack underflow"
            elif op == "return":
                why = "return with an empty stack"
            test = "not stack" if need == 1 else f"len(stack) < {need}"
            body.append(f"if {test}:\n    _stuck({why!r}, {fields['at']})\n")
            for _ in range(need):
                values.append(f"s{next(names)}")
                body.append(f"{values[-1]} = stack.pop()\n")
        fields.update((f"z{i + 1}", v) for i, v in enumerate(values))
        if pushes:
            fields["out"] = f"s{next(names)}"
        fields["flush"] = flush()
        fields.update(exits(ins, pc))
        if template is not _NO_RULE:
            fields.update(_operand_fields(ins, fields, callees, scale))
        body.append(text.format(**fields))
        if pushes:
            held.append(fields["out"])
    if code[end - 1].op not in _ENDS_BLOCK:
        body.append(flush() + exits(code[end - 1], end - 1)["to_next"] + "\n")
    return "".join(body)


def _indent(text: str, depth: int) -> str:
    return "".join(f"{'    ' * depth}{line}\n" for line in text.splitlines())


def _outside(pc: int) -> str:
    """The code for a pc outside the procedure's code: it gets stuck."""
    return f"_stuck({f'pc {pc} out of range'!r}, {pc}, 0)\n"


def _procedure_source(i: int, code: Sequence[Instr], callees: dict, scale: int) -> str:
    """Python source that defines `C{i}`, procedure `i` compiled (a `_Proc`).

    A block starts at each pc that a jump, a call's return or the entry can
    reach, inside or outside the code.  It runs every instruction up to and
    including the next that may leave it, passing the pcs other jumps
    reach, until it holds `_LONG_BLOCK` instructions; outside the code it
    gets stuck at once.  `P{i}` is a loop with one arm per block.  It
    enters an arm while the fuel left covers the whole block, and follows
    jumps, calls to and returns into procedure `i`; it returns the fuel
    left otherwise, with the pc in the active frame.  `o{i}_{pc}` runs the
    one instruction at pc and returns the next pc, or None after a call or
    a return."""
    size = len(code)
    starts = {0} | {t for pc, ins in enumerate(code) for t in successors(ins, pc)
                    if ins.op in _ENDS_BLOCK or t != pc + 1 or not 0 <= t < size}
    me = f"C{i}"

    def in_loop(ins, pc):
        callee = callees.get(ins.callee, (None,))[0]
        return {
            "to_target": f"pc = {ins.target!r}; continue",
            "to_next": f"pc = {pc + 1}; continue",
            "called": "pc = 0; continue\n" if callee == me else "return left\n",
            "returned": f"if f[1] is not {me}:\n    return left\n_, _, stack, locals_, pc = f\ncontinue\n",
        }

    def alone(ins, pc):
        return {"to_target": f"return {ins.target!r}", "to_next": f"return {pc + 1}",
                "called": "return None\n", "returned": "return None\n"}

    parts, arms, sizes = [], [], {}
    for pc in sorted(starts):
        if 0 <= pc < size:
            end = pc + 1
            while end < size and code[end - 1].op not in _ENDS_BLOCK and (
                end - pc < _LONG_BLOCK or end not in starts
            ):
                end += 1
            body = _block_body(code, pc, end, in_loop, callees, scale)
        else:
            end, body = pc + 1, _outside(pc)
        sizes[pc] = end - pc
        arms.append((pc, f"if left < {end - pc}:\n    break\nleft -= {end - pc}\nentered += 1\n{body}"))

    def dispatch(arms, depth):
        if len(arms) == 1:
            return _indent(arms[0][1], depth)
        half = len(arms) // 2
        return (f"{'    ' * depth}if pc < {arms[half][0]}:\n" + dispatch(arms[:half], depth + 1)
                + f"{'    ' * depth}else:\n" + dispatch(arms[half:], depth + 1))

    parts.append(
        f"def P{i}(m, f, left):\n"
        "    frames, heap, entered = m.frames, m.heap, 0\n"
        "    _, _, stack, locals_, pc = f\n"
        "    try:\n"
        "        while True:\n"
        + dispatch(arms, 3)
        + "        f[4] = pc\n"
        "        return left\n"
        "    except _Stop as e:\n"
        "        e.left = left\n"
        "        raise\n"
        "    finally:\n"
        "        m.blocks += entered\n"
    )
    steps = {}
    for pc in range(size):
        steps[pc] = f"o{i}_{pc}"
        body = _block_body(code, pc, pc + 1, alone, callees, scale)
        parts.append(f"def o{i}_{pc}(m, f):\n"
                     "    frames, heap, stack, locals_ = m.frames, m.heap, f[2], f[3]\n" + _indent(body, 1))
    for pc in sizes:
        if not 0 <= pc < size:
            steps[pc] = f"o{i}_x{len(steps)}"
            parts.append(f"def {steps[pc]}(m, f):\n" + _indent(_outside(pc), 1))
    table = ", ".join(f"{pc}: {fn}" for pc, fn in steps.items())
    parts.append(f"{me} = _Proc(P{i}, {sizes!r}, {{{table}}})\n")
    return "".join(parts)


# id(program) -> (weak reference to it, its _Code); an entry goes when its
# program does, so a fresh program that reuses the id is compiled anew
_COMPILED: dict = {}


class _Code(NamedTuple):
    procs: dict  # procedure name -> _Proc
    scale: int  # lcm of the denominators of every `consume` amount


def _compile(program: Program) -> _Code:
    """`program` as Python: one exec per program, cached for its lifetime.

    `consume` amounts are compiled as integers in units of 1/scale, which
    depends only on the program, so one compilation serves every budget."""
    key = id(program)
    hit = _COMPILED.get(key)
    if hit is not None and hit[0]() is program:
        return hit[1]
    # the first procedure of a name wins, as in `Program.proc`
    procs = {p.name: p for p in reversed(program.procedures)}
    scale = lcm(*(ins.amount.denominator for p in procs.values() for ins in p.code
                  if ins.op == "consume" and ins.amount))
    callees = {name: (f"C{i}", p.arity) for i, (name, p) in enumerate(procs.items())}
    source = "".join(_procedure_source(i, p.code, callees, scale) for i, p in enumerate(procs.values()))
    namespace = dict(_GLOBALS)
    exec(compile(source, f"<amort.vm: {program.entry}>", "exec"), namespace)
    compiled = _Code({name: namespace[c] for name, (c, _) in callees.items()}, scale)

    def forget(ref):
        if _COMPILED.get(key, (None,))[0] is ref:
            del _COMPILED[key]

    _COMPILED[key] = (weakref.ref(program, forget), compiled)
    return compiled


def _drive(m: _Machine, fuel: int) -> tuple[object, int]:
    """Run the machine until a terminal outcome or `fuel` steps.

    Returns (outcome, steps), with outcome None when the fuel ran out.  The
    active procedure's loop runs whole blocks while the fuel left covers
    them; once it does not, or at a pc no block starts at, one instruction
    runs at a time.  A run that stops inside a block counts the block's
    steps after the stop back.  On every exit the pc is in its frame, so
    the machine is whole between calls and `_drive(m, 1)` steps it one
    instruction at a time.
    """
    frames = m.frames
    left = fuel
    try:
        while left:
            f = frames[-1]
            run, sizes, steps = f[1]
            pc = f[4]
            if sizes.get(pc, left + 1) <= left:
                left = run(m, f, left)
            else:
                left -= 1
                m.blocks += 1
                nxt = steps[pc](m, f)
                if nxt is not None:
                    f[4] = nxt
    except _Stop as e:
        if e.left is None:
            e.left = left
        steps = fuel - e.left - e.back
        if isinstance(e, _Finished):
            return e.outcome, steps
        f = frames[-1]
        f[4] = e.pc
        return Stuck(e.reason, f[0], e.pc), steps
    return None, fuel


# ---------------------------------------------------------------------------
# whole runs


@dataclass(frozen=True)
class RunResult:
    outcome: object  # Halt | Stuck | BudgetViolation | FuelExhausted
    steps: int
    consumed: ResourceValue
    total: ResourceValue
    # compiled blocks entered: a count of dispatches that no machine's speed
    # changes; not part of the JSON outcome
    blocks: int = 0

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
    code = _compile(program)
    arity = program.proc(program.entry).arity
    if len(args) != arity:
        raise VmError(f"{program.entry} expects {arity} arguments, got {len(args)}")
    total = Fraction(budget)
    if total < 0:
        raise VmError(f"budget must be nonnegative, got {total}")
    units, spare = divmod(total.numerator * code.scale, total.denominator)
    frame = [program.entry, code.procs[program.entry], [], dict(enumerate(args)), 0]
    return _Machine(
        policy, dict(heap or {}), [frame], units, Fraction(spare, total.denominator), code.scale,
        next_addr,
    )


def run(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy = ALWAYS_DENY,
    fuel: int = 100_000,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
) -> RunResult:
    """Run one machine until a terminal outcome or `fuel` steps elapse.  The
    caller's `heap` is copied once and never mutated."""
    if fuel < 0:
        raise VmError(f"fuel must be nonnegative, got {fuel}")
    m = _start(program, args, budget, policy, heap, next_addr)
    outcome, steps = _drive(m, fuel)
    if outcome is None:
        outcome = FuelExhausted(fuel)
    return RunResult(outcome, steps, *m.amounts(), m.blocks)
