"""Program representation and textual assembler for the stack machine.

A program is a set of procedures over a JVM-flavoured instruction set with
explicit resource instructions (`consume`, `consume_dyn`, `acquire`).
Procedures carry pre/postconditions and loop-head annotations in the
assertion language.  This module also provides structural validation and
the reverse post-order / back-edge analysis the wlp generator walks.

Assembly format (line oriented, `#` comments):

    proc <name>(<p>:<int|ref>, ...) locals <decls> {
      requires: <assertion>
      ensures:  <assertion>
      <idx>: <mnemonic> <operands...>
      invariant <idx>: <assertion>
    }
    entry <name>

`locals` takes either a count (anonymous slots) or named typed slots like
`locals cur:ref, i:int`; named locals (and parameters) can be referenced
by name in `load`/`store` operands and in annotations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .assertions import (
    Assertion,
    AssertionParseError,
    Clause,
    assertion_free_vars,
    assertion_str,
    parse_assertion,
)
from .resources import parse_rational

BINOPS = ("add", "sub", "mul", "div", "rem")
CMPS = ("eq", "ne", "lt", "le", "gt", "ge")

INT = "int"
REF = "ref"


@dataclass(frozen=True)
class FieldDescriptor:
    entries: tuple[tuple[str, str], ...]  # (field name, "int" | "ref")

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field name in descriptor {self}")
        for _, ty in self.entries:
            if ty not in (INT, REF):
                raise ValueError(f"bad field type {ty!r}")

    def fields(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{n}:{t}" for n, t in self.entries) + "}"


@dataclass(frozen=True)
class Instr:
    op: str
    value: int | None = None  # iconst
    alu: str | None = None  # ibinop
    cmp: str | None = None  # binarycmp / unarycmp
    target: int | None = None  # branches
    field: str | None = None  # getfield / putfield
    desc: FieldDescriptor | None = None  # new / free
    amount: Fraction | None = None  # consume
    callee: str | None = None  # call
    slot: int | None = None  # load / store

    def __str__(self) -> str:
        parts = [self.op]
        if self.value is not None:
            parts.append(str(self.value))
        if self.alu is not None:
            parts.append(self.alu)
        if self.cmp is not None:
            parts.append(self.cmp)
        if self.target is not None:
            parts.append(str(self.target))
        if self.field is not None:
            parts.append(self.field)
        if self.desc is not None:
            parts.append(str(self.desc))
        if self.amount is not None:
            parts.append(str(self.amount))
        if self.callee is not None:
            parts.append(self.callee)
        if self.slot is not None:
            parts.append(str(self.slot))
        return " ".join(parts)


# instructions that transfer control; everything else falls through
BRANCHES = ("binarycmp", "unarycmp", "ifnull")


def successors(ins: Instr, idx: int) -> list[int]:
    if ins.op == "return":
        return []
    if ins.op == "goto":
        return [ins.target]
    if ins.op in BRANCHES:
        return [idx + 1, ins.target]
    return [idx + 1]


@dataclass(frozen=True)
class Procedure:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, type)
    local_decls: tuple[tuple[str, str], ...]  # extra slots after the params
    code: tuple[Instr, ...]
    precondition: Assertion = (Clause(),)
    postcondition: Assertion = (Clause(),)
    invariants: tuple[tuple[int, Assertion], ...] = ()

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def local_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params) + tuple(n for n, _ in self.local_decls)

    @property
    def local_types(self) -> tuple[str, ...]:
        return tuple(t for _, t in self.params) + tuple(t for _, t in self.local_decls)

    @property
    def n_locals(self) -> int:
        return len(self.params) + len(self.local_decls)

    def invariant_at(self, offset: int) -> Assertion | None:
        for off, a in self.invariants:
            if off == offset:
                return a
        return None


@dataclass(frozen=True)
class Program:
    procedures: tuple[Procedure, ...]
    entry: str

    def proc(self, name: str) -> Procedure:
        for p in self.procedures:
            if p.name == name:
                return p
        raise KeyError(name)

    def has_proc(self, name: str) -> bool:
        return any(p.name == name for p in self.procedures)


# ---------------------------------------------------------------------------
# parsing


class ProgramParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


_PROC_RE = re.compile(r"^proc\s+(\w+)\s*\(([^)]*)\)\s*(?:locals\s+(.*?))?\s*\{$")
_CODE_RE = re.compile(r"^(\d+)\s*:\s*(.*)$")
_INV_RE = re.compile(r"^invariant\s+(\d+)\s*:\s*(.*)$")


def _parse_typed_list(text: str, line: int) -> list[tuple[str, str]]:
    out = []
    text = text.strip()
    if not text:
        return out
    for part in text.split(","):
        m = re.fullmatch(r"\s*(\w+)\s*:\s*(int|ref)\s*", part)
        if not m:
            raise ProgramParseError(f"expected name:type, found {part.strip()!r}", line)
        out.append((m.group(1), m.group(2)))
    return out


def _parse_descriptor(text: str, line: int) -> tuple[FieldDescriptor, str]:
    text = text.lstrip()
    if not text.startswith("{"):
        raise ProgramParseError("expected a field descriptor {f:type, ...}", line)
    end = text.find("}")
    if end < 0:
        raise ProgramParseError("unterminated field descriptor", line)
    entries = _parse_typed_list(text[1:end], line)
    if not entries:
        raise ProgramParseError("empty field descriptor", line)
    return FieldDescriptor(tuple(entries)), text[end + 1 :].strip()


def _parse_instr(text: str, names: Mapping[str, int], line: int) -> Instr:
    parts = text.split(None, 1)
    if not parts:
        raise ProgramParseError("empty instruction", line)
    op, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")

    def slot_of(tok: str) -> int:
        if tok.isdigit():
            return int(tok)
        if tok in names:
            return names[tok]
        raise ProgramParseError(f"unknown local {tok!r}", line)

    def need(what: str) -> str:
        if not rest:
            raise ProgramParseError(f"{op} needs {what}", line)
        return rest

    if op == "iconst":
        tok = need("an integer")
        if not re.fullmatch(r"-?\d+", tok):
            raise ProgramParseError(f"iconst needs an integer, found {tok!r}", line)
        return Instr("iconst", value=int(tok))
    if op == "ibinop":
        tok = need("an operator")
        if tok not in BINOPS:
            raise ProgramParseError(f"unknown operator {tok!r}", line)
        return Instr("ibinop", alu=tok)
    if op in ("pop", "aconst_null", "return", "consume_dyn", "acquire"):
        if rest:
            raise ProgramParseError(f"{op} takes no operand", line)
        return Instr(op)
    if op in ("load", "store"):
        return Instr(op, slot=slot_of(need("a local")))
    if op in ("binarycmp", "unarycmp"):
        toks = need("a comparison and a target").split()
        if len(toks) != 2 or toks[0] not in CMPS or not toks[1].isdigit():
            raise ProgramParseError(f"{op} needs `cmp offset`", line)
        return Instr(op, cmp=toks[0], target=int(toks[1]))
    if op in ("ifnull", "goto"):
        tok = need("a target")
        if not tok.isdigit():
            raise ProgramParseError(f"{op} needs an instruction index", line)
        return Instr(op, target=int(tok))
    if op in ("new", "free"):
        desc, trailing = _parse_descriptor(need("a descriptor"), line)
        if trailing:
            raise ProgramParseError(f"trailing input {trailing!r}", line)
        return Instr(op, desc=desc)
    if op in ("getfield", "putfield"):
        tok = need("a field name")
        if not re.fullmatch(r"\w+", tok):
            raise ProgramParseError(f"bad field name {tok!r}", line)
        return Instr(op, field=tok)
    if op == "consume":
        tok = need("an amount")
        try:
            amount = parse_rational(tok)
        except ValueError as e:
            raise ProgramParseError(str(e), line) from None
        if amount < 0:
            raise ProgramParseError("consume amount must be nonnegative", line)
        return Instr("consume", amount=amount)
    if op == "call":
        tok = need("a procedure name")
        if not re.fullmatch(r"\w+", tok):
            raise ProgramParseError(f"bad procedure name {tok!r}", line)
        return Instr("call", callee=tok)
    raise ProgramParseError(f"unknown instruction {op!r}", line)


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse_program(text: str) -> Program:
    procs: list[Procedure] = []
    entry: str | None = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = _strip(lines[i])
        lineno = i + 1
        i += 1
        if not raw:
            continue
        if raw.startswith("entry"):
            parts = raw.split()
            if len(parts) != 2:
                raise ProgramParseError("entry takes one procedure name", lineno)
            entry = parts[1]
            continue
        m = _PROC_RE.match(raw)
        if not m:
            raise ProgramParseError(f"expected `proc ...` or `entry ...`, found {raw!r}", lineno)
        name, params_text, locals_text = m.group(1), m.group(2), m.group(3)
        if any(p.name == name for p in procs):
            raise ProgramParseError(f"duplicate procedure {name!r}", lineno)
        params = _parse_typed_list(params_text, lineno)
        decls: list[tuple[str, str]] = []
        if locals_text:
            locals_text = locals_text.strip()
            if locals_text.isdigit():
                decls = [(f"_l{k}", REF) for k in range(int(locals_text))]
            else:
                decls = _parse_typed_list(locals_text, lineno)
        names = {nm: idx for idx, (nm, _) in enumerate(params + decls)}
        if len(names) != len(params) + len(decls):
            raise ProgramParseError("duplicate parameter/local name", lineno)

        code: list[Instr] = []
        pre: Assertion = (Clause(),)
        post: Assertion = (Clause(),)
        invariants: list[tuple[int, Assertion]] = []
        closed = False
        while i < len(lines):
            body = _strip(lines[i])
            lineno = i + 1
            i += 1
            if not body:
                continue
            if body == "}":
                closed = True
                break

            def _assertion(src: str) -> Assertion:
                try:
                    return parse_assertion(src)
                except AssertionParseError as e:
                    raise ProgramParseError(f"column {e.pos + 1}: {e}", lineno) from None

            if body.startswith("requires:"):
                pre = _assertion(body[len("requires:") :])
                continue
            if body.startswith("ensures:"):
                post = _assertion(body[len("ensures:") :])
                continue
            minv = _INV_RE.match(body)
            if minv:
                off = int(minv.group(1))
                if any(o == off for o, _ in invariants):
                    raise ProgramParseError(f"duplicate invariant at offset {off}", lineno)
                invariants.append((off, _assertion(minv.group(2))))
                continue
            mcode = _CODE_RE.match(body)
            if mcode:
                idx = int(mcode.group(1))
                if idx != len(code):
                    raise ProgramParseError(
                        f"instruction index {idx} out of order (expected {len(code)})", lineno
                    )
                code.append(_parse_instr(mcode.group(2), names, lineno))
                continue
            raise ProgramParseError(f"cannot parse {body!r}", lineno)
        if not closed:
            raise ProgramParseError(f"procedure {name!r} missing closing brace", lineno)
        procs.append(
            Procedure(
                name=name,
                params=tuple(params),
                local_decls=tuple(decls),
                code=tuple(code),
                precondition=pre,
                postcondition=post,
                invariants=tuple(sorted(invariants)),
            )
        )
    if entry is None:
        raise ProgramParseError("missing `entry` declaration", len(lines))
    prog = Program(tuple(procs), entry)
    if not prog.has_proc(entry):
        raise ProgramParseError(f"entry procedure {entry!r} not defined", len(lines))
    return prog


def parse_program_file(path) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


# ---------------------------------------------------------------------------
# pretty printing (round-trips through parse_program)


def pretty_print(prog: Program) -> str:
    out: list[str] = []
    for p in prog.procedures:
        params = ", ".join(f"{n}:{t}" for n, t in p.params)
        head = f"proc {p.name}({params})"
        if p.local_decls:
            head += " locals " + ", ".join(f"{n}:{t}" for n, t in p.local_decls)
        out.append(head + " {")
        out.append(f"  requires: {assertion_str(p.precondition)}")
        out.append(f"  ensures: {assertion_str(p.postcondition)}")
        inv = dict(p.invariants)
        for idx, ins in enumerate(p.code):
            if idx in inv:
                out.append(f"  invariant {idx}: {assertion_str(inv[idx])}")
            out.append(f"  {idx}: {ins}")
        out.append("}")
        out.append("")
    out.append(f"entry {prog.entry}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation and control-flow analysis


def order_for_wlp(proc: Procedure) -> tuple[list[int], set[int]]:
    """Reverse post-order from offset 0, and the set of back-edge targets.

    Unreachable offsets are appended after the reachable order (ascending).
    A back edge is any CFG edge u -> v with v at an earlier-or-equal
    position than u in the order.
    """
    n = len(proc.code)
    post: list[int] = []
    seen: set[int] = set()

    def dfs(start: int) -> None:
        stack: list[tuple[int, list[int]]] = [(start, successors(proc.code[start], start))]
        seen.add(start)
        while stack:
            node, succ = stack[-1]
            while succ:
                nxt = succ.pop(0)
                if 0 <= nxt < n and nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, successors(proc.code[nxt], nxt)))
                    break
            else:
                post.append(node)
                stack.pop()

    if n:
        dfs(0)
    order = list(reversed(post))
    pos = {off: k for k, off in enumerate(order)}
    back: set[int] = set()
    for u in order:
        for v in successors(proc.code[u], u):
            if 0 <= v < n and v in pos and pos[v] <= pos[u]:
                back.add(v)
    order.extend(sorted(set(range(n)) - seen))
    return order, back


def validate(prog: Program) -> list[str]:
    """Structural diagnostics; an empty list means the program is well formed."""
    diags: list[str] = []
    for p in prog.procedures:
        n = len(p.code)
        if n == 0:
            diags.append(f"{p.name}: empty procedure body")
            continue
        for idx, ins in enumerate(p.code):
            if ins.target is not None and not (0 <= ins.target < n):
                diags.append(f"{p.name}@{idx}: branch target {ins.target} out of range")
            if ins.slot is not None and not (0 <= ins.slot < p.n_locals):
                diags.append(f"{p.name}@{idx}: local index {ins.slot} out of range")
            if ins.op == "call":
                if not prog.has_proc(ins.callee):
                    diags.append(f"{p.name}@{idx}: call to absent procedure {ins.callee!r}")
            if idx == n - 1 and ins.op not in ("return", "goto") and ins.op not in BRANCHES:
                diags.append(f"{p.name}@{idx}: control falls off the end of the procedure")
            elif idx == n - 1 and ins.op in BRANCHES:
                diags.append(f"{p.name}@{idx}: fallthrough of final branch leaves the procedure")
        order, back = order_for_wlp(p)
        annotated = {off for off, _ in p.invariants}
        for off in sorted(back):
            if off not in annotated:
                diags.append(f"{p.name}: missing invariant at offset {off}")
        for off in sorted(annotated):
            if not (0 <= off < n):
                diags.append(f"{p.name}: invariant at invalid offset {off}")
        for a in (p.precondition, *(inv for _, inv in p.invariants)):
            if "ret" in assertion_free_vars(a):
                diags.append(f"{p.name}: `ret` may appear only in the postcondition")
    return diags
