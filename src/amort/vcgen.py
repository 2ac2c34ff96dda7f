"""Verification-condition generation: backwards wlp over the control graph.

A forward pass first types the operand stack at each offset reachable from
0: `_STACK_EFFECT` gives each opcode's pops and pushed type, and the
successors come from `bytecode.successors`, the one control-flow source.
The offsets that pass never reaches are the unreachable ones.

Goals are computed per offset as functions of the symbolic operand stack
and the symbolic locals, walking the reverse post-order so that loop
bodies see their head's annotation as the continuation.  Each annotated
offset yields one VC (annotation entails the wlp of its own instruction);
one final VC requires the precondition to entail the wlp of offset 0.

Names in annotations denote the values currently held by the same-named
parameter/local slots at that offset; `ret` in a postcondition denotes the
returned value.  The operand stack is never mentioned by annotations —
stack values appearing in a VC are fresh universally-read variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .assertions import (
    NULL,
    And,
    Assertion,
    Clause,
    Exists,
    Forall,
    Goal,
    Implies,
    IntLit,
    Leaf,
    PointsTo,
    PureAtom,
    Star,
    Term,
    Var,
    Wand,
    assertion_free_vars,
    assertion_str,
    subst_assertion,
)
from .bytecode import INT, REF, Instr, Procedure, Program, order_for_wlp, successors
from .resources import ResourceExpr


class VcgenError(ValueError):
    pass


@dataclass(frozen=True)
class VerificationCondition:
    vc_id: str
    antecedent: Assertion
    consequent: Goal

    def __str__(self) -> str:
        return f"{self.vc_id}: {assertion_str(self.antecedent)}  |-  {self.consequent}"


ANY = "any"


def field_types(prog: Program) -> dict[str, str]:
    """Field name -> value type, collected from every descriptor in the program."""
    out: dict[str, str] = {}
    for p in prog.procedures:
        for ins in p.code:
            if ins.desc is not None:
                for fname, ftype in ins.desc.entries:
                    out[fname] = ftype if out.get(fname, ftype) == ftype else ANY
    return out


# ---------------------------------------------------------------------------
# forward stack layout (depth and coarse types per offset)

# (operands popped, type pushed or None) per opcode; `load`, `getfield` and
# `call` read the pushed type or the pop count off the instruction
_STACK_EFFECT = {
    "iconst": (0, INT),
    "aconst_null": (0, REF),
    "pop": (1, None),
    "load": (0, None),
    "store": (1, None),
    "ibinop": (2, INT),
    "binarycmp": (2, None),
    "unarycmp": (1, None),
    "ifnull": (1, None),
    "goto": (0, None),
    "new": (0, REF),
    "getfield": (1, None),
    "putfield": (2, None),
    "free": (1, None),
    "consume": (0, None),
    # rejected later by the wlp rules; keep the layout total
    "consume_dyn": (1, None),
    "acquire": (1, INT),
    "call": (0, ANY),
    "return": (1, None),
}


def _stack_effect(
    ins: Instr, proc: Procedure, fields: Mapping[str, str], procs: Mapping[str, Procedure]
) -> tuple[int, Optional[str]]:
    popped, pushed = _STACK_EFFECT[ins.op]
    if ins.op == "load":
        pushed = proc.local_types[ins.slot]
    elif ins.op == "getfield":
        pushed = fields.get(ins.field, ANY)
    elif ins.op == "call" and ins.callee in procs:
        popped = procs[ins.callee].arity
    return popped, pushed


def stack_layout(
    proc: Procedure, fields: Mapping[str, str], procs: Mapping[str, Procedure]
) -> dict[int, tuple[str, ...]]:
    """Type-stack (top first) for each offset reachable from 0; depths must agree."""
    code = proc.code
    layouts: dict[int, tuple[str, ...]] = {0: ()}
    work = [0]
    while work:
        i = work.pop()
        ins = code[i]
        if ins.op not in _STACK_EFFECT:
            raise VcgenError(f"{proc.name}@{i}: unknown instruction {ins.op}")
        popped, pushed = _stack_effect(ins, proc, fields, procs)
        tys = layouts[i]
        if len(tys) < popped:
            raise VcgenError(f"{proc.name}@{i}: symbolic stack underflow")
        tys = tys[popped:] if pushed is None else (pushed,) + tys[popped:]
        for succ in successors(ins, i):
            if not (0 <= succ < len(code)):
                raise VcgenError(f"{proc.name}@{i}: control leaves the procedure")
            if succ not in layouts:
                layouts[succ] = tys
                work.append(succ)
                continue
            old = layouts[succ]
            if len(old) != len(tys):
                raise VcgenError(
                    f"{proc.name}@{succ}: stack depth mismatch ({len(old)} vs {len(tys)})"
                )
            joined = tuple(a if a == b else ANY for a, b in zip(old, tys))
            if joined != old:
                layouts[succ] = joined
                work.append(succ)
    return layouts


# ---------------------------------------------------------------------------
# wlp rules

_DEFAULT_TERM = {INT: IntLit(0), REF: NULL}


def _pt_clause(obj: Term, field: str, value: Term) -> Assertion:
    return (Clause(heap=(PointsTo(obj, field, value),)),)


def _instruction_wlp(
    ins: Instr,
    i: int,
    succ: Callable[[int, tuple, dict], Goal],
    stack: tuple,
    locals_: dict,
    fresh: Callable[[str], str],
    procs: Mapping[str, Procedure],
    proc: Procedure,
    operand_types: tuple[str, ...],
) -> Goal:
    """wlp of one instruction of `proc` given goal functions for its successors."""

    def need(n: int):
        if len(stack) < n:
            raise VcgenError(f"{proc.name}@{i}: symbolic stack underflow")
        return stack[:n] + (stack[n:],)

    op = ins.op
    if op == "iconst":
        return succ(i + 1, (IntLit(ins.value),) + stack, locals_)
    if op == "aconst_null":
        return succ(i + 1, (NULL,) + stack, locals_)
    if op == "pop":
        _, rest = need(1)
        return succ(i + 1, rest, locals_)
    if op == "load":
        if ins.slot not in locals_:
            raise VcgenError(f"{proc.name}@{i}: load of uninitialised local {ins.slot}")
        return succ(i + 1, (locals_[ins.slot],) + stack, locals_)
    if op == "store":
        t, rest = need(1)
        new_locals = dict(locals_)
        new_locals[ins.slot] = t
        return succ(i + 1, rest, new_locals)
    if op == "ibinop":
        _, _, rest = need(2)
        u = fresh("u")
        return Forall(u, succ(i + 1, (Var(u),) + rest, locals_))
    if op == "goto":
        return succ(ins.target, stack, locals_)
    if op == "ifnull":
        a, rest = need(1)
        return And(
            Implies(PureAtom(a, "!=", NULL), succ(i + 1, rest, locals_)),
            Implies(PureAtom(a, "=", NULL), succ(ins.target, rest, locals_)),
        )
    if op == "binarycmp":
        z1, z2, rest = need(2)
        both_refs = len(operand_types) >= 2 and operand_types[0] == operand_types[1] == REF
        if both_refs and ins.cmp in ("eq", "ne"):
            taken = PureAtom(z1, "=" if ins.cmp == "eq" else "!=", z2)
            return And(
                Implies(taken.negated(), succ(i + 1, rest, locals_)),
                Implies(taken, succ(ins.target, rest, locals_)),
            )
        return And(succ(i + 1, rest, locals_), succ(ins.target, rest, locals_))
    if op == "unarycmp":
        _, rest = need(1)
        return And(succ(i + 1, rest, locals_), succ(ins.target, rest, locals_))
    if op == "getfield":
        a, rest = need(1)
        v = fresh("v")
        cell = _pt_clause(a, ins.field, Var(v))
        return Exists(v, Star(cell, Wand(cell, succ(i + 1, (Var(v),) + rest, locals_))))
    if op == "putfield":
        a, v, rest = need(2)
        w = fresh("w")
        old = (Clause(exists=(w,), heap=(PointsTo(a, ins.field, Var(w)),)),)
        new = _pt_clause(a, ins.field, v)
        return Star(old, Wand(new, succ(i + 1, rest, locals_)))
    if op == "new":
        a = fresh("n")
        cells = tuple(
            PointsTo(Var(a), fname, _DEFAULT_TERM[ftype]) for fname, ftype in ins.desc.entries
        )
        return Forall(a, Wand((Clause(heap=cells),), succ(i + 1, (Var(a),) + stack, locals_)))
    if op == "free":
        a, rest = need(1)
        names = tuple(fresh("v") for _ in ins.desc.entries)
        cells = tuple(
            PointsTo(a, fname, Var(nm)) for (fname, _), nm in zip(ins.desc.entries, names)
        )
        return Star((Clause(exists=names, heap=cells),), succ(i + 1, rest, locals_))
    if op == "consume":
        charge = (Clause(resource=ResourceExpr.const(ins.amount)),)
        return Star(charge, succ(i + 1, stack, locals_))
    if op in ("consume_dyn", "acquire"):
        raise VcgenError(
            f"{proc.name}@{i}: {op} is not supported by the analysis; "
            "use `consume` with a literal amount"
        )
    if op == "call":
        if ins.callee not in procs:
            raise VcgenError(f"{proc.name}@{i}: call to unknown procedure {ins.callee!r}")
        callee = procs[ins.callee]
        params = [pname for pname, _ in callee.params]
        parts = need(callee.arity)
        args, rest = parts[: callee.arity], parts[callee.arity]
        sub = {pname: arg for pname, arg in zip(params, args)}
        env_vars = sorted(
            (assertion_free_vars(callee.precondition) | assertion_free_vars(callee.postcondition))
            - set(params)
            - {"ret"}
        )
        renames = {e: fresh("t") for e in env_vars}
        sub.update({e: Var(nm) for e, nm in renames.items()})
        rv = fresh("r")
        pre = subst_assertion(callee.precondition, sub)
        post_sub = dict(sub)
        post_sub["ret"] = Var(rv)
        callee_post = subst_assertion(callee.postcondition, post_sub)
        goal: Goal = Star(
            pre,
            Forall(rv, Wand(callee_post, succ(i + 1, (Var(rv),) + rest, locals_))),
        )
        for e in reversed(env_vars):
            goal = Exists(renames[e], goal)
        return goal
    if op == "return":
        v, _rest = need(1)
        sub: dict[str, Term] = {"ret": v}
        for slot, (pname, _) in enumerate(proc.params):
            if slot in locals_:
                sub[pname] = locals_[slot]
        return Leaf(subst_assertion(proc.postcondition, sub))
    raise VcgenError(f"{proc.name}@{i}: unknown instruction {op}")


# ---------------------------------------------------------------------------
# whole-procedure generation


class _Generator:
    def __init__(self, proc: Procedure, procs: Mapping[str, Procedure], fields: Mapping[str, str]):
        self.proc = proc
        self.procs = procs
        self.layout = stack_layout(proc, fields, procs)
        self._memo: dict = {}
        self._fresh = 0

    def fresh(self, base: str) -> str:
        self._fresh += 1
        return f"{base}.{self._fresh}"

    def goal_at(self, offset: int, stack: tuple, locals_: dict) -> Goal:
        """Continuation goal for `offset`: its annotation if present, else its wlp."""
        inv = self.proc.invariant_at(offset)
        if inv is not None:
            sub = {}
            for slot, name in enumerate(self.proc.local_names):
                if slot in locals_:
                    sub[name] = locals_[slot]
            return Leaf(subst_assertion(inv, sub))
        key = (offset, stack, tuple(sorted(locals_.items(), key=lambda kv: kv[0])))
        if key not in self._memo:
            self._memo[key] = self.wlp_at(offset, stack, locals_)
        return self._memo[key]

    def wlp_at(self, offset: int, stack: tuple, locals_: dict) -> Goal:
        return _instruction_wlp(
            self.proc.code[offset],
            offset,
            self.goal_at,
            stack,
            locals_,
            self.fresh,
            self.procs,
            self.proc,
            self.layout[offset],
        )


def gen_vcs(
    proc: Procedure,
    procs: Mapping[str, Procedure],
    fields: Optional[Mapping[str, str]] = None,
    warnings: Optional[list] = None,
) -> list[VerificationCondition]:
    """All VCs for one procedure: one per annotated offset, then the entry VC.

    `procs` maps callee names to procedures.  Offsets absent from the stack
    layout are unreachable from 0 and get no VC.
    """
    gen = _Generator(proc, procs, fields or {})
    order, _back = order_for_wlp(proc)
    if warnings is not None:
        for off in range(len(proc.code)):
            if off not in gen.layout:
                warnings.append(f"{proc.name}@{off}: unreachable instruction (no VC generated)")
    vcs: list[VerificationCondition] = []
    identity_locals = {slot: Var(name) for slot, name in enumerate(proc.local_names)}
    for offset in reversed(order):
        inv = proc.invariant_at(offset)
        if inv is None or offset not in gen.layout:
            continue
        depth = len(gen.layout[offset])
        stack = tuple(Var(gen.fresh("s")) for _ in range(depth))
        consequent = gen.wlp_at(offset, stack, dict(identity_locals))
        vcs.append(
            VerificationCondition(
                vc_id=f"{proc.name}@{offset}",
                antecedent=inv,
                consequent=consequent,
            )
        )
    entry_locals = {slot: Var(name) for slot, (name, _) in enumerate(proc.params)}
    entry_goal = gen.goal_at(0, (), entry_locals)
    vcs.append(
        VerificationCondition(
            vc_id=f"{proc.name}@entry",
            antecedent=proc.precondition,
            consequent=entry_goal,
        )
    )
    return vcs


def gen_program_vcs(prog: Program, warnings: Optional[list] = None):
    procs = {p.name: p for p in prog.procedures}
    fields = field_types(prog)
    out = []
    for proc in prog.procedures:
        out.extend(gen_vcs(proc, procs, fields, warnings))
    return out
