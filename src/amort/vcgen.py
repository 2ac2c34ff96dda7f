"""Verification-condition generation: backwards wlp over the control graph.

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
from typing import Callable, Mapping, Optional, Sequence

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


@dataclass(frozen=True)
class ProcSpec:
    params: tuple[str, ...]
    pre: Assertion
    post: Assertion


def program_specs(prog: Program) -> dict[str, ProcSpec]:
    return {
        p.name: ProcSpec(tuple(n for n, _ in p.params), p.precondition, p.postcondition)
        for p in prog.procedures
    }


def field_types(prog: Program) -> dict[str, str]:
    """Field name -> value type, collected from every descriptor in the program."""
    out: dict[str, str] = {}
    for p in prog.procedures:
        for ins in p.code:
            if ins.desc is not None:
                for fname, ftype in ins.desc.entries:
                    if out.get(fname, ftype) != ftype:
                        out[fname] = "any"
                    else:
                        out[fname] = ftype
    return out


# ---------------------------------------------------------------------------
# forward stack layout (depth and coarse types per offset)

ANY = "any"


def _join(a: str, b: str) -> str:
    return a if a == b else ANY


def stack_layout(proc: Procedure, fields: Mapping[str, str], specs: Mapping[str, ProcSpec]):
    """Type-stack (top first) for each reachable offset; depths must agree."""
    code = proc.code
    ltypes = proc.local_types
    layouts: dict[int, tuple[str, ...]] = {0: ()}
    work = [0]

    def flow(i: int, tys: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
        ins = code[i]

        def pop(n: int) -> tuple[str, ...]:
            if len(tys) < n:
                raise VcgenError(f"{proc.name}@{i}: symbolic stack underflow")
            return tys[n:]

        op = ins.op
        if op == "iconst":
            return [(i + 1, (INT,) + tys)]
        if op == "aconst_null":
            return [(i + 1, (REF,) + tys)]
        if op == "pop":
            return [(i + 1, pop(1))]
        if op == "load":
            return [(i + 1, (ltypes[ins.slot],) + tys)]
        if op == "store":
            return [(i + 1, pop(1))]
        if op == "ibinop":
            return [(i + 1, (INT,) + pop(2))]
        if op == "binarycmp":
            return [(i + 1, pop(2)), (ins.target, pop(2))]
        if op == "unarycmp":
            return [(i + 1, pop(1)), (ins.target, pop(1))]
        if op == "ifnull":
            return [(i + 1, pop(1)), (ins.target, pop(1))]
        if op == "goto":
            return [(ins.target, tys)]
        if op == "new":
            return [(i + 1, (REF,) + tys)]
        if op == "getfield":
            return [(i + 1, (fields.get(ins.field, ANY),) + pop(1))]
        if op == "putfield":
            return [(i + 1, pop(2))]
        if op == "free":
            return [(i + 1, pop(1))]
        if op == "consume":
            return [(i + 1, tys)]
        if op in ("consume_dyn", "acquire"):
            # rejected later by the wlp rules; keep the layout total
            pushed = (INT,) if op == "acquire" else ()
            return [(i + 1, pushed + pop(1))]
        if op == "call":
            arity = len(specs[ins.callee].params) if ins.callee in specs else 0
            return [(i + 1, (ANY,) + pop(arity))]
        if op == "return":
            pop(1)
            return []
        raise VcgenError(f"{proc.name}@{i}: unknown instruction {op}")

    while work:
        i = work.pop()
        for succ, tys in flow(i, layouts[i]):
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
            joined = tuple(_join(a, b) for a, b in zip(old, tys))
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
    specs: Mapping[str, ProcSpec],
    post: Assertion,
    param_names: Sequence[str],
    operand_types: tuple[str, ...] = (),
    where: str = "",
) -> Goal:
    """wlp of a single instruction given goal functions for its successors."""

    def need(n: int):
        if len(stack) < n:
            raise VcgenError(f"{where}@{i}: symbolic stack underflow")
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
            raise VcgenError(f"{where}@{i}: load of uninitialised local {ins.slot}")
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
            f"{where}@{i}: {op} is not supported by the analysis; "
            "use `consume` with a literal amount"
        )
    if op == "call":
        if ins.callee not in specs:
            raise VcgenError(f"{where}@{i}: call to unknown procedure {ins.callee!r}")
        spec = specs[ins.callee]
        arity = len(spec.params)
        parts = need(arity)
        args, rest = parts[:arity], parts[arity]
        sub = {pname: arg for pname, arg in zip(spec.params, args)}
        env_vars = sorted(
            (assertion_free_vars(spec.pre) | assertion_free_vars(spec.post))
            - set(spec.params)
            - {"ret"}
        )
        renames = {e: fresh("t") for e in env_vars}
        sub.update({e: Var(nm) for e, nm in renames.items()})
        rv = fresh("r")
        pre = subst_assertion(spec.pre, sub)
        post_sub = dict(sub)
        post_sub["ret"] = Var(rv)
        callee_post = subst_assertion(spec.post, post_sub)
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
        for slot, pname in enumerate(param_names):
            if slot in locals_:
                sub[pname] = locals_[slot]
        return Leaf(subst_assertion(post, sub))
    raise VcgenError(f"{where}@{i}: unknown instruction {op}")


def wlp(
    ins: Instr,
    succ: Mapping[int, Goal],
    post: Assertion = (Clause(),),
    specs: Optional[Mapping[str, ProcSpec]] = None,
    stack: tuple = (),
    locals_: Optional[dict] = None,
    index: int = 0,
    operand_types: tuple[str, ...] = (),
) -> Goal:
    """Single-instruction wlp against fixed successor goals (mainly for tests)."""
    counter = [0]

    # dotted names cannot clash with source-level identifiers
    def fresh(base: str) -> str:
        counter[0] += 1
        return f"{base}.{counter[0]}"

    def lookup(j: int, _stack, _locals) -> Goal:
        if j not in succ:
            raise VcgenError(f"missing successor goal for offset {j}")
        return succ[j]

    return _instruction_wlp(
        ins,
        index,
        lookup,
        tuple(stack),
        dict(locals_ or {}),
        fresh,
        specs or {},
        post,
        param_names=(),
        operand_types=operand_types,
    )


# ---------------------------------------------------------------------------
# whole-procedure generation


class _Generator:
    def __init__(self, proc: Procedure, specs: Mapping[str, ProcSpec], fields: Mapping[str, str]):
        self.proc = proc
        self.specs = specs
        self.layout = stack_layout(proc, fields, specs)
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
        if not (0 <= offset < len(self.proc.code)):
            raise VcgenError(f"{self.proc.name}@{offset}: offset out of range")
        ins = self.proc.code[offset]
        return _instruction_wlp(
            ins,
            offset,
            self.goal_at,
            stack,
            locals_,
            self.fresh,
            self.specs,
            self.proc.postcondition,
            param_names=tuple(n for n, _ in self.proc.params),
            operand_types=self.layout.get(offset, ()),
            where=self.proc.name,
        )


def unreachable_offsets(proc: Procedure) -> list[int]:
    seen = {0} if proc.code else set()
    work = [0] if proc.code else []
    while work:
        u = work.pop()
        for v in successors(proc.code[u], u):
            if 0 <= v < len(proc.code) and v not in seen:
                seen.add(v)
                work.append(v)
    return sorted(set(range(len(proc.code))) - seen)


def gen_vcs(
    proc: Procedure,
    specs: Mapping[str, ProcSpec],
    fields: Optional[Mapping[str, str]] = None,
    warnings: Optional[list] = None,
) -> list[VerificationCondition]:
    """All VCs for one procedure: one per annotated offset, then the entry VC."""
    gen = _Generator(proc, specs, fields or {})
    order, _back = order_for_wlp(proc)
    unreachable = set(unreachable_offsets(proc))
    if warnings is not None:
        for off in sorted(unreachable):
            warnings.append(f"{proc.name}@{off}: unreachable instruction (no VC generated)")
    vcs: list[VerificationCondition] = []
    identity_locals = {slot: Var(name) for slot, name in enumerate(proc.local_names)}
    for offset in reversed(order):
        inv = proc.invariant_at(offset)
        if inv is None or offset in unreachable:
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
    specs = program_specs(prog)
    fields = field_types(prog)
    out = []
    for proc in prog.procedures:
        out.extend(gen_vcs(proc, specs, fields, warnings))
    return out
