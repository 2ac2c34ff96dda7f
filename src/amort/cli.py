"""Command-line driver: analyse, execute, and budget-check annotated programs.

Ties the pipeline together: parse -> validate -> VC generation -> proof
search -> linear programming -> report.  Also wraps the interpreter so
programs can be executed under explicit resource budgets (`run`), and
replays analysed programs at a range of input sizes to compare consumption
against the inferred bound (`check`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .assertions import Clause, ListSeg, PointsTo, TreeSeg, Var, assertion_str
from .bytecode import (
    INT,
    REF,
    Procedure,
    Program,
    ProgramParseError,
    parse_program_file,
    validate,
)
from .lp import problem_from_constraints, lp_dump, solve_lexicographic
from .prover import Constraint, Prover, merge_constraints
from .resources import ResourceExpr, parse_rational
from .vcgen import VcgenError, VerificationCondition, gen_program_vcs
from . import vm

CORPUS_DIR = Path(__file__).parent / "corpus"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_PROOF = 4
EXIT_INFEASIBLE = 5
EXIT_BUDGET = 6
EXIT_STUCK = 7
EXIT_FUEL = 8

_RUN_EXITS = {
    "Halt": EXIT_OK,
    "BudgetViolation": EXIT_BUDGET,
    "Stuck": EXIT_STUCK,
    "FuelExhausted": EXIT_FUEL,
}


# ---------------------------------------------------------------------------
# metavariable bookkeeping


def _assertion_metavars(a) -> list[str]:
    """Annotation variables of an assertion, in first-appearance order."""
    out: list[str] = []
    for clause in a:
        exprs = [
            atom.ann for atom in clause.heap if isinstance(atom, (ListSeg, TreeSeg))
        ]
        exprs.append(clause.resource)
        for e in exprs:
            for v in e.variables:
                if v not in out:
                    out.append(v)
    return out


def metavariable_pool(prog: Program) -> tuple[list[str], list[str]]:
    """(primary, pool) of annotation variables.

    `primary` is the entry procedure's precondition variables (the quantity
    the analysis minimises); `pool` extends it with every variable appearing
    in any specification or invariant, in file order.
    """
    primary = _assertion_metavars(prog.proc(prog.entry).precondition)
    pool = list(primary)
    for p in prog.procedures:
        assertions = [p.precondition, p.postcondition]
        assertions.extend(inv for _, inv in p.invariants)
        for a in assertions:
            for v in _assertion_metavars(a):
                if v not in pool:
                    pool.append(v)
    return primary, pool


def assertion_with_valuation(a, valuation) -> tuple[Clause, ...]:
    """The assertion with every annotation evaluated to a rational."""
    solved = []
    for clause in a:
        heap = tuple(
            dataclasses.replace(atom, ann=ResourceExpr.const(atom.ann.eval(valuation)))
            if isinstance(atom, (ListSeg, TreeSeg))
            else atom
            for atom in clause.heap
        )
        resource = ResourceExpr.const(clause.resource.eval(valuation))
        solved.append(dataclasses.replace(clause, heap=heap, resource=resource))
    return tuple(solved)


# ---------------------------------------------------------------------------
# analysis driver


class AnalysisError(Exception):
    """A failure with a CLI exit code and whatever partial results exist."""

    def __init__(self, exit_code: int, message: str, *, vcs=(), constraints=()):
        super().__init__(message)
        self.exit_code = exit_code
        self.message = message
        self.vcs = tuple(vcs)
        self.constraints = tuple(constraints)


@dataclass(frozen=True)
class VcOutcome:
    vc_id: str
    ok: bool
    n_constraints: int


@dataclass(frozen=True)
class ProcOutcome:
    name: str
    requires: str
    ensures: str
    invariants: tuple[tuple[int, str], ...]
    solved_requires: str
    solved_ensures: str
    solved_invariants: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class AnalysisReport:
    entry: str
    valuation: dict[str, Fraction]
    objective: Fraction
    vc_outcomes: tuple[VcOutcome, ...]
    constraints: tuple[Constraint, ...]
    procs: tuple[ProcOutcome, ...]
    timings: dict[str, float]
    warnings: tuple[str, ...]
    lp_pivots: int
    prover_ticks: int
    saturation_branches: int
    vcs: tuple[VerificationCondition, ...]  # the proved VCs, in generation order

    def to_json(self) -> dict:
        return {
            "entry": self.entry,
            "valuation": {k: str(v) for k, v in sorted(self.valuation.items())},
            "objective": str(self.objective),
            "vcs": [
                {"id": o.vc_id, "ok": o.ok, "constraints": o.n_constraints}
                for o in self.vc_outcomes
            ],
            "constraints": [str(c) for c in self.constraints],
            "procedures": [
                {
                    "name": p.name,
                    "requires": p.requires,
                    "ensures": p.ensures,
                    "invariants": [{"offset": o, "assertion": s} for o, s in p.invariants],
                    "solved": {
                        "requires": p.solved_requires,
                        "ensures": p.solved_ensures,
                        "invariants": [
                            {"offset": o, "assertion": s}
                            for o, s in p.solved_invariants
                        ],
                    },
                }
                for p in self.procs
            ],
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "warnings": list(self.warnings),
            "stats": {
                "lp_pivots": self.lp_pivots,
                "prover_ticks": self.prover_ticks,
                "saturation_branches": self.saturation_branches,
            },
        }


# vcgen and the prover recurse once per instruction on a straight-line path
_TOO_DEEP = (
    "{stage} error: a path through the program is too long to analyse"
    " (maximum recursion depth exceeded)"
)


def analyze_program(prog: Program) -> AnalysisReport:
    """Run the full inference pipeline; raises AnalysisError on any failure."""
    warnings: list[str] = []
    t0 = time.perf_counter()
    try:
        vcs = gen_program_vcs(prog, warnings)
    except VcgenError as e:
        raise AnalysisError(EXIT_PROOF, f"cannot generate verification conditions: {e}")
    except RecursionError:
        raise AnalysisError(EXIT_PROOF, _TOO_DEEP.format(stage="vcgen"))
    t_vcgen = time.perf_counter() - t0

    prover = Prover()
    outcomes: list[VcOutcome] = []
    proved = []
    ticks = branches = 0
    t1 = time.perf_counter()
    for vc in vcs:
        try:
            res = prover.prove_vc(vc)
        except RecursionError:
            raise AnalysisError(EXIT_PROOF, _TOO_DEEP.format(stage="prove"))
        ticks += res.ticks
        branches += res.branches
        if not res.ok:
            f = res.failure
            raise AnalysisError(
                EXIT_PROOF,
                f"proof failed for {f.vc_id or vc.vc_id}: {f.message} (depth {f.depth})",
                vcs=vcs,
            )
        outcomes.append(VcOutcome(vc.vc_id, True, len(res.constraints)))
        proved.append(res.constraints)
    t_prove = time.perf_counter() - t1

    constraints = merge_constraints(*proved)
    primary, pool = metavariable_pool(prog)
    for c in constraints:
        for v in (c.lhs - c.rhs).variables:
            if v not in pool:  # fresh symbols never reach constraints, but be safe
                pool.append(v)

    t2 = time.perf_counter()
    sol = solve_lexicographic(constraints, primary, pool)
    t_lp = time.perf_counter() - t2
    if not sol.optimal:
        rows = [i + 1 for i, w in enumerate(sol.certificate) if w > 0]
        raise AnalysisError(
            EXIT_INFEASIBLE,
            "no valuation satisfies the resource constraints"
            f" (unsatisfiable combination of constraints {rows})",
            vcs=vcs,
            constraints=constraints,
        )

    valuation = dict(sol.valuation)
    for v in pool:
        valuation.setdefault(v, Fraction(0))
    # the reported valuation must satisfy every reported constraint
    for c in constraints:
        assert c.lhs.eval(valuation) >= c.rhs.eval(valuation), f"infeasible report: {c}"

    procs = []
    for p in prog.procedures:
        procs.append(
            ProcOutcome(
                name=p.name,
                requires=assertion_str(p.precondition),
                ensures=assertion_str(p.postcondition),
                invariants=tuple(
                    (off, assertion_str(inv)) for off, inv in p.invariants
                ),
                solved_requires=assertion_str(
                    assertion_with_valuation(p.precondition, valuation)
                ),
                solved_ensures=assertion_str(
                    assertion_with_valuation(p.postcondition, valuation)
                ),
                solved_invariants=tuple(
                    (off, assertion_str(assertion_with_valuation(inv, valuation)))
                    for off, inv in p.invariants
                ),
            )
        )

    return AnalysisReport(
        entry=prog.entry,
        valuation=valuation,
        objective=sol.objective,
        vc_outcomes=tuple(outcomes),
        constraints=constraints,
        procs=tuple(procs),
        timings={"vcgen": t_vcgen, "prove": t_prove, "lp": t_lp},
        warnings=tuple(warnings),
        lp_pivots=sol.pivots,
        prover_ticks=ticks,
        saturation_branches=branches,
        vcs=tuple(vcs),
    )


# ---------------------------------------------------------------------------
# input builders: concrete heaps matching the precondition shapes


# Built heaps take their addresses and cell keys from these shared tables.
# Heaps built over the same address range (one per size in `check`, one per
# job in a replay) then share them, and each heap costs little more than its
# dict: the (address, field) keys are most of a heap's memory.
_ADDRS: list = []  # vm.Addr(i) at index i
_KEYS: dict = {}  # field name -> [(_ADDRS[i], field) at index i]


def _addrs(start: int, n: int) -> list:
    """vm.Addr(i) for i in start .. start + n - 1."""
    _ADDRS.extend(vm.Addr(i) for i in range(len(_ADDRS), start + n))
    return _ADDRS[start : start + n]


def _keys(field: str, start: int, n: int) -> list:
    """The cell keys (Addr(i), field) for i in start .. start + n - 1."""
    _addrs(start, n)
    keys = _KEYS.setdefault(field, [])
    keys.extend((_ADDRS[i], field) for i in range(len(keys), start + n))
    return keys[start : start + n]


def _need_size(what: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")


def build_list(n: int, next_addr: int = 0, data: Optional[Sequence[int]] = None):
    """A null-terminated list of n nodes; returns (head, heap, next_addr)."""
    _need_size("the list length", n)
    values = list(data) if data is not None else [(i * 37 + 11) % 64 - 17 for i in range(n)]
    addrs = _addrs(next_addr, n)
    heap: dict = {}
    for i, (kd, kn) in enumerate(zip(_keys("data", next_addr, n), _keys("next", next_addr, n))):
        heap[kd] = values[i]
        heap[kn] = addrs[i + 1] if i + 1 < n else None
    head = addrs[0] if addrs else None
    return head, heap, next_addr + n


def build_tree(n: int, next_addr: int = 0):
    """A complete binary tree of n nodes; returns (root, heap, next_addr)."""
    _need_size("the tree size", n)
    addrs = _addrs(next_addr, n)
    heap: dict = {}
    for i, (kl, kr) in enumerate(zip(_keys("left", next_addr, n), _keys("right", next_addr, n))):
        left, right = 2 * i + 1, 2 * i + 2
        heap[kl] = addrs[left] if left < n else None
        heap[kr] = addrs[right] if right < n else None
    root = addrs[0] if addrs else None
    return root, heap, next_addr + n


def build_pan(handle: int, pan: int, next_addr: int = 0):
    """A cyclic-tailed ("frying pan") list; returns (head, join, heap, next_addr).

    `handle` counts the nodes from the head up to and including the join
    (so handle >= 1); `pan` counts the remaining nodes of the cycle.  The
    join's next pointer enters the pan and the last pan node points back
    at the join.
    """
    if handle < 1:
        raise ValueError("the handle must contain at least the join node")
    _need_size("the pan", pan)
    total = handle + pan
    addrs = _addrs(next_addr, total)
    join = addrs[handle - 1]
    heap: dict = {}
    cells = zip(_keys("data", next_addr, total), _keys("next", next_addr, total))
    for i, (kd, kn) in enumerate(cells):
        heap[kd] = i
        heap[kn] = addrs[i + 1] if i + 1 < total else join
    return addrs[0], join, heap, next_addr + total


def build_queue(n: int, next_addr: int = 0):
    """A two-list queue record with n nodes in each list.

    Returns (queue_ref, heap, next_addr)."""
    _need_size("the queue size", n)
    q = vm.Addr(next_addr)
    head, heap, nxt = build_list(n, next_addr + 1)
    tail, tail_heap, nxt = build_list(n, nxt)
    heap.update(tail_heap)
    heap[(q, "head")] = head
    heap[(q, "tail")] = tail
    return q, heap, nxt


# ---------------------------------------------------------------------------
# `run`: execute the entry procedure on built inputs


def _assemble_args(entry: Procedure, ns: argparse.Namespace):
    """Build the heap and argument vector for the entry procedure."""
    heap: dict = {}
    next_addr = 0
    refs: list = []
    if ns.pan is not None:
        parts = ns.pan.split(",")
        if len(parts) != 2:
            raise ValueError("--pan needs HANDLE,PAN")
        head, join, heap_part, next_addr = build_pan(int(parts[0]), int(parts[1]), next_addr)
        heap.update(heap_part)
        refs.extend([head, join])
    if ns.numbers is not None:
        values = [int(tok) for tok in ns.numbers.split(",") if tok.strip() != ""]
        head, heap_part, next_addr = build_list(len(values), next_addr, data=values)
        heap.update(heap_part)
        refs.append(head)
    if ns.list_len is not None:
        head, heap_part, next_addr = build_list(ns.list_len, next_addr)
        heap.update(heap_part)
        refs.append(head)
    if ns.tree_size is not None:
        root, heap_part, next_addr = build_tree(ns.tree_size, next_addr)
        heap.update(heap_part)
        refs.append(root)
    if ns.queue_size is not None:
        q, heap_part, next_addr = build_queue(ns.queue_size, next_addr)
        heap.update(heap_part)
        refs.append(q)

    ints = list(ns.int_args or [])
    args = []
    for _, ty in entry.params:
        if ty == REF:
            args.append(refs.pop(0) if refs else None)
        else:
            args.append(ints.pop(0) if ints else 0)
    return args, heap, next_addr


def _heap_cells(heap: dict) -> list[dict]:
    cells = []
    for (addr, field), value in sorted(heap.items(), key=lambda kv: (kv[0][0].index, kv[0][1])):
        cells.append({"addr": addr.index, "field": field, "value": vm.value_str(value)})
    return cells


def cmd_run(ns: argparse.Namespace) -> int:
    prog = _load_program(ns.file)
    if prog is None:
        return EXIT_PARSE
    entry = prog.proc(prog.entry)
    try:
        args, heap, next_addr = _assemble_args(entry, ns)
        budget = parse_rational(ns.budget)
        if ns.policy is not None:
            policy = vm.parse_policy(ns.policy)
        elif ns.seed is not None:
            policy = vm.AcquisitionPolicy.seeded(ns.seed)
        else:
            policy = vm.ALWAYS_DENY
        result = vm.run(
            prog, args, budget, policy=policy, fuel=ns.fuel, heap=heap, next_addr=next_addr
        )
    except (vm.VmError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if ns.json:
        out = result.to_json()
        if isinstance(result.outcome, vm.Halt):
            out["heap"] = _heap_cells(result.outcome.heap)
        print(json.dumps(out, indent=2))
    else:
        detail = result.to_json()
        line = f"{result.kind}: consumed {result.consumed} of {result.total} in {result.steps} steps"
        if "return" in detail:
            line += f", returned {detail['return']}"
        if "reason" in detail:
            line += f" ({detail['reason']} at {detail['at']})"
        print(line)
    return _RUN_EXITS[result.kind]


# ---------------------------------------------------------------------------
# `check`: replay the program at a range of sizes under the inferred budget


@dataclass(frozen=True)
class _InputPlan:
    kind: str  # list | tree | pan | queue | plain
    note: str


def classify_inputs(entry: Procedure) -> _InputPlan:
    """Pick a builder family from the shape of the entry precondition."""
    clause = entry.precondition[0]
    lsegs = [a for a in clause.heap if isinstance(a, ListSeg)]
    trees = [a for a in clause.heap if isinstance(a, TreeSeg)]
    cells = [a for a in clause.heap if isinstance(a, PointsTo)]
    if trees and not lsegs and not cells:
        return _InputPlan("tree", "complete binary tree of n nodes")
    if len(lsegs) == 2 and len(cells) == 1 and not trees:
        return _InputPlan("pan", "cyclic tail: handle n+1 (join included), pan n")
    if len(lsegs) == 2 and len(cells) == 2 and not trees:
        return _InputPlan("queue", "two-list queue with n nodes per list")
    if len(lsegs) == 1 and not cells and not trees:
        return _InputPlan("list", "null-terminated list of n nodes")
    return _InputPlan("plain", "no heap input; constant budget")


def _sized_input(plan: _InputPlan, entry: Procedure, n: int, valuation) -> tuple:
    """Concrete (args, heap, next_addr, budget) for size n."""
    clause = entry.precondition[0]
    refs: list = []
    heap: dict = {}
    next_addr = 0
    budget = clause.resource.eval(valuation)
    if plan.kind == "list":
        head, heap, next_addr = build_list(n)
        refs.append(head)
        (seg,) = [a for a in clause.heap if isinstance(a, ListSeg)]
        budget += seg.ann.eval(valuation) * n
    elif plan.kind == "tree":
        root, heap, next_addr = build_tree(n)
        refs.append(root)
        (seg,) = [a for a in clause.heap if isinstance(a, TreeSeg)]
        budget += seg.ann.eval(valuation) * n
    elif plan.kind == "pan":
        head, join, heap, next_addr = build_pan(n + 1, n)
        refs.extend([head, join])
        for seg in clause.heap:
            if isinstance(seg, ListSeg):
                budget += seg.ann.eval(valuation) * n
    elif plan.kind == "queue":
        q, heap, next_addr = build_queue(n)
        refs.append(q)
        for seg in clause.heap:
            if isinstance(seg, ListSeg):
                budget += seg.ann.eval(valuation) * n

    args = []
    for _, ty in entry.params:
        if ty == REF:
            args.append(refs.pop(0) if refs else None)
        else:
            args.append(2)  # loop strides etc.; any positive constant works
    return args, heap, next_addr, budget


def cmd_check(ns: argparse.Namespace) -> int:
    code, prog = _load_validated(ns.file)
    if prog is None:
        return code
    for flag, value in (("--max-size", ns.max_size), ("--fuel", ns.fuel)):
        if value < 0:
            print(f"error: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        report = analyze_program(prog)
    except AnalysisError as e:
        print(f"analysis failed: {e.message}", file=sys.stderr)
        return e.exit_code

    entry = prog.proc(prog.entry)
    plan = classify_inputs(entry)
    print(f"checking {prog.entry} at sizes 0..{ns.max_size} ({plan.note})")
    worst: Optional[Fraction] = None
    for n in range(ns.max_size + 1):
        args, heap, next_addr, budget = _sized_input(plan, entry, n, report.valuation)
        try:
            result = vm.run(prog, args, budget, fuel=ns.fuel, heap=heap, next_addr=next_addr)
        except vm.VmError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(result.outcome, vm.Halt):
            detail = result.to_json()
            why = detail.get("reason", result.kind)
            where = detail.get("at", "")
            print(
                f"size {n}: {result.kind} with budget {budget} "
                f"(consumed {result.consumed}) {why} {where}".rstrip(),
                file=sys.stderr,
            )
            return _RUN_EXITS[result.kind]
        ratio = None
        if budget > 0:
            ratio = result.consumed / budget
            worst = ratio if worst is None else max(worst, ratio)
        used = f"{result.consumed}/{budget}"
        print(f"size {n:3d}: consumed {used}" + (f"  tightness {ratio}" if ratio is not None else ""))
    if worst is not None:
        print(f"max tightness: {worst}")
    print("no budget violations")
    return EXIT_OK


# ---------------------------------------------------------------------------
# `analyze`


def cmd_analyze(ns: argparse.Namespace) -> int:
    code, prog = _load_validated(ns.file)
    if prog is None:
        return code
    # with the JSON on stdout, the text report goes to stderr
    out = sys.stderr if ns.json == "-" else sys.stdout
    try:
        report = analyze_program(prog)
    except AnalysisError as e:
        if ns.emit_vcs and e.vcs:
            for vc in e.vcs:
                print(vc, file=out)
        if ns.emit_constraints and e.constraints:
            for c in e.constraints:
                print(c, file=out)
        print(f"analysis failed: {e.message}", file=sys.stderr)
        return e.exit_code

    if ns.emit_vcs:
        for vc in report.vcs:
            print(vc, file=out)
        print(file=out)
    if ns.emit_constraints:
        for c in report.constraints:
            print(c, file=out)
        print(file=out)
    if ns.lp_dump:
        primary, pool = metavariable_pool(prog)
        problem = problem_from_constraints(
            report.constraints, {v: Fraction(1) for v in primary}, pool
        )
        print(lp_dump(problem), end="", file=out)
        print(file=out)

    for p in report.procs:
        print(f"{p.name}:", file=out)
        print(f"  requires  {p.requires}", file=out)
        print(f"       =>   {p.solved_requires}", file=out)
        print(f"  ensures   {p.ensures}", file=out)
        print(f"       =>   {p.solved_ensures}", file=out)
        for (off, sym), (_, solved) in zip(p.invariants, p.solved_invariants):
            print(f"  invariant@{off}  {sym}", file=out)
            print(f"       =>   {solved}", file=out)
    pairs = ", ".join(f"${k} = {v}" for k, v in sorted(report.valuation.items()))
    print(f"valuation: {pairs}", file=out)
    print(f"objective (entry precondition total): {report.objective}", file=out)
    print(f"VCs proved: {len(report.vc_outcomes)}; constraints: {len(report.constraints)}", file=out)
    t = report.timings
    print(f"timings: vcgen {t['vcgen']:.3f}s, prove {t['prove']:.3f}s, lp {t['lp']:.3f}s", file=out)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)

    if ns.json:
        payload = json.dumps(report.to_json(), indent=2)
        if ns.json == "-":
            print(payload)
        else:
            try:
                Path(ns.json).write_text(payload + "\n", encoding="utf-8")
            except OSError as e:
                print(f"error: {e}", file=sys.stderr)
                return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


def _resolve_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    candidate = CORPUS_DIR / f"{name}.amr"
    if candidate.exists():
        return candidate
    return p  # let the open() error carry the original name


def _load_program(name: str) -> Optional[Program]:
    """The parsed program, or None after reporting why it could not be read."""
    try:
        return parse_program_file(_resolve_path(name))
    except OSError as e:  # missing, a directory, unreadable, name too long
        print(f"error: {e}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"error: {name}: not UTF-8 text ({e})", file=sys.stderr)
    except ProgramParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
    return None


def _load_validated(name: str):
    prog = _load_program(name)
    if prog is None:
        return EXIT_PARSE, None
    problems = validate(prog)
    if problems:
        for msg in problems:
            print(f"invalid program: {msg}", file=sys.stderr)
        return EXIT_VALIDATE, None
    return EXIT_OK, prog


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amort",
        description="amortised resource analysis and budgeted execution "
        "for annotated stack-machine programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="infer resource annotations")
    pa.add_argument("file", help="program file (or bare corpus name)")
    pa.add_argument("--emit-vcs", action="store_true", help="print the verification conditions")
    pa.add_argument(
        "--emit-constraints", action="store_true", help="print the linear constraints"
    )
    pa.add_argument("--lp-dump", action="store_true", help="print the LP in text form")
    pa.add_argument("--json", metavar="OUT", help="write the report as JSON ('-' for stdout)")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("run", help="execute under a resource budget")
    pr.add_argument("file", help="program file (or bare corpus name)")
    pr.add_argument("--budget", default="0", help="initial resource budget (rational p/q)")
    pr.add_argument("--fuel", type=int, default=100_000, help="maximum interpreter steps")
    pr.add_argument("--policy", help="acquisition policy script, e.g. grant,deny")
    pr.add_argument("--seed", type=int, help="seeded random acquisition policy")
    pr.add_argument("--json", action="store_true", help="print the outcome as JSON")
    pr.add_argument("--list-len", type=int, help="pass a fresh list of this length")
    pr.add_argument("--tree-size", type=int, help="pass a complete tree of this size")
    pr.add_argument("--pan", metavar="H,P", help="pass a cyclic-tail list (handle H incl. join, pan P)")
    pr.add_argument("--numbers", metavar="CSV", help="pass a list with these data values")
    pr.add_argument("--queue-size", type=int, help="pass a two-list queue with n nodes per list")
    pr.add_argument(
        "--int", dest="int_args", type=int, action="append", metavar="N",
        help="value for the next integer parameter (repeatable)",
    )
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("check", help="compare consumption against the inferred bound")
    pc.add_argument("file", help="program file (or bare corpus name)")
    pc.add_argument("--max-size", type=int, default=20, help="largest input size to replay")
    pc.add_argument("--fuel", type=int, default=1_000_000, help="maximum interpreter steps per size")
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        code = ns.func(ns)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point the descriptor at the
        # null device so that the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
