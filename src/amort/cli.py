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

from .assertions import Clause, IntLit, ListSeg, PointsTo, TreeSeg, Var, assertion_str
from .bytecode import (
    INT,
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

    valuation = sol.valuation
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
# input builder: a concrete model of the entry precondition


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


def _value(term, env: dict):
    """The concrete value of a term; an unbound variable is null."""
    if isinstance(term, Var):
        return env.get(term.name)
    return term.value if isinstance(term, IntLit) else None


def _unbound(term, env: dict) -> bool:
    return isinstance(term, Var) and term.name not in env


def build_model(
    entry: Procedure, counts: Sequence[int], ints: Sequence[int], data: Sequence[int] = ()
) -> tuple:
    """(args, heap, next_addr): a model of the entry precondition's first clause.

    `counts` holds the nodes of each lseg/tree instance in atom order (a
    single count stands for every instance), and `ints` the values of the
    int parameters in order.  Heads take addresses in atom order: an
    instance of n > 0 nodes n consecutive ones, and a `pt` head one, shared
    by every `pt` on it, unless an instance's first node is there.  An empty
    instance's head is its stop, and any other unbound variable is null.
    The data of list node i (by index in its instance) is `data[i]`, and a
    formula of i past the end of `data`; trees are complete.  Raises
    ValueError when a count is negative or the clause rules the counts out.
    """
    clause = entry.precondition[0]
    instances = classify_inputs(entry)
    for n in counts:
        if n < 0:
            raise ValueError(f"a node count must be nonnegative, got {n}")
    if len(counts) == 1:
        counts = list(counts) * len(instances)
    elif len(counts) != len(instances):
        raise ValueError(
            f"{len(counts)} node counts for {len(instances)} lseg/tree instances in {entry.name}"
        )
    env = dict(zip((name for name, ty in entry.params if ty == INT), ints))
    # a `pt` on the first node of a non-empty instance takes that node's address
    firsts = {a.head for a, n in zip(instances, counts) if n > 0}
    sizes = iter(counts)
    nodes, empty = [], []
    next_addr = 0
    for atom in clause.heap:
        pt = isinstance(atom, PointsTo)
        head, n = (atom.obj, 1) if pt else (atom.head, next(sizes))
        if n == 0:
            empty.append(atom)
        elif _unbound(head, env) and not (pt and head in firsts):
            env[head.name] = _addrs(next_addr, 1)[0]
            nodes.append((atom, next_addr, n))
            next_addr += n
        elif not pt:
            raise ValueError(f"{atom} needs fresh nodes, but {head} is already bound")
    # an empty instance binds its head to its stop once the stop is bound
    while ready := [a for a in empty if _unbound(a.head, env) and not _unbound(a.stop, env)]:
        for atom in ready:
            env[atom.head.name] = _value(atom.stop, env)

    # a node's cells go in one after the other, since the VM reads them together
    heap: dict = {}
    for atom, start, n in nodes:
        if isinstance(atom, ListSeg):  # node i's next is node i + 1, and the last one's the stop
            nexts = _addrs(start + 1, n - 1) + [_value(atom.stop, env)]
            values = list(data[:n]) + [(i * 37 + 11) % 64 - 17 for i in range(len(data), n)]
            cells = zip(_keys("data", start, n), _keys("next", start, n), values, nexts)
            for kd, kn, value, nxt in cells:
                heap[kd] = value
                heap[kn] = nxt
        elif isinstance(atom, TreeSeg):  # node i's children are nodes 2i + 1 and 2i + 2
            kids = _addrs(start, n) + [None] * (n + 2)
            cells = zip(_keys("left", start, n), _keys("right", start, n), kids[1::2], kids[2::2])
            for kl, kr, left, right in cells:
                heap[kl] = left
                heap[kr] = right
    for atom in clause.heap:
        if isinstance(atom, PointsTo):
            obj = _value(atom.obj, env)
            if not isinstance(obj, vm.Addr):
                raise ValueError(f"{atom} needs an address at {atom.obj}")
            (key,) = _keys(atom.field, obj.index, 1)
            if key in heap:
                raise ValueError(f"{atom} overlaps another cell")
            heap[key] = _value(atom.value, env)
    for atom in empty:
        if _value(atom.head, env) != _value(atom.stop, env):
            raise ValueError(f"{atom} is empty, but {atom.head} is not {atom.stop}")
    for atom in clause.pure:
        if (_value(atom.lhs, env) == _value(atom.rhs, env)) != (atom.op == "="):
            raise ValueError(f"{atom} does not hold")
    return [env.get(name) for name, _ in entry.params], heap, next_addr


# ---------------------------------------------------------------------------
# `run`: execute the entry procedure on built inputs


def _assemble_args(entry: Procedure, ns: argparse.Namespace):
    """The argument vector, heap and next address from `--size`/`--numbers`/`--int`."""
    ints = (ns.int_args or []) + [0] * len(entry.params)
    data = [] if ns.numbers is None else [int(tok) for tok in ns.numbers.split(",") if tok.strip()]
    if ns.size is not None:
        return build_model(entry, [int(tok) for tok in ns.size.split(",")], ints, data)
    if ns.numbers is not None:
        return build_model(entry, [len(data)], ints, data)
    it = iter(ints)
    return [next(it) if ty == INT else None for _, ty in entry.params], {}, 0


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


def classify_inputs(entry: Procedure) -> tuple:
    """The lseg/tree instances of the entry precondition's first clause, in
    atom order: `check` builds each with n nodes at size n.  perfbench/run.py
    calls this in the set-up of its replay workloads."""
    return tuple(a for a in entry.precondition[0].heap if isinstance(a, (ListSeg, TreeSeg)))


def _replay_input(plan: tuple, entry: Procedure, n: int, valuation) -> tuple:
    """(args, heap, next_addr, budget) with n nodes per instance of `plan`
    and 2 for each int parameter (loop strides etc.; any positive constant
    works).  The budget is exact: the resource plus each instance's
    annotation per node.  Raises ValueError for a size the clause rules out."""
    args, heap, next_addr = build_model(entry, [n], [2] * len(entry.params))
    budget = entry.precondition[0].resource.eval(valuation)
    budget += n * sum(a.ann.eval(valuation) for a in plan)
    return args, heap, next_addr, budget


def _sized_input(plan: tuple, entry: Procedure, n: int, valuation) -> Optional[tuple]:
    """The replay input at size n, or None where the clause rules n out.
    perfbench/run.py calls this in every round of its replay workloads."""
    try:
        return _replay_input(plan, entry, n, valuation)
    except ValueError:
        return None


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
    sized = ", ".join(str(a) for a in plan) or "none"
    print(f"checking {prog.entry} at sizes 0..{ns.max_size} (n nodes per instance: {sized})")
    worst: Optional[Fraction] = None
    for n in range(ns.max_size + 1):
        try:
            args, heap, next_addr, budget = _replay_input(plan, entry, n, report.valuation)
        except ValueError as e:
            print(f"size {n:3d}: skipped ({e})")
            continue
        try:
            result = vm.run(prog, args, budget, fuel=ns.fuel, heap=heap, next_addr=next_addr)
        except vm.VmError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(result.outcome, vm.Halt):
            detail = result.to_json()
            where = "".join(f" {detail[k]}" for k in ("reason", "at") if k in detail)
            print(
                f"size {n}: {result.kind} with budget {budget} (consumed {result.consumed}){where}",
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
        problem = problem_from_constraints(report.constraints, primary, pool)
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
    pr.add_argument(
        "--size", metavar="N[,N...]",
        help="nodes per lseg/tree instance of the precondition: one for all, or one each",
    )
    pr.add_argument(
        "--numbers", metavar="CSV",
        help="list data by node index; without --size, every count is the number of values",
    )
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
