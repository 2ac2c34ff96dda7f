"""Reference implementations the tests compare the analysis against.

`enumerate_vertices_oracle` finds an optimum without any simplex code: it
solves every square subsystem of the constraints and keeps the best feasible
point.  `pinned_lexicographic` is the two-solve formulation of the
lexicographic objective: solve for the primary objective, then solve again
with a row pinning the primary optimum.  `reference_solve` is the
`{column: Fraction}` simplex that `amort.lp.solve` replaced: the same Bland
pivots over rational rows, so the two must agree exactly, pivot count
included.  `verify_certificate` checks a Farkas certificate against its
problem.  `model_check` and `goal_holds` are
a bounded model checker for assertions and goals: they decide truth in a
small concrete heap by enumeration, independently of the prover.
`reference_run` is the pure small-step interpreter: every step returns a
fresh state, copying the heap on `new`/`putfield`/`free` and the frame tuple
on every step, so it is quadratic but obviously free of aliasing.
`traced_run` drives the shipped machine of `amort.vm` one step at a time and
snapshots it before every step, in the reference's `MachineState` form.
`ReferencePureContext` is the rescanning pure decision procedure: it keeps
the disequalities as a list and walks all of them on every query.
`ReferenceProver` is the prover with its unfolding and matching rules written
out once per inductive predicate, `lseg` and `tree` apart, and a cell closure
that rescans every pair of cells.  `RewritingProver` is the prover with the
goal dispatch that rewrites the rest of the goal at every binder and `*`
match (`subst_goal`), where the shipped one carries an environment.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from amort.assertions import (
    LSEG_DATA,
    LSEG_NEXT,
    TREE_LEFT,
    TREE_RIGHT,
    NULL,
    And,
    Clause,
    Exists,
    Forall,
    Goal,
    Implies,
    IntLit,
    Leaf,
    ListSeg,
    NullTerm,
    PointsTo,
    PureAtom,
    Star,
    Term,
    TreeSeg,
    Var,
    Wand,
    _fresh_name,
    assertion_free_vars,
    atom_terms,
    is_literal,
    map_atom,
    subst_assertion,
    subst_term,
    term_vars,
)
from amort.bytecode import Instr, Program
from amort.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    LpSolution,
    problem_from_constraints,
    solve,
)
from amort.prover import (
    Constraint,
    ConstraintSet,
    EVar,
    ProofContext,
    Prover,
    match_resource,
    merge_constraints,
    resolve,
)
from amort.resources import ZERO, ResourceValue, res_of_int
from amort import vm
from amort.vm import (
    ALWAYS_DENY,
    AcquisitionPolicy,
    Addr,
    BudgetViolation,
    FuelExhausted,
    Halt,
    Heap,
    RunResult,
    Stuck,
    Value,
    VmError,
    _StuckSignal,
    is_ref,
    value_str,
)


class LpSizeError(ValueError):
    """The brute-force oracle was handed a problem above its size bounds."""


def _gauss_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve ``mat . x = rhs`` exactly; None when ``mat`` is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): each row is scaled to
    integers, every elimination step divides exactly by the previous pivot,
    and the only fractions formed are the final ``x_i = a[i][n] / det``.
    """
    n = len(rhs)
    a = []
    for row, b in zip(mat, rhs):
        scale = math.lcm(b.denominator, *(v.denominator for v in row))
        a.append([v.numerator * (scale // v.denominator) for v in (*row, b)])
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None  # singular
        a[col], a[piv] = a[piv], a[col]
        pivot_row = a[col]
        d = pivot_row[col]
        for r in range(n):
            if r != col:
                g = a[r][col]
                a[r] = [(d * v - g * w) // prev for v, w in zip(a[r], pivot_row)]
        prev = d
    # every diagonal entry now equals the last pivot, the determinant up to sign
    return [Fraction(a[i][n], prev) for i in range(n)]


def _dense(p: LpProblem) -> tuple[list, list[Fraction]]:
    """``p``'s rows as ``(coefficient list, bound)`` pairs and its objective
    as a coefficient list, one ``Fraction`` per variable."""

    def dense(coeffs) -> list[Fraction]:
        return [Fraction(coeffs.get(j, 0)) for j in range(len(p.variables))]

    return [(dense(coeffs), Fraction(bound)) for coeffs, bound in p.rows], dense(p.objective)


def enumerate_vertices_oracle(p: LpProblem, max_vars: int = 6, max_rows: int = 12) -> LpSolution:
    """Independent optimum: try every basic point (intersection of n active
    constraints drawn from the rows and the axes), keep the feasible ones,
    return the best.  Only for small instances; exact throughout."""
    n = len(p.variables)
    m = len(p.rows)
    if n > max_vars or m > max_rows:
        raise LpSizeError(f"oracle limited to {max_vars} variables / {max_rows} rows")
    if any(c < 0 for c in p.objective.values()):
        raise LpSizeError("oracle requires a nonnegative objective")

    rows, objective = _dense(p)
    planes = list(rows)
    for j in range(n):
        axis = [Fraction(0)] * n
        axis[j] = Fraction(1)
        planes.append((axis, Fraction(0)))

    def feasible(pt) -> bool:
        if any(v < 0 for v in pt):
            return False
        return all(
            sum(c * v for c, v in zip(coeffs, pt)) >= bound for coeffs, bound in rows
        )

    best_val = None
    best_pt = None
    for combo in itertools.combinations(range(len(planes)), n):
        mat = [planes[i][0] for i in combo]
        rhs = [planes[i][1] for i in combo]
        pt = _gauss_solve(mat, rhs)
        if pt is None or not feasible(pt):
            continue
        val = sum((c * v for c, v in zip(objective, pt)), Fraction(0))
        if best_val is None or val < best_val:
            best_val = val
            best_pt = pt
    if best_val is None:
        # the feasible region of {A y >= b, y >= 0} is pointed, so if it is
        # nonempty some vertex would have shown up
        return LpSolution(INFEASIBLE)
    return LpSolution(OPTIMAL, dict(zip(p.variables, best_pt)), best_val)


def pinned_lexicographic(
    constraints: Iterable,
    primary: Sequence[str],
    variables: Sequence[str],
) -> LpSolution:
    """Minimise the precondition variables first, then — with that optimum
    pinned — the remaining pool, so reported annotations are tight
    everywhere and alternate-optimum noise cannot leak into the output."""
    cons = list(constraints)
    p1 = problem_from_constraints(cons, list(primary), variables)
    s1 = solve(p1)
    if not s1.optimal:
        return s1
    primary_set = set(primary)
    secondary = [v for v in variables if v not in primary_set]
    if not secondary:
        return s1
    # pin: sum of primary <= optimum (the >= direction is already implied)
    p2 = problem_from_constraints(cons, secondary, variables)
    pin_coeffs = {j: -1 for j, v in enumerate(p2.variables) if v in primary_set}
    rows = p2.rows + ((pin_coeffs, -s1.objective),)
    s2 = solve(LpProblem(p2.variables, rows, p2.objective))
    assert s2.optimal  # s1's solution is feasible for p2
    return LpSolution(OPTIMAL, s2.valuation, s1.objective)


# ---------------------------------------------------------------------------
# the {column: Fraction} simplex (test oracle)


class _Tableau:
    """Sparse simplex tableau: each row is a ``{column: nonzero Fraction}``
    dict with its right-hand side kept apart, so a pivot touches only the
    rows with a nonzero in the entering column and only the nonzero entries
    of the pivot row.  Reduced-cost rows are dicts of the same form."""

    def __init__(self, rows: list[dict], rhs: list[Fraction], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.pivots = 0

    def cost_row(self, cost: Mapping[int, Fraction]) -> dict:
        """Reduced costs of ``cost`` on the current basis."""
        z = dict(cost)
        for row, b in zip(self.rows, self.basis):
            f = cost.get(b)
            if f:
                _eliminate(z, f, row)
        return z

    def pivot(self, r: int, c: int, z: Optional[dict] = None) -> None:
        row = self.rows[r]
        piv = row[c]
        if piv != 1:
            for k in row:
                row[k] /= piv
            self.rhs[r] /= piv
        b = self.rhs[r]
        for i, other in enumerate(self.rows):
            f = other.get(c)
            if f is not None and i != r:
                _eliminate(other, f, row)
                self.rhs[i] -= f * b
        if z is not None and c in z:
            _eliminate(z, z[c], row)
        self.basis[r] = c
        self.pivots += 1

    def bland(self, z: dict, barred: frozenset = frozenset()) -> str:
        """Simplex iterations until optimal or unbounded: the lowest-index
        column with a negative reduced cost enters (``barred`` columns never
        do); ratio ties leave by the lowest basic index."""
        rows, rhs, basis = self.rows, self.rhs, self.basis
        while True:
            enter = min((j for j, d in z.items() if d < 0 and j not in barred), default=None)
            if enter is None:
                return OPTIMAL
            leave = None
            best = None
            for i, row in enumerate(rows):
                a = row.get(enter)
                if a is not None and a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter, z)


def _eliminate(target: dict, f: Fraction, row: dict) -> None:
    """target -= f * row, dropping entries that cancel to zero."""
    for k, v in row.items():
        t = target.get(k)
        if t is None:
            target[k] = -f * v
        else:
            t -= f * v
            if t:
                target[k] = t
            else:
                del target[k]


def reference_solve(p: LpProblem, secondary: Optional[Mapping[int, Fraction]] = None) -> LpSolution:
    """Two-phase simplex.  Optimal solutions satisfy every row exactly;
    infeasible problems come back with Farkas multipliers y >= 0 such that
    y.A <= 0 componentwise yet y.b > 0.  These are the phase-1 duals: the
    final reduced costs of the slack and surplus columns, whose structural
    reduced costs give y.A <= 0 and whose y.b is the positive phase-1 optimum.

    With ``secondary`` (a sparse cost row like ``p.objective``) the optimum is
    lexicographic: once ``p.objective`` is optimal, every column with a
    positive reduced cost is barred from entry, which confines the search to
    the primary optimal face, and Bland's rule continues from the same basis
    on the secondary cost row.  The reported objective is the primary one."""
    n = len(p.variables)
    m = len(p.rows)
    # columns: structural | one slack per row | one artificial per row that needs it
    width = n + m
    rows: list[dict] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    n_art = 0
    for i, (coeffs, bound) in enumerate(p.rows):
        row = {j: Fraction(c) for j, c in coeffs.items()}
        if bound <= 0:
            # flip to  -coeffs . y <= -bound  with a basic slack
            row = {j: -v for j, v in row.items()}
            row[n + i] = Fraction(1)
            basis.append(n + i)
            rhs.append(Fraction(-bound))
        else:
            row[n + i] = Fraction(-1)  # surplus
            row[width + n_art] = Fraction(1)
            basis.append(width + n_art)
            rhs.append(Fraction(bound))
            n_art += 1
        rows.append(row)
    t = _Tableau(rows, rhs, basis)

    if n_art:
        z1 = t.cost_row({width + k: Fraction(1) for k in range(n_art)})
        status = t.bland(z1)
        assert status == OPTIMAL  # phase 1 is bounded below by 0
        if sum(rhs[i] for i, b in enumerate(basis) if b >= width) > 0:
            # row i's multiplier, flipped or not, is the reduced cost of column n + i
            cert = tuple(z1.get(n + i, Fraction(0)) for i in range(m))
            return LpSolution(INFEASIBLE, certificate=cert, pivots=t.pivots)
        # drive leftover artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(len(rows)):
            if basis[i] >= width:
                col = min((j for j in rows[i] if j < width), default=None)
                if col is None:
                    continue  # 0 = 0 row
                t.pivot(i, col)
            keep.append(i)
        t.rows = [{j: v for j, v in rows[i].items() if j < width} for i in keep]
        t.rhs = [rhs[i] for i in keep]
        t.basis = [basis[i] for i in keep]

    barred: frozenset = frozenset()
    for cost in (p.objective, secondary):
        if cost is None:
            continue
        z = t.cost_row({j: Fraction(c) for j, c in cost.items()})
        if t.bland(z, barred) == UNBOUNDED:
            return LpSolution(UNBOUNDED, pivots=t.pivots)
        # objective = optimum + sum(d_j * x_j) on every feasible point, so the
        # optimal face is x_j = 0 wherever d_j > 0; later pivots enter only
        # columns with d_j = 0, which leave these reduced costs unchanged
        barred = barred | {j for j, d in z.items() if d > 0}
    valuation = {v: Fraction(0) for v in p.variables}
    for b, x in zip(t.basis, t.rhs):
        if b < n:
            valuation[p.variables[b]] = x
    value = sum((c * valuation[p.variables[j]] for j, c in p.objective.items()), Fraction(0))
    return LpSolution(OPTIMAL, valuation, value, pivots=t.pivots)


def verify_certificate(p: LpProblem, cert: Sequence[Fraction]) -> bool:
    """``cert >= 0`` with ``cert . A <= 0`` componentwise and ``cert . b > 0``."""
    rows, _ = _dense(p)
    if len(cert) != len(rows) or any(c < 0 for c in cert):
        return False
    for j in range(len(p.variables)):
        if sum(cert[i] * rows[i][0][j] for i in range(len(rows))) > 0:
            return False
    return sum(cert[i] * rows[i][1] for i in range(len(rows))) > 0


# ---------------------------------------------------------------------------
# pure reasoning (test oracle)


class ReferencePureContext:
    """Congruence over equality atoms; decides = and != queries.

    Complete for this fragment: no function symbols, so a query t1 = t2
    holds iff forced by the equalities, and t1 != t2 holds iff asserted on
    representatives or the classes contain distinct literals (two unequal
    integers, or an integer vs null).
    """

    def __init__(self, atoms: Iterable[PureAtom] = ()):
        self._parent: dict = {}
        self._diseq: list[tuple] = []
        self._contradiction = False
        for a in atoms:
            self.add(a)

    def _find(self, t):
        self._parent.setdefault(t, t)
        root = t
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[t] != root:
            self._parent[t], t = root, self._parent[t]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # keep literals as representatives so class literals are easy to read
        if is_literal(ra):
            ra, rb = rb, ra
        if is_literal(ra) and is_literal(rb) and ra != rb:
            self._contradiction = True
        self._parent[ra] = rb

    def add(self, atom: PureAtom) -> None:
        if atom.op == "=":
            self._union(atom.lhs, atom.rhs)
        else:
            self._diseq.append((atom.lhs, atom.rhs))

    def contradictory(self) -> bool:
        if self._contradiction:
            return True
        for a, b in self._diseq:
            if self._find(a) == self._find(b):
                return True
        return False

    def equal(self, t1, t2) -> bool:
        return self._find(t1) == self._find(t2)

    def unequal(self, t1, t2) -> bool:
        r1, r2 = self._find(t1), self._find(t2)
        if r1 == r2:
            return False
        if is_literal(r1) and is_literal(r2):
            return True
        for a, b in self._diseq:
            ra, rb = self._find(a), self._find(b)
            if {ra, rb} == {r1, r2}:
                return True
        return False

    def entails(self, atom: PureAtom) -> bool:
        if self.contradictory():
            return True
        if atom.op == "=":
            return self.equal(atom.lhs, atom.rhs)
        return self.unequal(atom.lhs, atom.rhs)


# ---------------------------------------------------------------------------
# reference predicate rules (test oracle)
#
# `ReferenceProver` is the prover with one set of unfolding and matching rules
# per inductive predicate: `lseg` and `tree` each get their own unfolding
# ladder, node peel and matcher, written out in full, and its cell closure
# rescans every pair of cells on every saturation step.  The shipped
# `amort.prover.Prover` derives all of them from one shape per predicate and
# closes only the cells a step added, so the two must agree on every
# saturation branch, proof result and tick.


def _resolve_heap_atom(a, theta):
    if isinstance(a, PointsTo):
        return PointsTo(resolve(a.obj, theta), a.field, resolve(a.value, theta))
    if isinstance(a, ListSeg):
        return ListSeg(a.ann, resolve(a.start, theta), resolve(a.end, theta))
    if isinstance(a, TreeSeg):
        return TreeSeg(a.ann, resolve(a.root, theta))
    raise TypeError(a)


class ReferenceProver(Prover):
    def _pure_closure(self, ctx: ProofContext) -> ProofContext:
        """Every cell fact of the whole heap, each pair rescanned on every
        call, whatever ``ctx.closed`` says."""
        pc = ctx.pc
        added = []
        cells = [a for a in ctx.heap if isinstance(a, PointsTo)]
        facts = [PureAtom(cell.obj, "!=", NULL) for cell in cells]
        facts += [
            PureAtom(a.obj, "!=", b.obj)
            for a, b in itertools.combinations(cells, 2)
            if a.field == b.field
        ]
        for atom in facts:
            if not pc.entails(atom):
                if not added:
                    pc = pc.copy()
                added.append(atom)
                pc.add(atom)
        if not added:
            return ctx
        return ctx.updated(pure=ctx.pure + tuple(added), pc=pc)

    def _unfold_step(self, ctx: ProofContext) -> Optional[list[ProofContext]]:
        """Apply the first decided unfolding, if any.  Returns the branches
        to requeue, or None when the context is fully saturated."""
        pc = ctx.pc
        for i, atom in enumerate(ctx.heap):
            if isinstance(atom, ListSeg):
                rest = ctx.without_atom(i)
                if pc.equal(atom.start, atom.end):
                    return [ctx.updated(heap=rest)]
                if pc.equal(atom.start, NULL):
                    eq = PureAtom(atom.end, "=", NULL)
                    return [ctx.updated(pure=ctx.pure + (eq,), heap=rest)]
                if pc.unequal(atom.start, atom.end):
                    # a segment with distinct endpoints must be non-empty,
                    # whether or not the head's null-ness is known yet
                    return [self._unfold_lseg_cons(ctx, i)]
                if pc.unequal(atom.start, NULL):
                    cons = self._unfold_lseg_cons(ctx, i)
                    empty = ctx.updated(
                        pure=ctx.pure + (PureAtom(atom.start, "=", atom.end),),
                        heap=rest,
                    )
                    return [empty, cons]
            elif isinstance(atom, TreeSeg):
                rest = ctx.without_atom(i)
                if pc.equal(atom.root, NULL):
                    return [ctx.updated(heap=rest)]
                if pc.unequal(atom.root, NULL):
                    return [self._unfold_tree_cons(ctx, i)]
        return None

    def _unfold_lseg_cons(self, ctx: ProofContext, i: int) -> ProofContext:
        seg = ctx.heap[i]
        nxt = Var(ctx.names.next("n"))
        dat = Var(ctx.names.next("d"))
        cells = (
            PointsTo(seg.start, LSEG_NEXT, nxt),
            PointsTo(seg.start, LSEG_DATA, dat),
            ListSeg(seg.ann, nxt, seg.end),
        )
        return ctx.updated(
            heap=ctx.without_atom(i) + cells,
            resource=ctx.resource + seg.ann,
        )

    def _unfold_tree_cons(self, ctx: ProofContext, i: int) -> ProofContext:
        seg = ctx.heap[i]
        left = Var(ctx.names.next("l"))
        right = Var(ctx.names.next("r"))
        cells = (
            PointsTo(seg.root, TREE_LEFT, left),
            PointsTo(seg.root, TREE_RIGHT, right),
            TreeSeg(seg.ann, left),
            TreeSeg(seg.ann, right),
        )
        return ctx.updated(
            heap=ctx.without_atom(i) + cells,
            resource=ctx.resource + seg.ann,
        )

    def _match_atoms(
        self, ctx: ProofContext, goal_atoms: tuple, theta: Subst, cons: ConstraintSet, depth: int
    ) -> Iterator[tuple[ProofContext, Subst, ConstraintSet]]:
        if not goal_atoms:
            yield ctx, theta, cons
            return
        self._tick()
        head = _resolve_heap_atom(goal_atoms[0], theta)
        tail = goal_atoms[1:]
        matched = False
        if isinstance(head, PointsTo):
            for out in self._match_pt(ctx, head, tail, theta, cons, depth):
                matched = True
                yield out
        elif isinstance(head, ListSeg):
            for out in self._match_lseg(ctx, head, tail, theta, cons, depth):
                matched = True
                yield out
        elif isinstance(head, TreeSeg):
            for out in self._match_tree(ctx, head, tail, theta, cons, depth):
                matched = True
                yield out
        else:
            raise TypeError(head)
        if not matched:
            self._note_fail(depth, f"no match for {head} in heap [{', '.join(str(a) for a in ctx.heap)}]")

    def _match_lseg(self, ctx, goal: ListSeg, tail, theta, cons, depth):
        # endpoints equal: the empty segment costs nothing
        start = resolve(goal.start, theta)
        end = resolve(goal.end, theta)
        if isinstance(start, EVar) or isinstance(end, EVar):
            t2 = (
                self._bind(start, end, theta)
                if isinstance(start, EVar)
                else self._bind(end, start, theta)
            )
            if t2 is not None:
                yield from self._match_atoms(ctx, tail, t2, cons, depth)
        elif ctx.pc.equal(start, end):
            yield from self._match_atoms(ctx, tail, theta, cons, depth)

        # peel one exposed cell, paying the per-element annotation
        for i, cell in enumerate(ctx.heap):
            if not isinstance(cell, PointsTo) or cell.field != LSEG_NEXT:
                continue
            t1 = self._unify(ctx, start, cell.obj, theta)
            if t1 is None:
                continue
            for j, dcell in enumerate(ctx.heap):
                if j == i or not isinstance(dcell, PointsTo) or dcell.field != LSEG_DATA:
                    continue
                if not ctx.pc.equal(dcell.obj, cell.obj):
                    continue
                rem, rcons = match_resource(ctx.resource, goal.ann)
                smaller = ctx.updated(
                    heap=tuple(a for k, a in enumerate(ctx.heap) if k not in (i, j)),
                    resource=rem,
                )
                rest = (ListSeg(goal.ann, cell.value, goal.end),) + tail
                yield from self._match_atoms(smaller, rest, t1, merge_constraints(cons, rcons), depth)
                break  # data cells at one address are interchangeable

        # absorb a whole context segment starting at the same head
        for i, seg in enumerate(ctx.heap):
            if not isinstance(seg, ListSeg):
                continue
            t1 = self._unify(ctx, start, seg.start, theta)
            if t1 is None:
                continue
            if seg.ann == goal.ann:
                extra: ConstraintSet = ()
            else:
                # differing annotations: per-element weakening is sound
                # because segment resources are lower bounds
                extra = (Constraint(seg.ann, goal.ann),)
            rest = (ListSeg(goal.ann, seg.end, goal.end),) + tail
            yield from self._match_atoms(
                ctx.updated(heap=ctx.without_atom(i)), rest, t1, merge_constraints(cons, extra), depth
            )

    def _match_tree(self, ctx, goal: TreeSeg, tail, theta, cons, depth):
        root = resolve(goal.root, theta)
        # the empty tree: root is null
        if isinstance(root, EVar):
            t2 = self._bind(root, NULL, theta)
            if t2 is not None:
                yield from self._match_atoms(ctx, tail, t2, cons, depth)
        elif ctx.pc.equal(root, NULL):
            yield from self._match_atoms(ctx, tail, theta, cons, depth)

        # peel the root cell pair, recursing into both subtrees
        for i, cell in enumerate(ctx.heap):
            if not isinstance(cell, PointsTo) or cell.field != TREE_LEFT:
                continue
            t1 = self._unify(ctx, root, cell.obj, theta)
            if t1 is None:
                continue
            for j, rcell in enumerate(ctx.heap):
                if j == i or not isinstance(rcell, PointsTo) or rcell.field != TREE_RIGHT:
                    continue
                if not ctx.pc.equal(rcell.obj, cell.obj):
                    continue
                rem, rcons = match_resource(ctx.resource, goal.ann)
                smaller = ctx.updated(
                    heap=tuple(a for k, a in enumerate(ctx.heap) if k not in (i, j)),
                    resource=rem,
                )
                rest = (TreeSeg(goal.ann, cell.value), TreeSeg(goal.ann, rcell.value)) + tail
                yield from self._match_atoms(smaller, rest, t1, merge_constraints(cons, rcons), depth)
                break

        # absorb a whole context tree at the same root
        for i, seg in enumerate(ctx.heap):
            if not isinstance(seg, TreeSeg):
                continue
            t1 = self._unify(ctx, root, seg.root, theta)
            if t1 is None:
                continue
            extra = () if seg.ann == goal.ann else (Constraint(seg.ann, goal.ann),)
            yield from self._match_atoms(
                ctx.updated(heap=ctx.without_atom(i)), tail, t1, merge_constraints(cons, extra), depth
            )


# ---------------------------------------------------------------------------
# goal rewriting (test oracle)
#
# `RewritingProver` is the prover with a goal dispatch that rewrites goals
# instead of carrying an environment: a quantifier substitutes its fresh
# variable, EVar or candidate into the rest of the goal with `subst_goal`,
# which costs time quadratic in the path's binders, and a `*` match
# resolves its bindings through the rest with `_resolve_goal`, so the
# environment stays empty.  The shipped prover must agree with it on every
# result, constraint, tick and branch, and on every message up to the `~k`
# suffixes with which `subst_goal` renames a binder or a clause existential
# that a substituted term would capture: the shipped prover, applying its
# environment only at a clause's own free variables, renames no more than
# capture requires.


def goal_free_vars(g: Goal) -> set[str]:
    if isinstance(g, Leaf):
        return assertion_free_vars(g.parts)
    if isinstance(g, (Star, Wand)):
        return assertion_free_vars(g.parts) | goal_free_vars(g.rest)
    if isinstance(g, And):
        return goal_free_vars(g.left) | goal_free_vars(g.right)
    if isinstance(g, Implies):
        return {t.name for t in atom_terms(g.cond) if isinstance(t, Var)} | goal_free_vars(g.rest)
    if isinstance(g, (Forall, Exists)):
        return goal_free_vars(g.rest) - {g.var}
    raise TypeError(g)


def subst_goal(g: Goal, sub: Mapping[str, Term]) -> Goal:
    """Capture-avoiding substitution into a goal, renaming a quantifier
    whose variable a substituted term mentions."""
    if not sub:
        return g
    if isinstance(g, Leaf):
        return Leaf(subst_assertion(g.parts, sub))
    if isinstance(g, Star):
        return Star(subst_assertion(g.parts, sub), subst_goal(g.rest, sub))
    if isinstance(g, Wand):
        return Wand(subst_assertion(g.parts, sub), subst_goal(g.rest, sub))
    if isinstance(g, And):
        return And(subst_goal(g.left, sub), subst_goal(g.right, sub))
    if isinstance(g, Implies):
        return Implies(map_atom(g.cond, subst_term, sub), subst_goal(g.rest, sub))
    if isinstance(g, (Forall, Exists)):
        live = {k: v for k, v in sub.items() if k != g.var}
        if not live:
            return g
        incoming = set().union(*(term_vars(v) for v in live.values()))
        var = g.var
        rest = g.rest
        if var in incoming:
            fresh = _fresh_name(var, incoming | goal_free_vars(rest) | set(live))
            rest = subst_goal(rest, {var: Var(fresh)})
            var = fresh
        rest = subst_goal(rest, live)
        return Forall(var, rest) if isinstance(g, Forall) else Exists(var, rest)
    raise TypeError(g)


def _resolve_clause(c: Clause, theta) -> Clause:
    return Clause(
        c.exists,
        tuple(map_atom(a, resolve, theta) for a in c.pure),
        tuple(map_atom(a, resolve, theta) for a in c.heap),
        c.resource,
    )


def _resolve_goal(g: Goal, theta) -> Goal:
    if not theta:
        return g
    if isinstance(g, Leaf):
        return Leaf(tuple(_resolve_clause(c, theta) for c in g.parts))
    if isinstance(g, (Star, Wand)):
        return type(g)(tuple(_resolve_clause(c, theta) for c in g.parts), _resolve_goal(g.rest, theta))
    if isinstance(g, And):
        return And(_resolve_goal(g.left, theta), _resolve_goal(g.right, theta))
    if isinstance(g, Implies):
        return Implies(map_atom(g.cond, resolve, theta), _resolve_goal(g.rest, theta))
    if isinstance(g, (Forall, Exists)):
        return type(g)(g.var, _resolve_goal(g.rest, theta))
    raise TypeError(g)


class RewritingProver(Prover):
    def _go(self, ctx, goal, env, depth):
        if isinstance(goal, Forall):
            self._tick()
            v = self._fresh_rigid(ctx, goal.var)
            return self._go(ctx, subst_goal(goal.rest, {goal.var: v}), env, depth + 1)
        if isinstance(goal, Exists):
            self._tick()
            e = self._fresh_evar(ctx, goal.var)
            res = self._go(ctx, subst_goal(goal.rest, {goal.var: e}), env, depth + 1)
            if res is not None:
                return res
            for cand in self._candidates(ctx):
                res = self._go(ctx, subst_goal(goal.rest, {goal.var: cand}), env, depth + 1)
                if res is not None:
                    return res
            return None
        # the other connectives read the environment, which stays empty
        return super()._go(ctx, goal, env, depth)

    def _go_star(self, ctx, goal: Star, env, depth):
        for clause in goal.parts:
            for ctx2, theta, cons in self._match_clause(ctx, clause, depth):
                sub = self._go(ctx2, _resolve_goal(goal.rest, theta), env, depth + 1)
                if sub is not None:
                    return merge_constraints(cons, sub)
        return None


# ---------------------------------------------------------------------------
# bounded model checking (test oracle)
#
# Concrete values mirror the VM: Python int, vm.Addr, or None for null.


def _denote(term: Term, env: Mapping[str, object]):
    if isinstance(term, Var):
        if term.name not in env:
            raise KeyError(f"unbound variable {term.name} in model")
        return env[term.name]
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, NullTerm):
        return None
    raise TypeError(term)


def _atom_layouts(atom, env, heap, valuation) -> Iterator[tuple[frozenset, Fraction]]:
    """Yield (cells, resource need) ways the atom can hold in `heap`."""
    if isinstance(atom, PointsTo):
        a = _denote(atom.obj, env)
        v = _denote(atom.value, env)
        cell = (a, atom.field)
        if a is not None and not isinstance(a, int) and cell in heap and heap[cell] == v:
            yield frozenset([cell]), Fraction(0)
        return
    if isinstance(atom, ListSeg):
        per = atom.ann.eval(valuation)
        if per < 0:
            return
        start = _denote(atom.start, env)
        end = _denote(atom.end, env)

        def walk(cur, used):
            if cur == end:
                yield used, Fraction(0)
            if cur is None or isinstance(cur, int):
                return
            nc, dc = (cur, LSEG_NEXT), (cur, LSEG_DATA)
            if nc in heap and dc in heap and nc not in used:
                nxt = heap[nc]
                for cells, need in walk(nxt, used | {nc, dc}):
                    yield cells, need + per

        yield from walk(start, frozenset())
        return
    if isinstance(atom, TreeSeg):
        per = atom.ann.eval(valuation)
        if per < 0:
            return
        root = _denote(atom.root, env)

        def grow(node, used):
            if node is None:
                yield used, Fraction(0)
                return
            if isinstance(node, int):
                return
            lc, rc = (node, TREE_LEFT), (node, TREE_RIGHT)
            if lc in heap and rc in heap and lc not in used:
                for cells_l, need_l in grow(heap[lc], used | {lc, rc}):
                    for cells_r, need_r in grow(heap[rc], cells_l):
                        yield cells_r, need_l + need_r + per

        yield from grow(root, frozenset())
        return
    raise TypeError(atom)


def _clause_layouts(clause: Clause, env, heap, valuation) -> Iterator[tuple[frozenset, Fraction]]:
    """Yield (cells, need) for the spatial part of a clause, existentials solved."""
    universe = _model_universe(heap, clause)

    def assign(binders, e):
        if not binders:
            pure_ok = True
            for a in clause.pure:
                lv, rv = _denote(a.lhs, e), _denote(a.rhs, e)
                holds = lv == rv if a.op == "=" else lv != rv
                if not holds:
                    pure_ok = False
                    break
            if not pure_ok:
                return

            def match(atoms, used, need):
                if not atoms:
                    yield used, need
                    return
                for cells, n in _atom_layouts(atoms[0], e, heap, valuation):
                    if cells & used:
                        continue
                    yield from match(atoms[1:], used | cells, need + n)

            yield from match(list(clause.heap), frozenset(), Fraction(0))
            return
        for v in universe:
            yield from assign(binders[1:], {**e, binders[0]: v})

    yield from assign(list(clause.exists), dict(env))


def _model_universe(heap, clause: Clause | None = None) -> list:
    addrs = sorted({a for (a, _) in heap}, key=lambda x: getattr(x, "index", 0))
    ints = sorted({v for v in heap.values() if isinstance(v, int)})
    extra: list = []
    if clause is not None:
        for a in clause.pure:
            for t in (a.lhs, a.rhs):
                if isinstance(t, IntLit) and t.value not in ints:
                    extra.append(t.value)
    return [None] + addrs + ints + extra


def model_check(
    assertion: Sequence[Clause],
    env: Mapping[str, object],
    heap: Mapping,
    resource: Fraction,
    valuation: Mapping[str, Fraction] | None = None,
) -> bool:
    """Does (env, heap, resource) satisfy the assertion?  Exact heap coverage.

    Intended for small models (a handful of cells); existentials range over
    the addresses and integers present in the model.
    """
    valuation = valuation or {}
    heap = dict(heap)
    all_cells = frozenset(heap)
    for clause in assertion:
        base = clause.resource.eval(valuation)
        if base < 0:
            continue
        for cells, need in _clause_layouts(clause, env, heap, valuation):
            if cells == all_cells and need + base <= resource:
                return True
    return False


# goal-level checking, used by the VC soundness oracle ----------------------


def _clause_extensions(clause, env, heap, valuation, pool, max_seg=2):
    """Enumerate concrete disjoint extensions (cells dict, need) satisfying a clause.

    Used for the -* connective: builds small fresh models of the clause.
    Segment/tree sizes are bounded by max_seg; data fields take value 0.
    """
    universe = _model_universe(heap) + pool

    def assign(binders, e):
        if binders:
            for v in universe:
                yield from assign(binders[1:], {**e, binders[0]: v})
            return
        ok = True
        for a in clause.pure:
            try:
                lv, rv = _denote(a.lhs, e), _denote(a.rhs, e)
            except KeyError:
                ok = False
                break
            if (lv == rv) != (a.op == "="):
                ok = False
                break
        if not ok:
            return

        def build(atoms, cells, need, fresh_i):
            if not atoms:
                yield dict(cells), need
                return
            atom, rest = atoms[0], atoms[1:]
            if isinstance(atom, PointsTo):
                try:
                    a, v = _denote(atom.obj, e), _denote(atom.value, e)
                except KeyError:
                    return
                if a is None or isinstance(a, int):
                    return
                cell = (a, atom.field)
                if cell in heap or cell in cells:
                    return
                yield from build(rest, {**cells, cell: v}, need, fresh_i)
            elif isinstance(atom, ListSeg):
                per = atom.ann.eval(valuation)
                try:
                    start, end = _denote(atom.start, e), _denote(atom.end, e)
                except KeyError:
                    return
                if start == end:
                    yield from build(rest, cells, need, fresh_i)
                # chains of fresh nodes from start
                for length in range(1, max_seg + 1):
                    nodes = pool[fresh_i : fresh_i + length]
                    if len(nodes) < length or start is None or isinstance(start, int):
                        break
                    chain = [start] + nodes[1:] if length > 1 else [start]
                    if start in pool[:fresh_i] or start in nodes[1:]:
                        break
                    new = {}
                    okc = True
                    for i, nd in enumerate(chain):
                        nxt = chain[i + 1] if i + 1 < len(chain) else end
                        for cell, val in (((nd, LSEG_NEXT), nxt), ((nd, LSEG_DATA), 0)):
                            if cell in heap or cell in cells or cell in new:
                                okc = False
                            new[cell] = val
                    if okc:
                        yield from build(rest, {**cells, **new}, need + per * length, fresh_i + length)
            elif isinstance(atom, TreeSeg):
                per = atom.ann.eval(valuation)
                try:
                    root = _denote(atom.root, e)
                except KeyError:
                    return
                if root is None:
                    yield from build(rest, cells, need, fresh_i)
                    return
                if isinstance(root, int):
                    return
                # leaf-only tree of one node, or one node with one fresh child
                for shape in ([(root, None, None)],):
                    new = {}
                    okc = True
                    for nd, l, r in shape:
                        for cell, val in (((nd, TREE_LEFT), l), ((nd, TREE_RIGHT), r)):
                            if cell in heap or cell in cells or cell in new:
                                okc = False
                            new[cell] = val
                    if okc:
                        yield from build(rest, {**cells, **new}, need + per, fresh_i)
            else:
                raise TypeError(atom)

        yield from build(list(clause.heap), {}, Fraction(0), 0)

    yield from assign(list(clause.exists), dict(env))


def goal_holds(
    goal: Goal,
    env: Mapping[str, object],
    heap: Mapping,
    resource: Fraction,
    valuation: Mapping[str, Fraction] | None = None,
    pool: Sequence | None = None,
) -> bool:
    """Bounded truth of a goal in a concrete model (test oracle).

    Quantifiers range over the model universe plus a small pool of fresh
    addresses; -* extensions are drawn from the pool with segment sizes <= 2.
    """
    valuation = valuation or {}
    pool = list(pool or [])
    heap = dict(heap)

    if isinstance(goal, Leaf):
        return model_check(goal.parts, env, heap, resource, valuation)
    if isinstance(goal, Star):
        all_cells = frozenset(heap)
        for clause in goal.parts:
            base = clause.resource.eval(valuation)
            if base < 0:
                continue
            for cells, need in _clause_layouts(clause, env, heap, valuation):
                take = need + base
                if take > resource:
                    continue
                rest_heap = {c: v for c, v in heap.items() if c not in cells}
                if goal_holds(goal.rest, env, rest_heap, resource - take, valuation, pool):
                    return True
        return False
    if isinstance(goal, Wand):
        for clause in goal.parts:
            base = clause.resource.eval(valuation)
            for cells, need in _clause_extensions(clause, env, heap, valuation, pool):
                bigger = dict(heap)
                bigger.update(cells)
                if not goal_holds(goal.rest, env, bigger, resource + need + base, valuation, pool):
                    return False
        return True
    if isinstance(goal, And):
        return goal_holds(goal.left, env, heap, resource, valuation, pool) and goal_holds(
            goal.right, env, heap, resource, valuation, pool
        )
    if isinstance(goal, Implies):
        try:
            lv, rv = _denote(goal.cond.lhs, env), _denote(goal.cond.rhs, env)
        except KeyError:
            return True
        holds = lv == rv if goal.cond.op == "=" else lv != rv
        if not holds:
            return True
        return goal_holds(goal.rest, env, heap, resource, valuation, pool)
    if isinstance(goal, Forall):
        for v in _model_universe(heap) + pool[:1]:
            if not goal_holds(goal.rest, {**env, goal.var: v}, heap, resource, valuation, pool):
                return False
        return True
    if isinstance(goal, Exists):
        for v in _model_universe(heap) + pool[:1]:
            if goal_holds(goal.rest, {**env, goal.var: v}, heap, resource, valuation, pool):
                return True
        return False
    raise TypeError(goal)


# ---------------------------------------------------------------------------
# reference interpreter: the pure rules `amort.vm` had before its rules were
# rewritten as in-place updates, kept as they were


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


def _ref_step_frame(frame: Frame, ins: Instr) -> Frame:
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


def _ref_step_mut(
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


def _ref_step(state: MachineState, program: Program, policy: AcquisitionPolicy = ALWAYS_DENY):
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
            new_frame, new_heap, consumed, acquired, request, next_addr = _ref_step_mut(
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
        new_frame = _ref_step_frame(frame, ins)
        return replace(state, frames=(new_frame,) + state.frames[1:])
    except _StuckSignal as s:
        return Stuck(s.reason, frame.proc, frame.pc)


def _ref_initial_state(
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


def reference_run(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy = ALWAYS_DENY,
    fuel: int = 100_000,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
) -> tuple[RunResult, list[MachineState]]:
    """Drive `_ref_step` until a terminal outcome or `fuel` steps elapse.

    Returns the result and the state before every step, plus the final
    state when the fuel ran out."""
    state = _ref_initial_state(program, args, budget, heap, next_addr)
    states = [state]
    for steps in range(fuel):
        nxt = _ref_step(state, program, policy)
        if not isinstance(nxt, MachineState):
            if isinstance(nxt, Halt):
                consumed, total = nxt.consumed, nxt.total
            elif isinstance(nxt, BudgetViolation):
                consumed, total = nxt.consumed, nxt.total
            else:
                consumed, total = state.consumed, state.total_allowed
            return RunResult(nxt, steps + 1, consumed, total), states
        state = nxt
        states.append(state)
    return RunResult(FuelExhausted(fuel), fuel, state.consumed, state.total_allowed), states


# ---------------------------------------------------------------------------
# the shipped machine, one step at a time


def snapshot(m: vm._Machine) -> MachineState:
    """A frozen copy of a live machine: active frame first, stacks top first."""
    frames = tuple(
        Frame(proc, tuple(reversed(stack)), dict(locals_), pc)
        for proc, _, stack, locals_, pc in reversed(m.frames)
    )
    return MachineState(*m.amounts(), dict(m.heap), frames, m.next_addr, m.acquire_count)


def traced_run(
    program: Program,
    args: Sequence[Value],
    budget: ResourceValue,
    policy: AcquisitionPolicy = ALWAYS_DENY,
    fuel: int = 100_000,
    heap: Optional[Heap] = None,
    next_addr: int = 0,
) -> tuple[RunResult, list[MachineState]]:
    """`vm.run` through `vm._drive(m, 1)`, once per step, with the same
    states as `reference_run`."""
    m = vm._start(program, args, budget, policy, heap, next_addr)
    states = [snapshot(m)]
    for steps in range(1, fuel + 1):
        outcome, _ = vm._drive(m, 1)
        if outcome is not None:
            return RunResult(outcome, steps, *m.amounts()), states
        states.append(snapshot(m))
    return RunResult(FuelExhausted(fuel), fuel, *m.amounts()), states
