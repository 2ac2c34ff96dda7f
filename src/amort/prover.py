"""Proof search for entailments between resource-annotated symbolic heaps.

The prover discharges the verification conditions produced by
:mod:`amort.vcgen`.  A proof context holds pure facts, a symbolic heap and a
resource pool; the search is goal-directed and collects linear inequalities
over annotation metavariables as it pays for resource-carrying predicates.
The inequalities — not the proof tree — are the interesting output: feeding
them to the LP solver yields concrete per-element annotations.

Search structure:

* ``saturate`` moves information between the pure and spatial parts of a
  context: cells imply non-nullness and pairwise distinctness of their
  addresses, and inductive predicates (list segments, trees) whose head is
  decided by the pure facts get unfolded (possibly splitting the context
  into case branches).  Branches are made lazily, one at a time, and the
  goal is proved in each as it arrives, so a proof stops at its first
  failing branch without building the others.  Only the cells a step
  added are closed: the facts of the rest are already in the context.
* matching covers each heap atom demanded by a goal clause using a cell or
  predicate instance from the context, paying per-node resource along the
  way.  Both steps read each predicate's shape (its head, stop, node fields
  and children) from :mod:`amort.assertions`, so one set of rules serves
  every predicate.
* goal dispatch walks the goal connectives, backtracking over disjunct and
  instantiation choices.  It never rewrites a goal: an environment maps
  each variable a quantifier bound to its value, and each rule applies it
  only to the clause or guard it is about to match or assume.  A
  substitution thus costs the same however many binders lie above the
  clause, and a goal that two paths share reaches the search as one object.

The search always terminates: besides the structural arguments, a global
work budget turns any runaway exploration into an ordinary failure with
diagnostics.  The depth (one per goal connective, so at most the goal's
height) only ranks failures for the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .assertions import (
    NULL,
    And,
    Clause,
    Exists,
    Forall,
    Goal,
    Implies,
    Leaf,
    PointsTo,
    PureAtom,
    PureContext,
    Star,
    Term,
    Var,
    Wand,
    atom_terms,
    clause_free_vars,
    map_atom,
    subst_clause,
    subst_term,
)
from .resources import ResourceExpr

ZERO_EXPR = ResourceExpr()


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class Constraint:
    """A linear inequality ``lhs >= rhs`` over annotation metavariables."""

    lhs: ResourceExpr
    rhs: ResourceExpr

    def diff(self) -> ResourceExpr:
        """The expression ``lhs - rhs``, which the constraint requires >= 0."""
        return self.lhs - self.rhs

    def __str__(self) -> str:
        return f"{self.lhs} >= {self.rhs}"

    def __hash__(self) -> int:
        # computed once, like `ResourceExpr`'s
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.lhs, self.rhs))
            object.__setattr__(self, "_hash", h)
        return h


ConstraintSet = tuple  # tuple[Constraint, ...], deduplicated, insertion order


def merge_constraints(*sets: ConstraintSet) -> ConstraintSet:
    """The union of constraint sets, each constraint where it first occurs."""
    nonempty = [s for s in sets if s]
    if len(nonempty) == 1:
        return tuple(nonempty[0])
    return tuple(dict.fromkeys(c for s in nonempty for c in s))


# ---------------------------------------------------------------------------
# unification variables

# The assertion language only has rigid terms.  During matching the prover
# introduces unification variables for a clause's existentials; they are a
# separate term kind so they can never be confused with program variables.


@dataclass(frozen=True)
class EVar:
    name: str
    birth: int = 0  # rigid variables born later than this may not be bound

    def __str__(self) -> str:
        return f"?{self.name}"


Subst = dict  # dict[EVar, Term]
Env = dict  # dict[str, Term]: the values of the goal variables bound above


def resolve(t: Term, theta: Mapping) -> Term:
    while isinstance(t, EVar) and t in theta:
        t = theta[t]
    return t


def _live(c: Clause, env: Env) -> Env:
    """``env`` at the free variables of ``c``: all that substituting it into
    ``c`` reads, so the cost does not grow with ``env``."""
    if not env:
        return env
    return {x: env[x] for x in clause_free_vars(c) if x in env}


# ---------------------------------------------------------------------------
# proof contexts


class FreshNames:
    """Shared counter so every context derived from one root names apart."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def next(self, base: str) -> str:
        self.n += 1
        return f"{base}!{self.n}"


class ProofContext:
    """Pure facts, symbolic heap and resource pool threaded by the search.

    Instances are treated as immutable; ``updated`` derives a new context
    sharing the fresh-name counter.  The pure part is kept as the atom tuple
    together with its congruence closure ``pc``.  A context made directly
    builds its closure on first query.  A derived context shares its
    parent's closure when the atoms are unchanged, and extends a copy of it
    by the appended atoms when they grow; a closure is never grown once
    another context may hold it.

    ``closed`` counts the leading heap atoms whose cell facts (non-null
    addresses, distinct addresses per field) ``pure`` already entails.  It
    is 0, nothing closed, unless the deriving step says otherwise: it
    survives changes to the pure facts and the resource and appended heap
    atoms, and drops by one per removed atom below it.
    """

    __slots__ = ("pure", "heap", "resource", "names", "_pc", "closed")

    def __init__(
        self,
        pure: Sequence[PureAtom] = (),
        heap: Sequence = (),
        resource: ResourceExpr = ZERO_EXPR,
        names: Optional[FreshNames] = None,
        pc: Optional[PureContext] = None,
        closed: int = 0,
    ):
        self.pure = tuple(pure)
        self.heap = tuple(heap)
        self.resource = resource
        self.names = names if names is not None else FreshNames()
        self._pc = pc  # the closure of exactly ``pure``, or None until queried
        self.closed = closed

    @property
    def pc(self) -> PureContext:
        if self._pc is None:
            self._pc = PureContext(self.pure)
        return self._pc

    def updated(self, pure=None, heap=None, resource=None, pc=None, closed=None) -> "ProofContext":
        """Derive a context; ``pc``, when given, is the closure of ``pure``.
        ``closed`` is kept when the heap is, and is 0 for a new heap unless
        given."""
        if closed is None:
            closed = self.closed if heap is None else 0
        if pure is None:
            pure, pc = self.pure, self._pc
        elif pc is None and self._pc is not None:
            pure = tuple(pure)
            n = len(self.pure)
            if pure[:n] == self.pure:
                pc = self._pc.copy() if len(pure) > n else self._pc
                for a in pure[n:]:
                    pc.add(a)
        return ProofContext(
            pure,
            self.heap if heap is None else heap,
            self.resource if resource is None else resource,
            self.names,
            pc,
            closed,
        )

    def without_atom(self, index: int) -> tuple:
        return self.heap[:index] + self.heap[index + 1 :]

    def closed_without(self, *indices: int) -> int:
        """``closed`` once the heap atoms at ``indices`` are removed."""
        return self.closed - sum(i < self.closed for i in indices)

    def __str__(self) -> str:
        pure = ", ".join(str(a) for a in self.pure)
        heap = ", ".join(str(a) for a in self.heap) or "emp"
        return f"{pure} | {heap} | {self.resource}"


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ProofFailure:
    message: str
    depth: int
    vc_id: Optional[str] = None

    def __str__(self) -> str:
        where = f"{self.vc_id}: " if self.vc_id else ""
        return f"{where}{self.message}"


@dataclass(frozen=True)
class ProofResult:
    ok: bool
    constraints: ConstraintSet = ()
    failure: Optional[ProofFailure] = None
    ticks: int = 0  # units of the work budget used, a machine-independent cost
    branches: int = 0  # case branches saturation yielded to the goal search


class _SearchBound(Exception):
    """Raised internally when the work budget is exhausted."""


def match_resource(avail: ResourceExpr, want: ResourceExpr):
    """Pay ``want`` out of ``avail``: signed remainder plus the constraint
    that the pool really covered the payment.  Never fails; an impossible
    payment surfaces as an unsatisfiable constraint at LP time."""
    return avail - want, (Constraint(avail, want),)


# ---------------------------------------------------------------------------
# the prover


class Prover:
    """One proof search instance.

    A ``Prover`` carries the backtracking state for a single entailment:
    fresh-name clock for rigid variables, the work budget, and the deepest
    failure seen (for diagnostics).  Proving different conditions with
    different instances keeps results independent and reproducible.
    """

    def __init__(self, max_work: int = 200_000):
        self.max_work = max_work
        self._work = max_work
        self._clock = 0
        self._rigid_birth: dict[str, int] = {}
        self._best_fail: Optional[tuple[int, str]] = None
        self._branches = 0

    # -- public entry points ------------------------------------------------

    def prove(self, ctx: ProofContext, goal: Goal) -> ProofResult:
        self._work = self.max_work
        self._best_fail = None
        self._branches = 0
        try:
            cons = self._go_saturated(ctx, goal, {}, 0)
        except _SearchBound as e:
            cons, fail = None, ProofFailure(f"search bound exceeded ({e})", 0)
        else:
            depth, msg = self._best_fail or (0, "no applicable rule")
            fail = ProofFailure(msg, depth) if cons is None else None
        ticks = self.max_work - self._work
        return ProofResult(cons is not None, cons or (), fail, ticks, self._branches)

    def prove_vc(self, vc) -> ProofResult:
        """Prove antecedent |- consequent; every antecedent disjunct must
        entail the goal, and the constraint sets are unioned."""
        all_cons: ConstraintSet = ()
        ticks = branches = 0
        for clause in vc.antecedent:
            ctx = self._context_of_clause(clause)
            res = self.prove(ctx, vc.consequent)
            ticks += res.ticks
            branches += res.branches
            if not res.ok:
                fail = res.failure
                return ProofResult(
                    False,
                    (),
                    ProofFailure(fail.message, fail.depth, getattr(vc, "vc_id", None)),
                    ticks,
                    branches,
                )
            all_cons = merge_constraints(all_cons, res.constraints)
        return ProofResult(True, all_cons, None, ticks, branches)

    def _context_of_clause(self, clause: Clause) -> ProofContext:
        # Antecedent existentials denote some fixed unknown values: introduce
        # them as rigid variables that anything may later be equated with.
        names = FreshNames()
        if clause.exists:
            sub = {x: Var(names.next(x)) for x in clause.exists}
            clause = subst_clause(
                Clause((), clause.pure, clause.heap, clause.resource), sub
            )
        return ProofContext(clause.pure, clause.heap, clause.resource, names)

    # -- bookkeeping ----------------------------------------------------------

    def _tick(self) -> None:
        self._work -= 1
        if self._work < 0:
            raise _SearchBound(f"work budget {self.max_work}")

    def _note_fail(self, depth: int, msg: str) -> None:
        if self._best_fail is None or depth >= self._best_fail[0]:
            self._best_fail = (depth, msg)

    def _fresh_rigid(self, ctx: ProofContext, base: str) -> Var:
        name = ctx.names.next(base)
        self._clock += 1
        self._rigid_birth[name] = self._clock
        return Var(name)

    def _fresh_evar(self, ctx: ProofContext, base: str) -> EVar:
        return EVar(ctx.names.next(base), self._clock)

    def _bind(self, e: EVar, t: Term, theta: Subst) -> Optional[Subst]:
        t = resolve(t, theta)
        if t == e:
            return theta
        if isinstance(t, EVar):
            # orient towards the younger variable so scopes stay respected
            if t.birth > e.birth:
                e, t = t, e
        elif isinstance(t, Var):
            if self._rigid_birth.get(t.name, 0) > e.birth:
                return None  # rigid variable introduced after the choice point
        out = dict(theta)
        out[e] = t
        return out

    def _unify(self, ctx: ProofContext, goal_t: Term, ctx_t: Term, theta: Subst):
        """Match a goal term against a (rigid) context term."""
        goal_t = resolve(goal_t, theta)
        if isinstance(goal_t, EVar):
            return self._bind(goal_t, ctx_t, theta)
        return theta if ctx.pc.equal(goal_t, ctx_t) else None

    def _candidates(self, ctx: ProofContext) -> list:
        """Instantiation candidates: null plus one representative per
        equivalence class of the terms mentioned by the context."""
        seen = []
        reps = set()
        pc = ctx.pc
        pool = [NULL]
        for a in ctx.pure + ctx.heap:
            pool.extend(atom_terms(a))
        for t in pool:
            if isinstance(t, EVar):
                continue
            r = pc.find(t)
            if r not in reps:
                reps.add(r)
                seen.append(t)
        return seen

    # -- saturation -----------------------------------------------------------

    def saturate(self, ctx: ProofContext) -> Iterator[ProofContext]:
        """Close the context under cell facts and decided segment unfoldings.

        Yields the surviving case branches one at a time, each as soon as
        it is saturated, the first split branch first; a consumer that
        stops early never builds the rest.  Contradictory branches are
        pruned (a contradictory context proves anything, contributing no
        constraints), so yielding nothing means vacuous success.
        """
        stack = [ctx]
        while stack:
            self._tick()
            c = self._pure_closure(stack.pop())
            if c.pc.contradictory():
                continue
            step = self._unfold_step(c)
            if step is None:
                self._branches += 1
                yield c
            else:
                stack.extend(reversed(step))  # the first branch is popped next

    def _pure_closure(self, ctx: ProofContext) -> ProofContext:
        """Add the cell facts of the atoms past ``ctx.closed``: non-null
        addresses of new cells, and distinct addresses for each same-field
        pair whose later cell is new.  The facts of older cells are entailed
        already, so this adds exactly what a scan of every pair would."""
        heap, closed = ctx.heap, ctx.closed
        if closed == len(heap):
            return ctx
        old = [a for a in heap[:closed] if isinstance(a, PointsTo)]
        new = [a for a in heap[closed:] if isinstance(a, PointsTo)]
        facts = [PureAtom(b.obj, "!=", NULL) for b in new]
        # the pairs (a, b) with b new, in the order of a scan of all pairs
        for k, a in enumerate(old + new):
            for b in new[max(k + 1 - len(old), 0) :]:
                if a.field == b.field:
                    facts.append(PureAtom(a.obj, "!=", b.obj))
        pc = ctx.pc
        added = []
        for atom in facts:
            if not pc.entails(atom):
                if not added:
                    pc = pc.copy()  # ctx's closure may be shared: grow a copy
                added.append(atom)
                pc.add(atom)
        if not added:
            return ctx.updated(closed=len(heap))
        return ctx.updated(pure=ctx.pure + tuple(added), pc=pc, closed=len(heap))

    def _unfold_step(self, ctx: ProofContext) -> Optional[list[ProofContext]]:
        """Apply the first decided unfolding, if any.  Returns the branches
        to requeue, or None when the context is fully saturated."""
        pc = ctx.pc
        find = pc.find
        null = find(NULL)
        for i, atom in enumerate(ctx.heap):
            if isinstance(atom, PointsTo):
                continue
            head, stop = find(atom.head), find(atom.stop)
            if head == stop:
                return [ctx.updated(heap=ctx.without_atom(i), closed=ctx.closed_without(i))]
            if head == null:
                eq = PureAtom(atom.stop, "=", NULL)
                rest = ctx.without_atom(i)
                return [ctx.updated(pure=ctx.pure + (eq,), heap=rest, closed=ctx.closed_without(i))]
            if pc.apart(head, stop):
                # an instance whose head is not its stop must be a node,
                # whether or not the head's null-ness is known yet
                return [self._unfold_cons(ctx, i)]
            if pc.apart(head, null):
                cons = self._unfold_cons(ctx, i)
                empty = ctx.updated(
                    pure=ctx.pure + (PureAtom(atom.head, "=", atom.stop),),
                    heap=ctx.without_atom(i),
                    closed=ctx.closed_without(i),
                )
                return [empty, cons]
        return None

    def _unfold_cons(self, ctx: ProofContext, i: int) -> ProofContext:
        """Unfold the instance ``ctx.heap[i]`` into its head node: one cell
        per field, its children, and the node's resource."""
        atom = ctx.heap[i]
        values = [Var(ctx.names.next(base)) for _, base in atom.FIELDS]
        cells = tuple(PointsTo(atom.head, f, v) for (f, _), v in zip(atom.FIELDS, values))
        return ctx.updated(
            heap=ctx.without_atom(i) + cells + atom.children(*values),
            resource=ctx.resource + atom.ann,
            closed=ctx.closed_without(i),
        )

    # -- goal dispatch ----------------------------------------------------------
    #
    # Goals are never rewritten.  ``env`` maps each goal variable bound by an
    # enclosing quantifier to its value: a fresh rigid variable, an EVar or
    # an instantiation candidate.  A rule applies it only to the clause or
    # guard it is about to match or assume; a goal variable absent from it
    # names the context variable of that name.  The values are context
    # terms, never read through ``env`` again, so an inner binder shadows an
    # outer one and nothing can be captured.  After a ``*`` match every
    # value that is an EVar the match bound is replaced by its binding.

    def _go_saturated(self, ctx, goal, env, depth) -> Optional[ConstraintSet]:
        """Prove the goal in every surviving branch, each as saturation
        yields it; the first failing branch ends the search."""
        cons: ConstraintSet = ()
        for branch in self.saturate(ctx):
            sub = self._go(branch, goal, env, depth)
            if sub is None:
                return None
            cons = merge_constraints(cons, sub)
        return cons

    def _go(self, ctx: ProofContext, goal: Goal, env: Env, depth: int) -> Optional[ConstraintSet]:
        self._tick()
        if isinstance(goal, Leaf):
            return self._go_leaf(ctx, goal, env, depth)
        if isinstance(goal, Star):
            return self._go_star(ctx, goal, env, depth)
        if isinstance(goal, Wand):
            return self._go_wand(ctx, goal, env, depth)
        if isinstance(goal, And):
            left = self._go(ctx, goal.left, env, depth + 1)
            if left is None:
                return None
            right = self._go(ctx, goal.right, env, depth + 1)
            if right is None:
                return None
            return merge_constraints(left, right)
        if isinstance(goal, Implies):
            return self._go_implies(ctx, goal, env, depth)
        if isinstance(goal, Forall):
            v = self._fresh_rigid(ctx, goal.var)
            return self._go(ctx, goal.rest, {**env, goal.var: v}, depth + 1)
        if isinstance(goal, Exists):
            return self._go_exists(ctx, goal, env, depth)
        raise TypeError(goal)

    def _go_leaf(self, ctx, goal: Leaf, env, depth) -> Optional[ConstraintSet]:
        for clause in goal.parts:
            for ctx2, theta, cons in self._match_clause(ctx, subst_clause(clause, _live(clause, env)), depth):
                if ctx2.heap:
                    leak = ", ".join(str(a) for a in ctx2.heap)
                    self._note_fail(depth, f"leftover heap after match: {leak}")
                    continue
                return cons
        return None

    def _go_star(self, ctx, goal: Star, env, depth) -> Optional[ConstraintSet]:
        for clause in goal.parts:
            for ctx2, theta, cons in self._match_clause(ctx, subst_clause(clause, _live(clause, env)), depth):
                # rebind every goal variable whose EVar the match bound, also
                # one the clause does not mention: an earlier match may have
                # made two goal variables hold the same EVar
                bound = {k: resolve(v, theta) for k, v in env.items() if type(v) is EVar and v in theta}
                sub = self._go(ctx2, goal.rest, {**env, **bound} if bound else env, depth + 1)
                if sub is not None:
                    return merge_constraints(cons, sub)
        return None

    def _go_wand(self, ctx, goal: Wand, env, depth) -> Optional[ConstraintSet]:
        # Assume the hypothesis in every one of its disjuncts; the
        # continuation must hold under each.
        cons: ConstraintSet = ()
        for clause in goal.parts:
            clause = subst_clause(clause, _live(clause, env))
            evars = {t for a in clause.pure + clause.heap for t in atom_terms(a) if isinstance(t, EVar)}
            if evars:
                names = ", ".join(sorted(str(e) for e in evars))
                self._note_fail(depth, f"unresolved existential {names} entering context")
                return None
            body = clause
            if clause.exists:
                sub = {x: self._fresh_rigid(ctx, x) for x in clause.exists}
                body = subst_clause(Clause((), clause.pure, clause.heap, clause.resource), sub)
            grown = ctx.updated(
                pure=ctx.pure + body.pure,
                heap=ctx.heap + body.heap,
                resource=ctx.resource + body.resource,
                closed=ctx.closed,
            )
            sub_cons = self._go_saturated(grown, goal.rest, env, depth + 1)
            if sub_cons is None:
                return None
            cons = merge_constraints(cons, sub_cons)
        return cons

    def _go_implies(self, ctx, goal: Implies, env, depth) -> Optional[ConstraintSet]:
        cond = map_atom(goal.cond, subst_term, env)
        if any(isinstance(t, EVar) for t in atom_terms(cond)):
            self._note_fail(depth, f"unresolved existential in guard {cond}")
            return None
        grown = ctx.updated(pure=ctx.pure + (cond,))
        return self._go_saturated(grown, goal.rest, env, depth + 1)

    def _go_exists(self, ctx, goal: Exists, env, depth) -> Optional[ConstraintSet]:
        # Unification first: let matching discover the witness.
        e = self._fresh_evar(ctx, goal.var)
        res = self._go(ctx, goal.rest, {**env, goal.var: e}, depth + 1)
        if res is not None:
            return res
        # Fall back to enumerating context terms (never fresh integers).
        for cand in self._candidates(ctx):
            res = self._go(ctx, goal.rest, {**env, goal.var: cand}, depth + 1)
            if res is not None:
                return res
        return None

    # -- clause and heap matching ------------------------------------------------

    def _match_clause(
        self, ctx: ProofContext, clause: Clause, depth: int
    ) -> Iterator[tuple[ProofContext, Subst, ConstraintSet]]:
        """Match one disjunct: cover its heap atoms, check its pure part,
        pay its resource.  Yields every way of doing so."""
        body = clause
        theta0: Subst = {}
        if clause.exists:
            evs = {x: self._fresh_evar(ctx, x) for x in clause.exists}
            body = subst_clause(Clause((), clause.pure, clause.heap, clause.resource), evs)
        for ctx2, theta, cons in self._match_atoms(ctx, body.heap, theta0, (), depth):
            for theta2 in self._solve_pures(ctx2, body.pure, theta, depth):
                rem, rcons = match_resource(ctx2.resource, body.resource)
                yield (
                    ctx2.updated(resource=rem),
                    theta2,
                    merge_constraints(cons, rcons),
                )

    def _match_atoms(
        self, ctx: ProofContext, goal_atoms: tuple, theta: Subst, cons: ConstraintSet, depth: int
    ) -> Iterator[tuple[ProofContext, Subst, ConstraintSet]]:
        if not goal_atoms:
            yield ctx, theta, cons
            return
        self._tick()
        head = map_atom(goal_atoms[0], resolve, theta)
        tail = goal_atoms[1:]
        matched = False
        match = self._match_pt if isinstance(head, PointsTo) else self._match_pred
        for out in match(ctx, head, tail, theta, cons, depth):
            matched = True
            yield out
        if not matched:
            self._note_fail(depth, f"no match for {head} in heap [{', '.join(str(a) for a in ctx.heap)}]")

    def _match_pt(self, ctx, goal: PointsTo, tail, theta, cons, depth):
        for i, cell in enumerate(ctx.heap):
            if not isinstance(cell, PointsTo) or cell.field != goal.field:
                continue
            t1 = self._unify(ctx, goal.obj, cell.obj, theta)
            if t1 is None:
                continue
            t2 = self._unify(ctx, goal.value, cell.value, t1)
            if t2 is None:
                continue
            smaller = ctx.updated(heap=ctx.without_atom(i), closed=ctx.closed_without(i))
            yield from self._match_atoms(smaller, tail, t2, cons, depth)

    def _match_pred(self, ctx, goal, tail, theta, cons, depth):
        head, stop = goal.head, goal.stop
        # the empty instance: head meets stop, at no cost
        if isinstance(head, EVar):
            t0 = self._bind(head, stop, theta)
        elif isinstance(stop, EVar):
            t0 = self._bind(stop, head, theta)
        else:
            t0 = theta if ctx.pc.equal(head, stop) else None
        if t0 is not None:
            yield from self._match_atoms(ctx, tail, t0, cons, depth)

        # peel one exposed node, paying the per-node annotation
        (first, _), (second, _) = goal.FIELDS
        for i, cell in enumerate(ctx.heap):
            if not isinstance(cell, PointsTo) or cell.field != first:
                continue
            t1 = self._unify(ctx, head, cell.obj, theta)
            if t1 is None:
                continue
            for j, cell2 in enumerate(ctx.heap):
                if j == i or not isinstance(cell2, PointsTo) or cell2.field != second:
                    continue
                if not ctx.pc.equal(cell2.obj, cell.obj):
                    continue
                rem, rcons = match_resource(ctx.resource, goal.ann)
                smaller = ctx.updated(
                    heap=tuple(a for k, a in enumerate(ctx.heap) if k not in (i, j)),
                    resource=rem,
                    closed=ctx.closed_without(i, j),
                )
                rest = goal.children(cell.value, cell2.value) + tail
                yield from self._match_atoms(smaller, rest, t1, merge_constraints(cons, rcons), depth)
                break  # second cells at one address are interchangeable

        # absorb a whole context instance at the same head
        for i, seg in enumerate(ctx.heap):
            if type(seg) is not type(goal):
                continue
            t1 = self._unify(ctx, head, seg.head, theta)
            if t1 is None:
                continue
            if seg.ann == goal.ann:
                extra: ConstraintSet = ()
            else:
                # differing annotations: per-node weakening is sound
                # because instance resources are lower bounds
                extra = (Constraint(seg.ann, goal.ann),)
            rest = goal.absorbed(seg) + tail
            smaller = ctx.updated(heap=ctx.without_atom(i), closed=ctx.closed_without(i))
            yield from self._match_atoms(smaller, rest, t1, merge_constraints(cons, extra), depth)

    def _solve_pures(self, ctx, atoms: tuple, theta: Subst, depth: int) -> Iterator[Subst]:
        """Check the clause's pure atoms, solving for leftover existentials
        by unification against equalities, then by candidate enumeration."""
        if not atoms:
            yield theta
            return
        head = map_atom(atoms[0], resolve, theta)
        tail = atoms[1:]
        lhs_e = isinstance(head.lhs, EVar)
        rhs_e = isinstance(head.rhs, EVar)
        if not lhs_e and not rhs_e:
            if ctx.pc.entails(head):
                yield from self._solve_pures(ctx, tail, theta, depth)
            else:
                self._note_fail(depth, f"pure fact not entailed: {head}")
            return
        if head.op == "=":
            e, t = (head.lhs, head.rhs) if lhs_e else (head.rhs, head.lhs)
            t2 = self._bind(e, t, theta)
            if t2 is not None:
                yield from self._solve_pures(ctx, tail, t2, depth)
            return
        # disequality on an existential (or two existentials): enumerate
        e = head.lhs if lhs_e else head.rhs
        for cand in self._candidates(ctx):
            t2 = self._bind(e, cand, theta)
            if t2 is None:
                continue
            yield from self._solve_pures(ctx, atoms, t2, depth)
