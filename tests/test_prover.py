"""Proof search: saturation, heap/resource matching, goal dispatch.

The expected constraint sets in the end-to-end tests were derived by hand:
walk the matching rules, recording one inequality per resource payment and
per absorbed segment with a differing annotation.
"""

import functools
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from amort.assertions import (
    EMP,
    NULL,
    And,
    Clause,
    Exists,
    Forall,
    Implies,
    IntLit,
    Leaf,
    ListSeg,
    PointsTo,
    PureAtom,
    Star,
    TreeSeg,
    Var,
    Wand,
    parse_assertion,
)
from amort import assertions, prover
from amort.bytecode import parse_program, validate
from amort.cli import CORPUS_DIR
from amort.prover import (
    Constraint,
    EVar,
    ProofContext,
    Prover,
    match_resource,
    merge_constraints,
)
from amort.resources import ResourceExpr
from amort.vcgen import VcgenError, gen_program_vcs
from oracles import ReferenceProver, RewritingProver

R = ResourceExpr.const
V = ResourceExpr.var
x, y, z, d = Var("x"), Var("y"), Var("z"), Var("d")


def cons_strs(cons):
    return sorted(str(c) for c in cons)


def match_heap(ctx, goal_sigma):
    """Each way of covering `goal_sigma` with the context's heap, as
    (remaining context, constraints, bindings of the goal's unification variables)."""
    for ctx2, theta, cons in Prover()._match_atoms(ctx, tuple(goal_sigma), {}, (), 0):
        yield ctx2, cons, theta


# ---------------------------------------------------------------------------
# saturation


class TestSaturate:
    def test_nonnull_head_unfolds_one_cell(self):
        ctx = ProofContext((PureAtom(x, "!=", NULL),), (ListSeg(R(1), x, NULL),))
        (branch,) = list(Prover().saturate(ctx))
        kinds = sorted(type(a).__name__ for a in branch.heap)
        assert kinds == ["ListSeg", "PointsTo", "PointsTo"]
        assert branch.resource == R(1)
        seg = [a for a in branch.heap if isinstance(a, ListSeg)][0]
        assert seg.end == NULL and seg.start != x  # fresh tail pointer

    def test_cells_imply_distinctness_and_nonnull(self):
        ctx = ProofContext((), (PointsTo(x, "f", Var("a")), PointsTo(y, "f", Var("b"))))
        (branch,) = list(Prover().saturate(ctx))
        pc = branch.pc
        assert pc.unequal(x, NULL)
        assert pc.unequal(y, NULL)
        assert pc.unequal(x, y)

    def test_different_fields_do_not_imply_distinctness(self):
        ctx = ProofContext((), (PointsTo(x, "next", y), PointsTo(x, "data", d)))
        (branch,) = list(Prover().saturate(ctx))
        assert not branch.pc.contradictory()

    def test_equal_endpoints_drop_segment(self):
        ctx = ProofContext((), (ListSeg(R(1), x, x),))
        (branch,) = list(Prover().saturate(ctx))
        assert branch.heap == ()
        assert branch.resource == R(0)

    def test_null_head_forces_null_end(self):
        ctx = ProofContext((PureAtom(x, "=", NULL),), (ListSeg(R(1), x, y),))
        (branch,) = list(Prover().saturate(ctx))
        assert branch.heap == ()
        assert branch.pc.equal(y, NULL)

    def test_undecided_head_stays_folded(self):
        ctx = ProofContext((), (ListSeg(V("a"), x, NULL),))
        (branch,) = list(Prover().saturate(ctx))
        assert branch.heap == ctx.heap

    def test_nonnull_head_unknown_end_branches(self):
        ctx = ProofContext((PureAtom(x, "!=", NULL),), (ListSeg(R(1), x, y),))
        branches = list(Prover().saturate(ctx))
        assert len(branches) == 2
        empty, cons = branches
        assert empty.heap == () and empty.pc.equal(x, y)
        assert cons.resource == R(1)
        assert any(isinstance(a, PointsTo) for a in cons.heap)

    def test_distinct_endpoints_unfold_without_nullness(self):
        # x != y alone means the segment is non-empty, even though nothing
        # is yet known about whether x is null
        ctx = ProofContext((PureAtom(x, "!=", y),), (ListSeg(R(1), x, y),))
        (branch,) = list(Prover().saturate(ctx))
        cells = [a for a in branch.heap if isinstance(a, PointsTo)]
        assert {c.field for c in cells} == {"next", "data"}
        assert branch.resource == R(1)
        assert branch.pc.unequal(x, NULL)  # derived from the new cells

    def test_contradictory_branch_pruned(self):
        # a cell at a null address is impossible, so no branch survives
        ctx = ProofContext((PureAtom(x, "=", NULL),), (PointsTo(x, "f", y),))
        assert list(Prover().saturate(ctx)) == []

    def test_tree_unfolds_when_root_nonnull(self):
        ctx = ProofContext((PureAtom(x, "!=", NULL),), (TreeSeg(V("t"), x),))
        (branch,) = list(Prover().saturate(ctx))
        trees = [a for a in branch.heap if isinstance(a, TreeSeg)]
        cells = [a for a in branch.heap if isinstance(a, PointsTo)]
        assert len(trees) == 2 and len(cells) == 2
        assert {c.field for c in cells} == {"left", "right"}
        assert branch.resource == V("t")

    def test_tree_null_root_dropped(self):
        ctx = ProofContext((PureAtom(x, "=", NULL),), (TreeSeg(R(2), x),))
        (branch,) = list(Prover().saturate(ctx))
        assert branch.heap == ()

    def test_unfolding_cascades_through_decided_tails(self):
        # x != null and x != y unfolds; the fresh tail stays folded
        ctx = ProofContext(
            (PureAtom(x, "!=", NULL), PureAtom(x, "!=", y)),
            (ListSeg(R(1), x, y),),
        )
        (branch,) = list(Prover().saturate(ctx))
        segs = [a for a in branch.heap if isinstance(a, ListSeg)]
        assert len(segs) == 1 and segs[0].end == y


class TestSharedClosures:
    """Derived contexts share or extend their parent's pure closure; a fact
    added in one context must never show in its parent or a sibling."""

    TERMS = (x, y, z, d, NULL)

    def answers(self, ctx):
        pc = ctx.pc
        pairs = [(pc.equal(a, b), pc.unequal(a, b)) for a in self.TERMS for b in self.TERMS]
        return pc.contradictory(), pairs

    def assert_answers_own_atoms(self, *ctxs):
        for ctx in ctxs:
            assert self.answers(ctx) == self.answers(ProofContext(ctx.pure)), str(ctx)

    def test_updated_pure_leaves_parent_and_siblings_alone(self):
        parent = ProofContext((PureAtom(x, "!=", NULL),), (ListSeg(R(1), y, z),))
        parent.pc  # built, so the children below share or copy it
        same = parent.updated(heap=())
        left = parent.updated(pure=parent.pure + (PureAtom(x, "=", y),))
        right = parent.updated(pure=parent.pure + (PureAtom(y, "=", NULL),))
        assert same.pc is parent.pc
        assert left.pc.unequal(y, NULL) and right.pc.equal(y, NULL)
        self.assert_answers_own_atoms(parent, same, left, right)

    def test_pure_closure_grows_a_copy(self):
        parent = ProofContext((PureAtom(x, "!=", y),), (PointsTo(x, "next", y), PointsTo(z, "next", d)))
        parent.pc
        sibling = parent.updated(resource=R(1))
        grown = Prover()._pure_closure(parent)
        assert grown.pc.unequal(x, NULL) and grown.pc.unequal(x, z)
        assert not parent.pc.unequal(x, NULL) and not sibling.pc.unequal(x, z)
        self.assert_answers_own_atoms(parent, sibling, grown)

    def test_saturation_branches_keep_their_own_facts(self):
        # the cons branch shares the root's closure until its new cells add
        # x != z; the empty branch adds x = y to a copy
        ctx = ProofContext(
            (PureAtom(x, "!=", NULL), PureAtom(z, "!=", NULL)),
            (ListSeg(R(1), x, y), PointsTo(z, "next", d)),
        )
        ctx.pc
        empty, cons = list(Prover().saturate(ctx))
        assert empty.pc.equal(x, y) and cons.pc.unequal(x, z)
        self.assert_answers_own_atoms(ctx, empty, cons)


# ---------------------------------------------------------------------------
# matching


class TestMatchHeap:
    def test_points_to_unifies_existential_value(self):
        ctx = ProofContext((), (PointsTo(x, "next", y),))
        e = EVar("z")
        outs = list(match_heap(ctx, [PointsTo(x, "next", e)]))
        assert len(outs) == 1
        ctx2, cons, theta = outs[0]
        assert ctx2.heap == () and cons == () and theta[e] == y

    def test_points_to_matches_through_equalities(self):
        ctx = ProofContext((PureAtom(x, "=", z),), (PointsTo(x, "next", y),))
        outs = list(match_heap(ctx, [PointsTo(z, "next", y)]))
        assert len(outs) == 1

    def test_points_to_value_mismatch_fails(self):
        ctx = ProofContext((), (PointsTo(x, "next", y),))
        assert list(match_heap(ctx, [PointsTo(x, "next", NULL)])) == []

    def test_empty_goal_matches_whole_context(self):
        ctx = ProofContext((), (PointsTo(x, "next", y),), R(3))
        ((ctx2, cons, _),) = list(match_heap(ctx, []))
        assert ctx2.heap == ctx.heap and ctx2.resource == R(3) and cons == ()

    def test_whole_segment_absorption_same_annotation(self):
        ctx = ProofContext((), (ListSeg(V("a"), x, NULL),))
        outs = list(match_heap(ctx, [ListSeg(V("a"), x, NULL)]))
        assert any(c2.heap == () and cons == () for c2, cons, _ in outs)

    def test_absorption_differing_annotation_weakens(self):
        ctx = ProofContext((), (ListSeg(V("a"), x, NULL),))
        outs = list(match_heap(ctx, [ListSeg(V("b"), x, NULL)]))
        assert len(outs) == 1
        _, cons, _ = outs[0]
        assert cons_strs(cons) == ["$a >= $b"]

    def test_peel_pays_per_element(self):
        n = Var("n")
        ctx = ProofContext(
            (PureAtom(n, "=", NULL),),
            (PointsTo(x, "next", n), PointsTo(x, "data", d)),
            V("y"),
        )
        outs = list(match_heap(ctx, [ListSeg(R(1), x, NULL)]))
        assert len(outs) == 1
        ctx2, cons, _ = outs[0]
        assert ctx2.heap == ()
        assert cons_strs(cons) == ["$y >= 1"]
        assert ctx2.resource == V("y") - R(1)

    def test_peel_requires_both_cells(self):
        ctx = ProofContext((), (PointsTo(x, "next", NULL),), V("y"))
        assert list(match_heap(ctx, [ListSeg(R(1), x, NULL)])) == []

    def test_endpoint_equality_needs_no_heap(self):
        ctx = ProofContext((), (), R(0))
        outs = list(match_heap(ctx, [ListSeg(V("a"), x, x)]))
        assert len(outs) == 1 and outs[0][1] == ()

    def test_tree_absorption_weakens(self):
        ctx = ProofContext((), (TreeSeg(V("a"), x),))
        outs = list(match_heap(ctx, [TreeSeg(V("b"), x)]))
        assert len(outs) == 1
        assert cons_strs(outs[0][1]) == ["$a >= $b"]

    def test_tree_peel_recurses_into_both_subtrees(self):
        l, r = Var("l"), Var("r")
        ctx = ProofContext(
            (PureAtom(l, "=", NULL), PureAtom(r, "=", NULL)),
            (PointsTo(x, "left", l), PointsTo(x, "right", r)),
            R(5),
        )
        outs = list(match_heap(ctx, [TreeSeg(R(2), x)]))
        assert outs and outs[0][0].heap == ()
        assert outs[0][0].resource == R(3)

    def test_split_threads_leftover(self):
        ctx = ProofContext((), (PointsTo(x, "f", y), PointsTo(z, "g", d)))
        outs = list(match_heap(ctx, [PointsTo(x, "f", y), PointsTo(z, "g", d)]))
        assert len(outs) == 1 and outs[0][0].heap == ()


class TestMatchResource:
    def test_variable_pool_pays_constant(self):
        rem, cons = match_resource(V("y"), R(1))
        assert rem == V("y") - R(1)
        assert cons_strs(cons) == ["$y >= 1"]

    def test_trivial_payment_still_recorded(self):
        rem, cons = match_resource(R(3), R(0))
        assert rem == R(3)
        assert cons_strs(cons) == ["3 >= 0"]

    def test_overdraft_yields_infeasible_constraint(self):
        rem, cons = match_resource(R(0), R(1))
        assert rem == R(-1)
        assert cons_strs(cons) == ["0 >= 1"]


# ---------------------------------------------------------------------------
# goal dispatch


def leaf(text):
    return Leaf(parse_assertion(text))


class TestProve:
    def test_identity_with_absorption(self):
        ctx = ProofContext((), (ListSeg(V("a"), x, NULL),), V("b"))
        res = Prover().prove(ctx, leaf("; lseg($a, x, null) ; 0"))
        assert res.ok
        assert cons_strs(res.constraints) == ["$b >= 0"]

    def test_leftover_heap_is_a_leak(self):
        ctx = ProofContext((), (PointsTo(x, "f", y),))
        res = Prover().prove(ctx, Leaf(EMP))
        assert not res.ok
        assert "leftover heap" in res.failure.message
        assert "pt(x, f, y)" in res.failure.message

    def test_overdraft_succeeds_with_infeasible_constraint(self):
        # the resource rule never fails; infeasibility is the LP's business
        ctx = ProofContext()
        res = Prover().prove(ctx, leaf(" ; ; 1"))
        assert res.ok
        assert cons_strs(res.constraints) == ["0 >= 1"]

    def test_star_threads_leftover_to_continuation(self):
        ctx = ProofContext((), (PointsTo(x, "f", y), PointsTo(z, "g", d)), R(2))
        goal = Star(parse_assertion("; pt(x, f, y) ; 1"), leaf("; pt(z, g, d) ; 1"))
        res = Prover().prove(ctx, goal)
        assert res.ok
        assert cons_strs(res.constraints) == ["1 >= 1", "2 >= 1"]

    def test_wand_extends_context(self):
        ctx = ProofContext()
        goal = Wand(parse_assertion("; pt(x, f, y) ; 2"), leaf("; pt(x, f, y) ; 2"))
        res = Prover().prove(ctx, goal)
        assert res.ok
        assert cons_strs(res.constraints) == ["2 >= 2"]

    def test_wand_requires_every_disjunct(self):
        # one hypothesis disjunct gives a cell, the other gives nothing;
        # the continuation must hold under both, and it cannot under the second
        hyp = parse_assertion("; pt(x, f, y) ; 0 \\/ emp")
        res = Prover().prove(ProofContext(), Wand(hyp, leaf("; pt(x, f, y) ; 0")))
        assert not res.ok

    def test_implies_assumes_guard(self):
        ctx = ProofContext((), (ListSeg(R(1), x, NULL),), R(0))
        goal = Implies(
            PureAtom(x, "=", NULL),
            leaf("; ; 0"),
        )
        # assuming x = null empties the segment, so no leak remains
        assert Prover().prove(ctx, goal).ok

    def test_contradictory_guard_is_vacuous(self):
        ctx = ProofContext((PureAtom(x, "=", NULL),))
        goal = Implies(PureAtom(x, "!=", NULL), leaf("; pt(x, f, y) ; 5"))
        res = Prover().prove(ctx, goal)
        assert res.ok and res.constraints == ()

    def test_conjunction_proves_both_sides(self):
        ctx = ProofContext((), (), R(2))
        goal = And(leaf("; ; 1"), leaf("; ; 2"))
        res = Prover().prove(ctx, goal)
        assert res.ok
        assert cons_strs(res.constraints) == ["2 >= 1", "2 >= 2"]

    def test_forall_introduces_rigid_variable(self):
        # forall v. (pt(x,f,v) -* exists w. pt(x,f,w) with w = v)
        goal = Forall(
            "v",
            Wand(
                (Clause((), (), (PointsTo(x, "f", Var("v")),)),),
                Leaf((Clause(("w",), (PureAtom(Var("w"), "=", Var("v")),), (PointsTo(x, "f", Var("w")),)),)),
            ),
        )
        assert Prover().prove(ProofContext(), goal).ok

    def test_exists_witness_found_by_matching(self):
        ctx = ProofContext((), (PointsTo(x, "next", y),))
        goal = Exists("v", leaf("; pt(x, next, v) ; 0"))
        assert Prover().prove(ctx, goal).ok

    def test_exists_falls_back_to_candidate_enumeration(self):
        # the witness only occurs in pure disequalities, so unification
        # cannot find it; enumeration of context terms can (null works)
        ctx = ProofContext((PureAtom(x, "!=", NULL),))
        goal = Exists("v", Leaf((Clause((), (PureAtom(Var("v"), "!=", x),)),)))
        assert Prover().prove(ctx, goal).ok

    def test_star_match_binds_existential_for_the_rest(self):
        # the match binds v to y; the guard after it must see y, not ?v,
        # or the search only gets there through candidate enumeration
        ctx = ProofContext((), (PointsTo(x, "f", y),))
        goal = Exists("v", Star(parse_assertion("; pt(x, f, v) ; 0"), Implies(PureAtom(Var("v"), "=", y), leaf("emp"))))
        res = Prover().prove(ctx, goal)
        assert res.ok and res.ticks == 7

    def test_inner_binder_shadows_outer(self):
        ctx = ProofContext((), (PointsTo(x, "f", y),))
        cell = leaf("; pt(x, f, v) ; 0")
        # the inner v is an existential that matching instantiates with y
        assert Prover().prove(ctx, Forall("v", Exists("v", cell))).ok
        # the inner v is a fresh rigid variable, which y need not equal
        assert not Prover().prove(ctx, Exists("v", Forall("v", cell))).ok

    def test_existential_clause_variables_unify(self):
        ctx = ProofContext((), (PointsTo(x, "next", y), PointsTo(x, "data", IntLit(3))))
        res = Prover().prove(ctx, leaf("exists v w. ; pt(x, next, v), pt(x, data, w) ; 0"))
        assert res.ok

    def test_disjunctive_antecedent_requires_all_clauses(self):
        src = "x = null ; ; 1 \\/ x != null ; pt(x, next, y), pt(x, data, d), lseg(1, y, null) ; 1"

        class Vc:
            vc_id = "t@0"
            antecedent = parse_assertion(src)
            consequent = leaf("; lseg(1, x, null) ; 0")

        res = Prover().prove_vc(Vc())
        assert res.ok
        # clause one: empty segment, pay nothing; clause two: peel then absorb
        assert "1 >= 1" in cons_strs(res.constraints)

    def test_deterministic_constraint_order(self):
        ctx1 = ProofContext((), (ListSeg(V("a"), x, NULL),), V("b"))
        ctx2 = ProofContext((), (ListSeg(V("a"), x, NULL),), V("b"))
        goal = leaf("; lseg($c, x, null) ; $d")
        r1, r2 = Prover().prove(ctx1, goal), Prover().prove(ctx2, goal)
        assert r1.ok and [str(c) for c in r1.constraints] == [str(c) for c in r2.constraints]

    def test_depth_bound_reports_hard_failure(self):
        deep = leaf("; ; 0")
        for _ in range(100):
            deep = Forall("v", deep)
        res = Prover(max_work=50).prove(ProofContext(), deep)
        assert not res.ok
        assert "bound exceeded" in res.failure.message

    def test_exponential_backtracking_hits_work_budget_not_wallclock(self):
        # many same-field cells and an unsatisfiable tail force the search
        # to try factorially many pairings; the budget turns that into a
        # quick, explicit failure
        cells = tuple(PointsTo(Var(f"x{i}"), "f", Var(f"v{i}")) for i in range(8))
        ctx = ProofContext((), cells)
        goal_atoms = tuple(PointsTo(Var(f"e{i}"), "f", Var(f"w{i}")) for i in range(8))
        clause = Clause(
            tuple(f"e{i}" for i in range(8)) + tuple(f"w{i}" for i in range(8)),
            (PureAtom(Var("e0"), "=", NULL),),  # impossible: cells are non-null
            goal_atoms + cells,  # demands 16 cells from a heap of 8
        )
        res = Prover(max_work=20_000).prove(ctx, Leaf((clause,)))
        assert not res.ok


# ---------------------------------------------------------------------------
# end to end on a looping procedure


ITERATE = """
proc iterate(l:ref) locals cur:ref {
  requires: ; lseg($x, l, null) ; $y
  ensures: ; lseg(0, l, null) ; 0
  0: load l
  1: store cur
  2: load cur
  3: ifnull 9
  4: consume 1
  5: load cur
  6: getfield next
  7: store cur
  8: goto 2
  9: iconst 0
  10: return
  invariant 2: ; lseg($a, l, cur), lseg($b, cur, null) ; $c
}
entry iterate
"""


class TestEndToEnd:
    def test_iterate_constraints(self):
        prog = parse_program(ITERATE)
        assert validate(prog) == []
        vcs = gen_program_vcs(prog)
        assert [vc.vc_id for vc in vcs] == ["iterate@2", "iterate@entry"]
        got = ()
        for vc in vcs:
            res = Prover().prove_vc(vc)
            assert res.ok, str(res.failure)
            got = merge_constraints(got, res.constraints)
        assert cons_strs(got) == [
            "$a >= 0",
            "$b + $c - 1 >= $a",
            "$b + $c - 1 >= 0",
            "$b + $c >= 1",
            "$c >= 0",
            "$x >= $b",
            "$y >= $c",
            "-$a + $b + $c - 1 >= $c",
        ]
        # minimal solution by inspection: a=0, b=1, c=0 forces x>=1, y>=0
        val = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(0), "x": Fraction(1), "y": Fraction(0)}
        for c in got:
            assert c.diff().eval(val) >= 0

    def test_rerunning_is_reproducible(self):
        prog = parse_program(ITERATE)
        vcs = gen_program_vcs(prog)
        first = [tuple(str(c) for c in Prover().prove_vc(vc).constraints) for vc in vcs]
        second = [tuple(str(c) for c in Prover().prove_vc(vc).constraints) for vc in vcs]
        assert first == second


def getfield_chain(b):
    """b blocks of `load p; getfield next; pop`: each getfield binds the value
    it reads, so the binders above a clause grow with its offset."""
    body = []
    for i in range(b):
        body += [f"  {3 * i}: load p", f"  {3 * i + 1}: getfield next", f"  {3 * i + 2}: pop"]
    body += [f"  {3 * b}: iconst 0", f"  {3 * b + 1}: return"]
    return (
        "proc main(p:ref) {\n"
        "  requires: exists q. ; pt(p, next, q) ; 0\n"
        "  ensures: exists q. ; pt(p, next, q) ; 0\n\n" + "\n".join(body) + "\n}\n\nentry main\n"
    )


class TestEnvironmentPassing:
    def test_getfield_chain_substitutes_linearly(self, monkeypatch):
        # the prover applies its environment only to the clause it matches,
        # so substitution work grows linearly with the path; rewriting the
        # rest of the goal at every binder would grow it about x4 per doubling
        calls = 0
        real = assertions.map_atom

        def counting(a, f, arg):
            nonlocal calls
            calls += 1
            return real(a, f, arg)

        monkeypatch.setattr(assertions, "map_atom", counting)
        monkeypatch.setattr(prover, "map_atom", counting)
        # vcgen recurses once per instruction: 300 of them leave less than
        # 100 frames of the default recursion limit for the caller
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3000))
        counts, ticks = [], []
        try:
            for b in (25, 50, 100):
                prog = parse_program(getfield_chain(b))
                assert validate(prog) == []
                vcs = gen_program_vcs(prog)
                calls = total = 0
                for vc in vcs:
                    res = Prover().prove_vc(vc)
                    assert res.ok, str(res.failure)
                    total += res.ticks
                counts.append(calls)
                ticks.append(total)
        finally:
            sys.setrecursionlimit(limit)
        assert ticks == [128, 253, 503]
        assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts

    @pytest.mark.parametrize("name", ["frying_pan", "merge_inner", "queue", "tree_copy"])
    def test_goals_reach_the_search_unrewritten(self, name):
        # every goal dispatched is a node of the VC's consequent itself, so
        # the continuation vcgen shares between the arms of a branch reaches
        # the search as one object
        def nodes(g):
            yield g
            for child in (getattr(g, "rest", None), getattr(g, "left", None), getattr(g, "right", None)):
                if child is not None:
                    yield from nodes(child)

        class Recording(Prover):
            def _go(self, ctx, goal, env, depth):
                seen.append(goal)
                return super()._go(ctx, goal, env, depth)

        prog = parse_program((CORPUS_DIR / f"{name}.amr").read_text())
        for vc in gen_program_vcs(prog):
            seen = []
            assert Recording().prove_vc(vc).ok
            own = {id(g) for g in nodes(vc.consequent)}
            assert seen and all(id(g) in own for g in seen), vc.vc_id


    def test_star_match_rebinds_every_variable_holding_its_existential(self):
        # `a = b` binds ?a to ?b, so both goal variables hold ?b; matching
        # pt(y, g, a) binds ?b to z, which b must see too: z != q, so
        # pt(w, h, b) cannot match pt(w, h, q)
        w, q = Var("w"), Var("q")
        ctx = ProofContext((PureAtom(z, "!=", q),), (PointsTo(y, "g", z), PointsTo(w, "h", q)))
        goal = Exists(
            "a",
            Exists("b", Star(parse_assertion("a = b ; ; 0"), Star(parse_assertion("; pt(y, g, a) ; 0"), leaf("; pt(w, h, b) ; 0")))),
        )
        got, want = Prover().prove(ctx, goal), RewritingProver().prove(ctx, goal)
        assert not want.ok
        assert self.outcome(got) == self.outcome(want)

    @staticmethod
    def outcome(res):
        # fresh names may differ only by the `~k` suffixes goal rewriting
        # adds where a substituted term could be captured
        fail = re.sub(r"~\d+", "", res.failure.message) if res.failure else None
        return res.ok, res.constraints, fail, res.ticks, res.branches

    def test_agrees_with_goal_rewriting_on_the_corpus(self):
        checked = 0
        for path in sorted(CORPUS_DIR.glob("*.amr")):
            try:
                vcs = gen_program_vcs(parse_program(path.read_text()))
            except VcgenError:
                continue
            for vc in vcs:
                got, want = Prover().prove_vc(vc), RewritingProver().prove_vc(vc)
                assert got == want, vc.vc_id
                checked += 1
        assert checked >= 20

    def test_agrees_with_goal_rewriting_on_random_goals(self):
        # nested quantifiers over a few names, which shadow each other, the
        # context's x and the clauses' own existentials; the candidate
        # fallback substitutes context terms under them
        rng = random.Random(14)
        shapes = TestReferenceProver()

        def clause(terms):
            exists = (rng.choice(("e", "x")),) if rng.random() < 0.4 else ()
            terms += tuple(Var(n) for n in exists)
            pure = shapes.random_pure(rng, terms, rng.randint(0, 1))
            return Clause(exists, pure, shapes.random_heap(rng, terms, rng.randint(0, 2)), rng.choice(shapes.ANNS))

        def goal(bound, depth):
            terms = shapes.TERMS + tuple(Var(n) for n in sorted(bound))
            kind = rng.randrange(8) if depth else 0
            if kind == 0:
                return Leaf((clause(terms),))
            if kind in (1, 2):
                return (Star, Wand)[kind - 1]((clause(terms),), goal(bound, depth - 1))
            if kind == 3:
                cond = PureAtom(rng.choice(terms), rng.choice(("=", "!=")), rng.choice(terms))
                return Implies(cond, goal(bound, depth - 1))
            if kind == 4:
                return And(goal(bound, depth - 1), goal(bound, depth - 1))
            if kind == 7:
                # two existentials equated before either is matched: a
                # later match that binds one through its clause binds both
                a, b = rng.sample(("v", "w", "x", "e"), 2)
                eq = Clause((), (PureAtom(Var(a), "=", Var(b)),), (), R(0))
                # then a clause binds a alone, and the rest reads b alone
                first = Clause((), (PureAtom(Var(a), "=", rng.choice(shapes.TERMS)),), (), R(0))
                rest = Star((first,), goal(bound - {a} | {b}, depth - 1))
                return Exists(a, Exists(b, Star((eq,), rest)))
            name = rng.choice(("v", "w", "x", "e"))
            return (Forall, Exists)[kind - 5](name, goal(bound | {name}, depth - 1))

        seen = {"ok": 0, "failed": 0, "renamed": 0}
        for case in range(600):
            pure, heap, resource, _ = shapes.random_case(rng)
            g = goal(frozenset(), rng.randint(1, 5))
            label = f"case {case}: {ProofContext(pure, heap, resource)} |- {g}"
            got = Prover(max_work=5000).prove(ProofContext(pure, heap, resource), g)
            want = RewritingProver(max_work=5000).prove(ProofContext(pure, heap, resource), g)
            assert self.outcome(got) == self.outcome(want), label
            seen["ok" if got.ok else "failed"] += 1
            seen["renamed"] += got != want
        assert seen["ok"] >= 100 and seen["failed"] >= 100, seen


# ---------------------------------------------------------------------------
# differential test against the per-predicate rules


class TestReferenceProver:
    TERMS = (x, y, z, NULL)
    ANNS = (R(0), R(1), V("p"), V("q"))

    def random_heap(self, rng, terms, size, near=()):
        # single cells, nodes of either predicate, lsegs and trees;
        # half of the cells and instances sit at an address of a cell
        # already here or in `near`
        heap = []

        def at():
            pool = list(near) + [a.obj for a in heap if isinstance(a, PointsTo)]
            return rng.choice(pool) if pool and rng.random() < 0.5 else rng.choice(terms)

        while len(heap) < size:
            kind = rng.randrange(5)
            if kind == 0:
                f = rng.choice(("next", "data", "left", "right"))
                heap.append(PointsTo(at(), f, rng.choice(terms)))
            elif kind == 1:
                # a node, now and then with its second cell twice
                obj = rng.choice(terms)
                f1, f2 = rng.choice((("next", "data"), ("left", "right")))
                fields = (f1, f2, f2) if rng.random() < 0.25 else (f1, f2)
                heap += [PointsTo(obj, f, rng.choice(terms)) for f in fields]
            elif kind in (2, 3):
                heap.append(ListSeg(rng.choice(self.ANNS), at(), rng.choice(terms)))
            else:
                heap.append(TreeSeg(rng.choice(self.ANNS), at()))
        return tuple(heap[:size])

    def random_pure(self, rng, terms, size):
        return tuple(
            PureAtom(rng.choice(terms), rng.choice(("=", "!=")), rng.choice(terms))
            for _ in range(size)
        )

    def random_case(self, rng):
        pure = self.random_pure(rng, self.TERMS, rng.randint(0, 2))
        heap = self.random_heap(rng, self.TERMS, rng.randint(0, 4))
        resource = rng.choice(self.ANNS)
        exists = ("e",) if rng.random() < 0.5 else ()
        terms = self.TERMS + (Var("e"),) if exists else self.TERMS
        goal = Clause(
            exists,
            self.random_pure(rng, terms, rng.randint(0, 1)),
            self.random_heap(rng, terms, rng.randint(0, 3), [a.obj for a in heap if isinstance(a, PointsTo)]),
            rng.choice(self.ANNS),
        )
        return pure, heap, resource, goal

    def clause_over(self, rng, cells):
        # some of the context's cells, then random atoms: a match takes
        # cells, and assuming a cell it took keeps the context consistent
        # while assuming one it left contradicts it
        taken = tuple(rng.sample(cells, min(len(cells), rng.randint(0, 2))))
        more = self.random_heap(rng, self.TERMS, rng.randint(0, 3), [a.obj for a in cells])
        facts = self.random_pure(rng, self.TERMS, rng.randint(0, 1))
        return Clause((), facts, taken + more, rng.choice(self.ANNS))

    @staticmethod
    def branches(prover, ctx):
        return [(c.pure, c.heap, c.resource) for c in prover.saturate(ctx)]

    @staticmethod
    def matches(prover, ctx, clause):
        # every way of matching the clause against the unsaturated context,
        # whose cells may repeat a field at one address: saturation prunes
        # such contexts, so only here does the choice among them show
        out = [
            (c.pure, c.heap, c.resource, theta, cons)
            for c, theta, cons in itertools.islice(prover._match_clause(ctx, clause, 0), 64)
        ]
        return out, prover._work

    def test_star_match_rebinds_every_variable_holding_its_existential(self):
        # `a = b` binds ?a to ?b, so both goal variables hold ?b; matching
        # pt(y, g, a) binds ?b to z, which b must see too: z != q, so
        # pt(w, h, b) cannot match pt(w, h, q)
        w, q = Var("w"), Var("q")
        ctx = ProofContext((PureAtom(z, "!=", q),), (PointsTo(y, "g", z), PointsTo(w, "h", q)))
        goal = Exists(
            "a",
            Exists("b", Star(parse_assertion("a = b ; ; 0"), Star(parse_assertion("; pt(y, g, a) ; 0"), leaf("; pt(w, h, b) ; 0")))),
        )
        got, want = Prover().prove(ctx, goal), RewritingProver().prove(ctx, goal)
        assert not want.ok
        assert self.outcome(got) == self.outcome(want)

    @staticmethod
    def outcome(res):
        fail = res.failure.message if res.failure else None
        return res.ok, res.constraints, fail, res.ticks

    def test_agrees_with_per_predicate_rules(self):
        # saturation branches, raw matches and proof results must be the
        # reference's exactly: fresh names, constraint order, messages, ticks
        rng = random.Random(11)
        seen = {"ok": 0, "failed": 0, "matched": 0}
        for case in range(1000):
            pure, heap, resource, goal = self.random_case(rng)
            ctx = functools.partial(ProofContext, pure, heap, resource)
            label = f"case {case}: {ctx()} |- {goal}"
            assert self.branches(Prover(), ctx()) == self.branches(ReferenceProver(), ctx()), label
            got = self.matches(Prover(), ctx(), goal)
            assert got == self.matches(ReferenceProver(), ctx(), goal), label
            res = Prover().prove(ctx(), Leaf((goal,)))
            assert self.outcome(res) == self.outcome(ReferenceProver().prove(ctx(), Leaf((goal,)))), label
            seen["ok" if res.ok else "failed"] += 1
            seen["matched"] += bool(got[0])
        assert min(seen.values()) >= 100, seen

    def test_agrees_when_resaturating_after_a_match(self):
        # match part of the heap, assume more atoms, then match the rest:
        # the second saturation starts from a context whose surviving atoms
        # are closed already, and must add exactly what a rescan adds
        rng = random.Random(12)
        seen = {"ok": 0, "failed": 0}
        for case in range(3000):
            pure, heap, resource, _ = self.random_case(rng)
            cells = [a for a in heap if isinstance(a, PointsTo)]
            first, hyp = self.clause_over(rng, cells), self.clause_over(rng, cells)
            second = self.random_case(rng)[3]
            goal = Star((first,), Wand((hyp,), Leaf((second,))))
            ctx = functools.partial(ProofContext, pure, heap, resource)
            res = Prover().prove(ctx(), goal)
            want = ReferenceProver().prove(ctx(), goal)
            assert self.outcome(res) == self.outcome(want), f"case {case}: {ctx()} |- {goal}"
            seen["ok" if res.ok else "failed"] += 1
        assert min(seen.values()) >= 500, seen
