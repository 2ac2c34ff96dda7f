"""Assertion parsing, substitution, pure entailment, and the model oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amort.assertions import (
    NULL,
    AssertionParseError,
    Clause,
    Exists,
    IntLit,
    Leaf,
    ListSeg,
    PointsTo,
    PureAtom,
    PureContext,
    TreeSeg,
    Var,
    assertion_str,
    parse_assertion,
    subst_clause,
)
from amort.resources import ResourceExpr
from oracles import ReferencePureContext, model_check, subst_goal


class FakeAddr:
    """Stand-in for vm.Addr in oracle models (identity-compared)."""

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"a{self.index}"


def lseg(ann, s, e):
    return ListSeg(ann if isinstance(ann, ResourceExpr) else ResourceExpr.const(ann), s, e)


class TestParsing:
    def test_precondition_shape(self):
        a = parse_assertion("list != null ; lseg($x, list, null) ; $y")
        assert len(a) == 1
        c = a[0]
        assert c.pure == (PureAtom(Var("list"), "!=", NULL),)
        assert c.heap == (ListSeg(ResourceExpr.var("x"), Var("list"), NULL),)
        assert c.resource == ResourceExpr.var("y")

    def test_emp(self):
        a = parse_assertion("emp")
        assert a == (Clause(),)

    def test_emp_clause_in_disjunction(self):
        a = parse_assertion(r"emp \/ x = null ; ; 1")
        assert len(a) == 2 and a[0] == Clause()

    def test_exists_pan_clause(self):
        a = parse_assertion("exists k. ; pt(v1, next, k), lseg($x2, k, v1) ; $x3")
        (c,) = a
        assert c.exists == ("k",)
        assert c.heap[0] == PointsTo(Var("v1"), "next", Var("k"))
        assert c.heap[1] == ListSeg(ResourceExpr.var("x2"), Var("k"), Var("v1"))

    def test_tree_and_rational(self):
        (c,) = parse_assertion("; tree(1/2, t) ; 2*$a + 1")
        assert c.heap == (TreeSeg(ResourceExpr.const(Fraction(1, 2)), Var("t")),)
        assert c.resource == ResourceExpr.make(1, {"a": 2})

    def test_disjunction(self):
        a = parse_assertion(r"x = null ; ; 0 \/ x != null ; lseg(1, x, null) ; 0")
        assert len(a) == 2

    def test_int_literals_as_terms(self):
        (c,) = parse_assertion("flag = 1, z != -2 ; ; 0")
        assert c.pure[0] == PureAtom(Var("flag"), "=", IntLit(1))
        assert c.pure[1] == PureAtom(Var("z"), "!=", IntLit(-2))

    def test_resource_variable_under_quantifier(self):
        with pytest.raises(AssertionParseError, match="resource variable under quantifier"):
            parse_assertion("exists x. ; emp ; $x")
        with pytest.raises(AssertionParseError, match="resource variable under quantifier"):
            parse_assertion("exists q. ; lseg($q, a, null) ; 0")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "x = ; ; 0",
            "; pt(x, f) ; 0",
            "; lseg(x, y) ; 0",
            "x < y ; ; 0",
            "; emp ; -1",
            "; emp ; 0 extra",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(AssertionParseError):
            parse_assertion(bad)

    def test_round_trip(self):
        texts = [
            "emp",
            "list != null ; lseg($x, list, null) ; $y",
            r"x = null ; ; 0 \/ exists k. ; pt(x, next, k), tree($t, k) ; 1/2",
        ]
        for text in texts:
            a = parse_assertion(text)
            assert parse_assertion(assertion_str(a)) == a


class TestSubstitution:
    def test_simple(self):
        c = Clause(pure=(PureAtom(Var("x"), "=", Var("y")),))
        out = subst_clause(c, {"x": NULL})
        assert out.pure == (PureAtom(NULL, "=", Var("y")),)

    def test_bound_not_touched(self):
        c = Clause(exists=("x",), pure=(PureAtom(Var("x"), "=", Var("y")),))
        out = subst_clause(c, {"x": NULL})
        assert out == c

    def test_capture_avoided(self):
        c = Clause(exists=("x",), pure=(PureAtom(Var("x"), "=", Var("y")),))
        out = subst_clause(c, {"y": Var("x")})
        # the binder must be renamed; the free x stays
        assert out.exists != ("x",)
        fresh = out.exists[0]
        assert out.pure == (PureAtom(Var(fresh), "=", Var("x")),)

    def test_lseg_endpoint(self):
        c = Clause(heap=(lseg(ResourceExpr.var("y1"), Var("x"), Var("z")),))
        out = subst_clause(c, {"z": NULL})
        assert out.heap == (lseg(ResourceExpr.var("y1"), Var("x"), NULL),)

    def test_goal_binder_capture(self):
        g = Exists("x", Leaf((Clause(pure=(PureAtom(Var("x"), "=", Var("y")),)),)))
        out = subst_goal(g, {"y": Var("x")})
        assert isinstance(out, Exists)
        assert out.var != "x"


class TestPure:
    def test_transitivity(self):
        atoms = [PureAtom(Var("x"), "=", Var("y")), PureAtom(Var("y"), "=", Var("z"))]
        assert PureContext(atoms).entails(PureAtom(Var("x"), "=", Var("z")))

    def test_no_overclaim(self):
        assert not PureContext([PureAtom(Var("x"), "!=", NULL)]).entails(PureAtom(Var("x"), "=", NULL))
        assert not PureContext([]).entails(PureAtom(Var("x"), "=", Var("y")))

    def test_distinct_literals(self):
        assert PureContext([]).entails(PureAtom(IntLit(1), "!=", IntLit(2)))
        assert PureContext([]).entails(PureAtom(NULL, "!=", IntLit(0)))
        assert not PureContext([]).entails(PureAtom(IntLit(1), "!=", IntLit(1)))

    def test_substitutivity_into_diseq(self):
        atoms = [PureAtom(Var("x"), "!=", Var("y")), PureAtom(Var("y"), "=", Var("z"))]
        assert PureContext(atoms).entails(PureAtom(Var("x"), "!=", Var("z")))

    def test_contradiction(self):
        x, y = Var("x"), Var("y")
        assert PureContext([PureAtom(x, "=", y), PureAtom(x, "!=", y)]).contradictory()
        assert PureContext([PureAtom(x, "=", NULL), PureAtom(x, "!=", NULL)]).contradictory()
        assert not PureContext([PureAtom(x, "!=", y)]).contradictory()
        assert PureContext([PureAtom(x, "=", IntLit(1)), PureAtom(x, "=", IntLit(2))]).contradictory()

    def test_ex_falso(self):
        atoms = [PureAtom(Var("x"), "=", NULL), PureAtom(Var("x"), "!=", NULL)]
        assert PureContext(atoms).entails(PureAtom(Var("p"), "=", Var("q")))

    names = st.sampled_from(["x", "y", "z", "w"])

    @given(st.lists(st.tuples(names, names), max_size=6), names, names)
    def test_equalities_form_equivalence(self, pairs, a, b):
        atoms = [PureAtom(Var(l), "=", Var(r)) for l, r in pairs]
        # reflexive, symmetric
        assert PureContext(atoms).entails(PureAtom(Var(a), "=", Var(a)))
        if PureContext(atoms).entails(PureAtom(Var(a), "=", Var(b))):
            assert PureContext(atoms).entails(PureAtom(Var(b), "=", Var(a)))


TERM_POOL = (Var("x"), Var("y"), Var("z"), Var("w"), Var("v"), IntLit(0), IntLit(1), NULL)
pool_atoms = st.builds(
    PureAtom, st.sampled_from(TERM_POOL), st.sampled_from(("=", "!=")), st.sampled_from(TERM_POOL)
)


def assert_same_answers(pc, ref):
    assert pc.contradictory() == ref.contradictory()
    for t1 in TERM_POOL:
        for t2 in TERM_POOL:
            assert pc.equal(t1, t2) == ref.equal(t1, t2), (t1, t2)
            assert pc.unequal(t1, t2) == ref.unequal(t1, t2), (t1, t2)
            for op in ("=", "!="):
                atom = PureAtom(t1, op, t2)
                assert pc.entails(atom) == ref.entails(atom), atom


class TestIncrementalPure:
    """The indexed, incremental closure against the rescanning reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(pool_atoms, max_size=16), st.lists(pool_atoms, min_size=16, max_size=16))
    def test_agrees_with_reference_after_every_prefix(self, atoms, branch_atoms):
        pc = PureContext()
        for i, atom in enumerate(atoms):
            pc.add(atom)
            prefix = atoms[: i + 1]
            # a copy grown by one more atom answers for the longer prefix and
            # leaves the original answering for its own
            branch = pc.copy()
            branch.add(branch_atoms[i])
            assert_same_answers(branch, ReferencePureContext(prefix + [branch_atoms[i]]))
            assert_same_answers(pc, ReferencePureContext(prefix))

    def test_merging_classes_carries_their_disequalities(self):
        x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
        pc = PureContext([PureAtom(x, "!=", y), PureAtom(z, "!=", w)])
        pc.add(PureAtom(y, "=", z))
        assert pc.unequal(x, z) and pc.unequal(y, w) and not pc.unequal(x, w)
        assert not pc.contradictory()
        pc.add(PureAtom(x, "=", w))
        assert pc.unequal(z, w) and pc.unequal(x, y)
        pc.add(PureAtom(w, "=", y))
        assert pc.contradictory()


class TestModelCheck:
    def two_cell_list(self):
        a1, a2 = FakeAddr(1), FakeAddr(2)
        heap = {
            (a1, "data"): 10,
            (a1, "next"): a2,
            (a2, "data"): 20,
            (a2, "next"): None,
        }
        return a1, heap

    def test_lseg_needs_resource(self):
        a1, heap = self.two_cell_list()
        assertion = parse_assertion("; lseg(1, x, null) ; 0")
        assert model_check(assertion, {"x": a1}, heap, Fraction(2))
        assert not model_check(assertion, {"x": a1}, heap, Fraction(1))

    def test_emp_on_empty(self):
        assertion = parse_assertion("emp")
        assert model_check(assertion, {}, {}, Fraction(0))

    def test_points_to_exact_cover(self):
        a1, heap = self.two_cell_list()
        # naming only one cell leaves the rest uncovered -> false
        assertion = parse_assertion("; pt(x, data, 10) ; 0")
        assert not model_check(assertion, {"x": a1}, heap, Fraction(9))
        only = {(a1, "data"): 10}
        assert model_check(assertion, {"x": a1}, only, Fraction(0))

    def test_existential_finds_midpoint(self):
        a1, heap = self.two_cell_list()
        assertion = parse_assertion("exists m. ; pt(x, data, 10), pt(x, next, m), lseg(0, m, null) ; 0")
        assert model_check(assertion, {"x": a1}, heap, Fraction(0))

    def test_resource_upward_closed(self):
        a1, heap = self.two_cell_list()
        assertion = parse_assertion("; lseg(1, x, null) ; 0")
        for extra in range(3):
            assert model_check(assertion, {"x": a1}, heap, Fraction(2 + extra))

    def test_metavariable_valuation(self):
        a1, heap = self.two_cell_list()
        assertion = parse_assertion("; lseg($u, x, null) ; $v")
        ok = model_check(assertion, {"x": a1}, heap, Fraction(5), {"u": Fraction(2), "v": Fraction(1)})
        assert ok  # 2*2 + 1 = 5
        assert not model_check(
            assertion, {"x": a1}, heap, Fraction(4), {"u": Fraction(2), "v": Fraction(1)}
        )

    def test_tree(self):
        r, l1, l2 = FakeAddr(1), FakeAddr(2), FakeAddr(3)
        heap = {
            (r, "left"): l1,
            (r, "right"): l2,
            (l1, "left"): None,
            (l1, "right"): None,
            (l2, "left"): None,
            (l2, "right"): None,
        }
        assertion = parse_assertion("; tree(1, t) ; 0")
        assert model_check(assertion, {"t": r}, heap, Fraction(3))
        assert not model_check(assertion, {"t": r}, heap, Fraction(2))

    def test_disjunction_picks_branch(self):
        assertion = parse_assertion(r"x != null ; lseg(1, x, null) ; 0 \/ x = null ; ; 0")
        assert model_check(assertion, {"x": None}, {}, Fraction(0))

    def test_cyclic_segment(self):
        # one-node cycle: the non-empty unrolling of lseg(v, v) covers it
        v = FakeAddr(7)
        heap = {(v, "data"): 0, (v, "next"): v}
        assertion = parse_assertion("; lseg(1, v, v) ; 0")
        assert model_check(assertion, {"v": v}, heap, Fraction(1))
        # the empty reading leaves the cells uncovered, and the non-empty
        # one needs a unit of resource, so r = 0 fails
        assert not model_check(assertion, {"v": v}, heap, Fraction(0))
        full = parse_assertion("; pt(v, next, v), pt(v, data, 0) ; 0")
        assert model_check(full, {"v": v}, heap, Fraction(0))
