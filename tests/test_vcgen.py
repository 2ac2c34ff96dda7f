"""Weakest-precondition generation over the instruction graph."""

import pytest

from amort.assertions import (
    NULL,
    And,
    Clause,
    Exists,
    Forall,
    Implies,
    IntLit,
    Leaf,
    PureAtom,
    Star,
    Var,
    Wand,
    parse_assertion,
)
from amort.bytecode import FieldDescriptor, Instr, Procedure, parse_program, validate
from amort.prover import Prover
from amort.resources import ResourceExpr
from amort.vcgen import VcgenError, _instruction_wlp, field_types, gen_program_vcs, gen_vcs

DONE = Leaf((Clause(),))
LIST_DESC = FieldDescriptor((("data", "int"), ("next", "ref")))


def wlp(ins, succ, post=(Clause(),), procs=None, stack=(), locals_=None, operand_types=()):
    """Single-instruction wlp against fixed successor goals, at offset 0 of a
    parameterless procedure whose postcondition is `post`."""
    counter = [0]

    # dotted names cannot clash with source-level identifiers
    def fresh(base: str) -> str:
        counter[0] += 1
        return f"{base}.{counter[0]}"

    def lookup(j: int, _stack, _locals):
        if j not in succ:
            raise VcgenError(f"missing successor goal for offset {j}")
        return succ[j]

    proc = Procedure("", (), (), (ins,), postcondition=post)
    return _instruction_wlp(
        ins, 0, lookup, tuple(stack), dict(locals_ or {}), fresh, procs or {}, proc, operand_types
    )


# ---------------------------------------------------------------------------
# single-instruction rules


class TestInstructionRules:
    def test_load_uninitialised_rejected(self):
        with pytest.raises(VcgenError, match="uninitialised"):
            wlp(Instr("load", slot=3), {1: DONE})

    def test_ifnull_splits_on_nullness(self):
        a = Var("a")
        g = wlp(Instr("ifnull", target=9), {1: DONE, 9: DONE}, stack=(a,))
        assert isinstance(g, And)
        fall, taken = g.left, g.right
        assert isinstance(fall, Implies) and fall.cond == PureAtom(a, "!=", NULL)
        assert isinstance(taken, Implies) and taken.cond == PureAtom(a, "=", NULL)

    def test_ref_equality_compare_is_interpreted(self):
        a, b = Var("a"), Var("b")
        g = wlp(
            Instr("binarycmp", cmp="ne", target=5),
            {1: DONE, 5: DONE},
            stack=(a, b),
            operand_types=("ref", "ref"),
        )
        assert isinstance(g, And)
        assert isinstance(g.left, Implies) and g.left.cond == PureAtom(a, "=", b)
        assert isinstance(g.right, Implies) and g.right.cond == PureAtom(a, "!=", b)

    def test_int_compare_explores_both_branches(self):
        g = wlp(
            Instr("binarycmp", cmp="lt", target=5),
            {1: DONE, 5: DONE},
            stack=(Var("a"), Var("b")),
            operand_types=("int", "int"),
        )
        assert isinstance(g, And)
        assert g.left is DONE and g.right is DONE

    def test_ibinop_havocs_result(self):
        g = wlp(Instr("ibinop", alu="add"), {1: DONE}, stack=(IntLit(1), Var("n")))
        assert isinstance(g, Forall)

    def test_getfield_reads_through_a_wand(self):
        a = Var("a")
        g = wlp(Instr("getfield", field="next"), {1: DONE}, stack=(a,))
        assert isinstance(g, Exists)
        body = g.rest
        assert isinstance(body, Star)
        (cell,) = body.parts[0].heap
        assert cell.obj == a and cell.field == "next"
        assert isinstance(body.rest, Wand)

    def test_putfield_swaps_the_cell_value(self):
        a, v = Var("a"), Var("v")
        g = wlp(Instr("putfield", field="next"), {1: DONE}, stack=(a, v))
        assert isinstance(g, Star)
        # old cell with existential contents is given up...
        old = g.parts[0]
        assert old.exists and old.heap[0].obj == a
        # ...and the successor goal is guarded by the updated cell
        assert isinstance(g.rest, Wand)
        new_cell = g.rest.parts[0].heap[0]
        assert new_cell.value == v

    def test_new_grants_default_cells(self):
        g = wlp(Instr("new", desc=LIST_DESC), {1: DONE})
        assert isinstance(g, Forall)
        assert isinstance(g.rest, Wand)
        cells = g.rest.parts[0].heap
        assert [(c.field, c.value) for c in cells] == [("data", IntLit(0)), ("next", NULL)]

    def test_free_demands_the_cells_back(self):
        a = Var("a")
        g = wlp(Instr("free", desc=LIST_DESC), {1: DONE}, stack=(a,))
        assert isinstance(g, Star)
        clause = g.parts[0]
        assert {c.field for c in clause.heap} == {"data", "next"}
        assert len(clause.exists) == 2

    def test_consume_charges_a_literal(self):
        g = wlp(Instr("consume", amount=2), {1: DONE})
        assert isinstance(g, Star)
        assert g.parts[0].resource == ResourceExpr.const(2)

    @pytest.mark.parametrize("op", ["consume_dyn", "acquire"])
    def test_dynamic_resource_ops_rejected(self, op):
        with pytest.raises(VcgenError, match="not supported by the analysis"):
            wlp(Instr(op), {1: DONE})

    def test_call_frames_pre_and_post(self):
        walk = Procedure(
            "walk",
            params=(("l", "ref"),),
            local_decls=(),
            code=(),
            precondition=parse_assertion("; lseg($a, l, null) ; 0"),
            postcondition=parse_assertion("; lseg($a, l, ret) ; 0"),
        )
        g = wlp(Instr("call", callee="walk"), {1: DONE}, procs={"walk": walk}, stack=(Var("p"),))
        assert isinstance(g, Star)
        pre_seg = g.parts[0].heap[0]
        assert pre_seg.start == Var("p")  # param bound to the argument
        assert isinstance(g.rest, Forall)  # fresh return value
        assert isinstance(g.rest.rest, Wand)

    def test_call_unknown_procedure_rejected(self):
        with pytest.raises(VcgenError, match="unknown procedure"):
            wlp(Instr("call", callee="nope"), {1: DONE}, stack=(Var("p"),))

    def test_return_substitutes_ret(self):
        post = parse_assertion("; lseg(0, ret, null) ; 0")
        g = wlp(Instr("return"), {}, post=post, stack=(Var("p"),))
        assert isinstance(g, Leaf)
        assert g.parts[0].heap[0].start == Var("p")

    def test_stack_underflow_is_reported(self):
        with pytest.raises(VcgenError, match="underflow"):
            wlp(Instr("pop"), {1: DONE})


# ---------------------------------------------------------------------------
# whole procedures


WALK = """
proc walk(l:ref) locals cur:ref {
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

entry walk
"""


class TestGenVcs:
    def test_one_vc_per_annotation_plus_entry(self):
        prog = parse_program(WALK)
        vcs = gen_program_vcs(prog)
        assert [vc.vc_id for vc in vcs] == ["walk@2", "walk@entry"]

    def test_entry_vc_antecedent_is_the_precondition(self):
        prog = parse_program(WALK)
        entry = gen_program_vcs(prog)[-1]
        assert entry.antecedent == prog.proc("walk").precondition

    def test_vcs_prove_and_solve(self):
        prog = parse_program(WALK)
        assert validate(prog) == []
        cons = []
        for vc in gen_program_vcs(prog):
            res = Prover().prove_vc(vc)
            assert res.ok, vc.vc_id
            cons.extend(res.constraints)
        assert cons  # at least the loop payment shows up

    def test_unreachable_code_warns_and_is_skipped(self):
        src = WALK.replace("10: return", "10: return\n  11: pop")
        prog = parse_program(src)
        warnings: list = []
        procs = {p.name: p for p in prog.procedures}
        vcs = gen_vcs(prog.proc("walk"), procs, field_types(prog), warnings)
        assert any("unreachable" in w for w in warnings)
        assert [vc.vc_id for vc in vcs] == ["walk@2", "walk@entry"]

    def test_field_types_collects_descriptors(self):
        prog = parse_program(
            """
proc mk() locals n:ref {
  requires: ; ; 0
  ensures: ; ; 0
  0: new {data:int, next:ref}
  1: free {data:int, next:ref}
  2: iconst 0
  3: return
}
entry mk
"""
        )
        assert field_types(prog) == {"data": "int", "next": "ref"}

    def test_unreachable_instruction_warning_text(self):
        prog = parse_program(
            """
proc f() {
  requires: ; ; 0
  ensures: ; ; 0
  0: goto 2
  1: pop
  2: iconst 0
  3: return
}
entry f
"""
        )
        warnings: list = []
        vcs = gen_program_vcs(prog, warnings)
        assert warnings == ["f@1: unreachable instruction (no VC generated)"]
        assert [vc.vc_id for vc in vcs] == ["f@entry"]

    def test_back_edge_into_invariant_uses_the_annotation(self):
        # the body VC's consequent must reference the invariant, not an
        # unrolled wlp: witnessed by the proof emitting the peel payment
        prog = parse_program(WALK)
        body_vc = gen_program_vcs(prog)[0]
        res = Prover().prove_vc(body_vc)
        assert res.ok
        assert any("$a" in str(c) for c in res.constraints)


class TestStackLayout:
    """Diagnostics of the forward stack typing, on API-built procedures."""

    @pytest.mark.parametrize(
        "code, message",
        [
            ((Instr("iconst", value=0), Instr("bogus")), "f@1: unknown instruction bogus"),
            (
                (Instr("iconst", value=0), Instr("unarycmp", cmp="eq", target=7), Instr("return")),
                "f@1: control leaves the procedure",
            ),
            ((Instr("iconst", value=0),), "f@0: control leaves the procedure"),
            # the operands are checked before the successors
            ((Instr("ifnull", target=9),), "f@0: symbolic stack underflow"),
            ((Instr("return"),), "f@0: symbolic stack underflow"),
            # an unknown callee pops nothing here; its wlp rule rejects it
            (
                (Instr("call", callee="nope"), Instr("return")),
                "f@0: call to unknown procedure 'nope'",
            ),
        ],
        ids=["unknown-op", "branch-past-end", "fall-past-end", "underflow-first", "return", "call"],
    )
    def test_diagnostic(self, code, message):
        with pytest.raises(VcgenError) as exc:
            gen_vcs(Procedure("f", (), (), code), {})
        assert str(exc.value) == message


class TestProgramLevel:
    def test_missing_invariant_is_a_diagnostic(self):
        src = WALK.replace("  invariant 2: ; lseg($a, l, cur), lseg($b, cur, null) ; $c\n", "")
        prog = parse_program(src)
        assert any("invariant" in d for d in validate(prog))

    def test_fresh_names_cannot_collide_with_source(self):
        # generated names are dotted (v.1, n.2, ...) which the surface
        # grammar cannot produce
        prog = parse_program(WALK)
        vcs = gen_program_vcs(prog)
        text = "".join(str(vc) for vc in vcs)
        assert ".1" in text or ".2" in text
