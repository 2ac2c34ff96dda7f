"""Interpreter semantics: rule-level unit tests and whole-run behaviour."""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from amort import cli, vm
from amort.bytecode import (
    FieldDescriptor,
    Instr,
    Procedure,
    Program,
    parse_program,
    parse_program_file,
)
from amort.cli import CORPUS_DIR, analyze_program, classify_inputs, _sized_input
from amort.resources import ZERO
from amort.vm import (
    ALWAYS_DENY,
    ALWAYS_GRANT,
    AcquisitionPolicy,
    Addr,
    BudgetViolation,
    FuelExhausted,
    Halt,
    Stuck,
    VmError,
    _StuckSignal,
    parse_policy,
    run,
)
from oracles import reference_run, snapshot, traced_run

PAIR = FieldDescriptor((("data", "int"), ("next", "ref")))


def apply_rule(ins, stack=(), locals_=None, heap=None, next_addr=0, grant=False):
    """Apply the shipped rule for `ins`, as the shipped decoder pairs them,
    to a one-frame machine with total 0.

    `stack` is given top first, as in the returned snapshot; the frame is
    its `frames[0]`, and `total_allowed` is what `acquire` was granted.
    Returns (snapshot, the requests `acquire` made).  The rule's outcome is
    dropped: a budget violation against total 0 is not these tests' concern.
    """
    requests = []

    def decide(_i, request):
        requests.append(request)
        return grant

    scale = vm._scale(ZERO, [ins])
    rule, operand = vm._decode(ins, {}, scale)
    f = ["f", [], list(reversed(stack)), dict(locals_ or {}), 0]
    m = vm._Machine(AcquisitionPolicy(decide), dict(heap or {}), [f], 0, 0, scale, next_addr, 0)
    _, _, stack_, locals_, pc = f
    pc = rule(m, stack_, locals_, operand, pc)
    if pc is not None:  # a call, return or overdraw saved its own
        f[4] = pc
    return snapshot(m), requests


def step_frame(ins, stack=(), locals_=None):
    """The frame after one intra-frame rule."""
    state, _ = apply_rule(ins, stack, locals_)
    return state.frames[0]


class TestStepFrame:
    def test_iconst_pushes(self):
        f = step_frame(Instr("iconst", value=5), stack=[7])
        assert f.stack == (5, 7)
        assert f.pc == 1

    def test_ifnull_taken_pops(self):
        f = step_frame(Instr("ifnull", target=9), stack=[None, 3])
        assert f.pc == 9
        assert f.stack == (3,)

    def test_ifnull_not_taken(self):
        f = step_frame(Instr("ifnull", target=9), stack=[Addr(1)])
        assert f.pc == 1
        assert f.stack == ()

    def test_ibinop_type_mismatch_sticks(self):
        with pytest.raises(_StuckSignal, match="ibinop add on non-integer operands"):
            step_frame(Instr("ibinop", alu="add"), stack=[Addr(1), 1])

    def test_ibinop_operand_order(self):
        # top of stack is the left operand
        f = step_frame(Instr("ibinop", alu="sub"), stack=[7, 3])
        assert f.stack == (4,)

    def test_div_truncates_toward_zero(self):
        f = step_frame(Instr("ibinop", alu="div"), stack=[-7, 2])
        assert f.stack == (-3,)
        f = step_frame(Instr("ibinop", alu="rem"), stack=[-7, 2])
        assert f.stack == (-1,)

    def test_binarycmp_compares_top_to_second(self):
        f = step_frame(Instr("binarycmp", cmp="lt", target=5), stack=[1, 2])
        assert f.pc == 5  # 1 < 2: taken
        f = step_frame(Instr("binarycmp", cmp="lt", target=5), stack=[2, 1])
        assert f.pc == 1

    def test_binarycmp_refs_eq(self):
        a = Addr(3)
        f = step_frame(Instr("binarycmp", cmp="eq", target=5), stack=[a, a])
        assert f.pc == 5
        f = step_frame(Instr("binarycmp", cmp="ne", target=5), stack=[a, None])
        assert f.pc == 5

    def test_binarycmp_refs_order_sticks(self):
        with pytest.raises(_StuckSignal, match="binarycmp lt requires integer operands"):
            step_frame(Instr("binarycmp", cmp="lt", target=5), stack=[Addr(1), Addr(2)])

    def test_unarycmp_against_zero(self):
        f = step_frame(Instr("unarycmp", cmp="eq", target=4), stack=[0])
        assert f.pc == 4
        f = step_frame(Instr("unarycmp", cmp="ge", target=4), stack=[-2])
        assert f.pc == 1

    def test_load_uninitialised_sticks(self):
        with pytest.raises(_StuckSignal, match="uninitialised local 2"):
            step_frame(Instr("load", slot=2))

    def test_store_then_load(self):
        f = step_frame(Instr("store", slot=1), stack=[41])
        assert f.locals[1] == 41
        f2 = step_frame(Instr("load", slot=1), f.stack, f.locals)
        assert f2.stack == (41,)


class TestStepMut:
    def test_new_defaults_and_freshness(self):
        s, req = apply_rule(Instr("new", desc=PAIR))
        a = s.frames[0].stack[0]
        assert isinstance(a, Addr)
        assert s.heap == {(a, "data"): 0, (a, "next"): None}
        assert s.consumed == 0 and s.total_allowed == 0 and req == []
        assert s.next_addr == 1

    def test_putfield_requires_cell(self):
        a = Addr(0)
        heap = {(a, "data"): 0}
        s, _ = apply_rule(Instr("putfield", field="data"), stack=[a, 3], heap=heap, next_addr=1)
        assert s.heap[(a, "data")] == 3
        assert heap[(a, "data")] == 0  # input heap untouched
        with pytest.raises(_StuckSignal, match="cell absent"):
            apply_rule(Instr("putfield", field="next"), stack=[a, 3], heap=heap, next_addr=1)

    def test_getfield(self):
        a = Addr(0)
        heap = {(a, "next"): None}
        s, _ = apply_rule(Instr("getfield", field="next"), stack=[a], heap=heap, next_addr=1)
        assert s.frames[0].stack == (None,)

    def test_free_removes_descriptor_fields(self):
        a = Addr(0)
        heap = {(a, "data"): 1, (a, "next"): None, (Addr(1), "data"): 2}
        s, _ = apply_rule(Instr("free", desc=PAIR), stack=[a], heap=heap, next_addr=2)
        assert s.heap == {(Addr(1), "data"): 2}

    def test_free_partial_sticks(self):
        a = Addr(0)
        with pytest.raises(_StuckSignal, match="absent"):
            apply_rule(Instr("free", desc=PAIR), stack=[a], heap={(a, "data"): 1}, next_addr=1)

    def test_consume_reports_amount(self):
        s, _ = apply_rule(Instr("consume", amount=Fraction(2)))
        assert s.consumed == 2 and s.total_allowed == 0

    def test_consume_dyn_clamps(self):
        s, _ = apply_rule(Instr("consume_dyn"), stack=[-4])
        assert s.consumed == 0
        s, _ = apply_rule(Instr("consume_dyn"), stack=[4])
        assert s.consumed == 4

    def test_acquire_deny_pushes_zero(self):
        s, req = apply_rule(Instr("acquire"), stack=[4], grant=False)
        assert s.frames[0].stack == (0,)
        assert (s.consumed, s.total_allowed, req) == (0, 0, [4])

    def test_acquire_grant_pushes_one(self):
        s, req = apply_rule(Instr("acquire"), stack=[4], grant=True)
        assert s.frames[0].stack == (1,)
        assert (s.consumed, s.total_allowed, req) == (0, 4, [4])


def parse(src):
    return parse_program(src)


class TestRun:
    def test_empty_body_budget_zero(self):
        prog = parse("proc main() {\n 0: iconst 0\n 1: return\n}\nentry main")
        res = run(prog, [], budget=Fraction(0))
        assert isinstance(res.outcome, Halt)
        assert res.outcome.consumed == 0
        assert res.outcome.value == 0

    def test_return_halts_with_five_components(self):
        prog = parse("proc main() {\n 0: consume 3\n 1: iconst 7\n 2: return\n}\nentry main")
        res = run(prog, [], budget=Fraction(10))
        h = res.outcome
        assert isinstance(h, Halt)
        assert (h.consumed, h.total, h.value) == (3, 10, 7)

    def test_budget_violation_at_boundary(self):
        prog = parse("proc main() {\n 0: consume 2\n 1: iconst 0\n 2: return\n}\nentry main")
        ok = run(prog, [], budget=Fraction(2))
        assert isinstance(ok.outcome, Halt)
        bad = run(prog, [], budget=Fraction(19, 10))
        assert isinstance(bad.outcome, BudgetViolation)
        assert bad.outcome.pc == 0

    def test_fractional_budget(self):
        prog = parse("proc main() {\n 0: consume 1/2\n 1: consume 1/2\n 2: iconst 0\n 3: return\n}\nentry main")
        res = run(prog, [], budget=Fraction(1))
        assert isinstance(res.outcome, Halt)

    def test_fuel_exhaustion(self):
        prog = parse("proc main() {\n invariant 0: emp\n 0: goto 0\n}\nentry main")
        res = run(prog, [], budget=Fraction(0), fuel=50)
        assert isinstance(res.outcome, FuelExhausted)
        assert res.steps == 50

    def test_stuck_reports_location(self):
        prog = parse("proc main() {\n 0: aconst_null\n 1: getfield data\n 2: return\n}\nentry main")
        res = run(prog, [], budget=Fraction(0))
        assert isinstance(res.outcome, Stuck)
        assert res.outcome.pc == 1

    def test_div_by_zero_sticks(self):
        prog = parse(
            "proc main() {\n 0: iconst 0\n 1: iconst 1\n 2: ibinop div\n 3: return\n}\nentry main"
        )
        res = run(prog, [], budget=Fraction(0))
        # top of stack is 1, second is 0: computes 1 div 0
        assert isinstance(res.outcome, Stuck)
        assert "zero" in res.outcome.reason

    def test_call_passes_args_top_first(self):
        src = """
proc snd(a:int, b:int) {
  0: load b
  1: return
}
proc main() {
  0: iconst 20     # pushed first, becomes b
  1: iconst 10     # top of stack at call, becomes a
  2: call snd
  3: return
}
entry main
"""
        res = run(parse(src), [], budget=Fraction(0))
        assert isinstance(res.outcome, Halt)
        assert res.outcome.value == 20

    def test_return_resumes_caller(self):
        src = """
proc one() {
  0: iconst 1
  1: return
}
proc main() {
  0: call one
  1: iconst 2
  2: ibinop add
  3: return
}
entry main
"""
        res = run(parse(src), [], budget=Fraction(0))
        assert res.outcome.value == 3

    def test_entry_args_become_locals(self):
        src = "proc main(x:int, y:int) {\n 0: load y\n 1: return\n}\nentry main"
        res = run(parse(src), [4, 9], budget=Fraction(0))
        assert res.outcome.value == 9

    def test_arity_mismatch_raises(self):
        src = "proc main(x:int) {\n 0: load x\n 1: return\n}\nentry main"
        with pytest.raises(VmError):
            run(parse(src), [], budget=Fraction(0))


ACQUIRE_LOOP = """
proc main() {
  0: iconst 3
  1: acquire
  2: unarycmp eq 6     # denied: skip the consume
  3: consume 3
  4: iconst 1
  5: return
  6: iconst 0
  7: return
}
entry main
"""


class TestAcquire:
    def test_grant_raises_total(self):
        res = run(parse(ACQUIRE_LOOP), [], budget=Fraction(0), policy=ALWAYS_GRANT)
        assert isinstance(res.outcome, Halt)
        assert res.outcome.value == 1
        assert res.outcome.total == 3
        assert res.outcome.consumed == 3

    def test_deny_keeps_total(self):
        res = run(parse(ACQUIRE_LOOP), [], budget=Fraction(0), policy=ALWAYS_DENY)
        assert isinstance(res.outcome, Halt)
        assert res.outcome.value == 0
        assert res.outcome.total == 0
        assert res.outcome.consumed == 0

    def test_script_cycles(self):
        src = """
proc main() {
  0: iconst 1
  1: acquire
  2: iconst 1
  3: acquire
  4: iconst 1
  5: acquire
  6: ibinop add
  7: ibinop add
  8: return
}
entry main
"""
        res = run(parse(src), [], budget=Fraction(0), policy=parse_policy("grant,deny"))
        # grants: yes, no, yes (cycled) -> 1 + 0 + 1
        assert res.outcome.value == 2
        assert res.outcome.total == 2

    def test_seeded_policy_deterministic(self):
        r1 = run(parse(ACQUIRE_LOOP), [], budget=Fraction(0), policy=AcquisitionPolicy.seeded(11))
        r2 = run(parse(ACQUIRE_LOOP), [], budget=Fraction(0), policy=AcquisitionPolicy.seeded(11))
        assert r1.outcome == r2.outcome

    def test_policy_parse_rejects_garbage(self):
        with pytest.raises(VmError):
            parse_policy("grant,sometimes")


class TestProperties:
    def test_determinism(self):
        src = """
proc main(n:int) locals i:int {
  invariant 3: emp
  0: iconst 0
  1: store i
  2: goto 3
  3: load i
  4: load n
  5: binarycmp ge 12
  6: consume 1
  7: load i
  8: iconst 1
  9: ibinop add
  10: store i
  11: goto 3
  12: iconst 0
  13: return
}
entry main
"""
        prog = parse(src)
        (r0, states0), (r1, states1) = [traced_run(prog, [6], budget=Fraction(6)) for _ in range(2)]
        assert r0.outcome == r1.outcome
        assert r0.steps == r1.steps
        assert [s.consumed for s in states0] == [s.consumed for s in states1]

    def test_consumed_monotone_and_total_constant_without_acquire(self):
        src = "proc main() {\n 0: consume 1\n 1: consume 1/2\n 2: iconst 0\n 3: return\n}\nentry main"
        _, states = traced_run(parse(src), [], budget=Fraction(5))
        consumed = [s.consumed for s in states]
        assert consumed == sorted(consumed)
        assert {s.total_allowed for s in states} == {Fraction(5)}

    def test_frame_locality_of_mutation(self):
        # a putfield touches exactly the named cell
        src = """
proc main() locals a:ref, b:ref {
  0: new {data:int, next:ref}
  1: store a
  2: new {data:int, next:ref}
  3: store b
  4: iconst 5
  5: load a
  6: putfield data
  7: iconst 0
  8: return
}
entry main
"""
        res, states = traced_run(parse(src), [], budget=Fraction(0))
        assert isinstance(res.outcome, Halt)
        before = states[6].heap  # state just before the putfield
        after = states[7].heap
        changed = {c for c in before if before[c] != after.get(c, object())}
        a = states[6].frames[0].stack[0]
        assert changed == {(a, "data")}
        assert set(before) == set(after)

    def test_new_never_reuses_addresses(self):
        src = """
proc main() locals a:ref {
  0: new {data:int, next:ref}
  1: store a
  2: load a
  3: free {data:int, next:ref}
  4: new {data:int, next:ref}
  5: store a
  6: iconst 0
  7: return
}
entry main
"""
        _, states = traced_run(parse(src), [], budget=Fraction(0))
        first = states[1].frames[0].stack[0]
        final = states[6].frames[0].locals[0]
        assert first != final


# ---------------------------------------------------------------------------
# the in-place interpreter against the pure reference interpreter

ANALYSABLE = (
    "iterate_list",
    "iterate_recursive",
    "copy_list",
    "reverse",
    "queue",
    "frying_pan",
    "merge_inner",
    "tree_traverse",
    "tree_copy",
    "tree_mirror",
)
# the rejected programs, with the outcomes they reach at budgets 0, 1 and 100
REJECTED = {
    "block_booking": {"Halt"},  # spends only what `acquire` was granted
    "leak_list": {"Halt"},  # the leak is not a run-time fault
    "no_budget": {"Halt", "BudgetViolation"},
}
SIZES = range(21)


def test_corpus_is_covered():
    assert sorted(ANALYSABLE + tuple(REJECTED)) == sorted(p.stem for p in CORPUS_DIR.glob("*.amr"))


def sized_inputs(name, valuation=None):
    """(program, [(args, heap, next_addr, inferred budget) for each size]).

    A size the precondition rules out has None for its input.  Rejected programs have no inferred valuation: their inputs are built
    with every annotation variable at 0."""
    prog = parse_program_file(CORPUS_DIR / f"{name}.amr")
    entry = prog.proc(prog.entry)
    plan = classify_inputs(entry)
    if valuation is None:
        valuation = analyze_program(prog).valuation
    return prog, [_sized_input(plan, entry, n, valuation) for n in SIZES]


def policies(n):
    return (ALWAYS_DENY, ALWAYS_GRANT, AcquisitionPolicy.seeded(n))


def assert_same_states(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert (g.consumed, g.total_allowed) == (w.consumed, w.total_allowed), i
        assert (g.next_addr, g.acquire_count) == (w.next_addr, w.acquire_count), i
        assert g.heap == w.heap, i
        assert len(g.frames) == len(w.frames), i
        for gf, wf in zip(g.frames, w.frames):
            assert (gf.proc, gf.stack, gf.locals, gf.pc) == (wf.proc, wf.stack, wf.locals, wf.pc), i


def agree(prog, inputs, budget, policy, fuel=100_000):
    """Run with `run`, step by step on the shipped machine and on the
    reference; return the outcome's kind."""
    args, heap, next_addr, _ = inputs
    kw = dict(policy=policy, fuel=fuel, heap=heap, next_addr=next_addr)
    ref, ref_states = reference_run(prog, args, budget, **kw)
    plain = run(prog, args, budget, **kw)
    traced, states = traced_run(prog, args, budget, **kw)
    want = (ref.outcome, ref.steps, ref.consumed, ref.total)
    assert (plain.outcome, plain.steps, plain.consumed, plain.total) == want
    assert (traced.outcome, traced.steps, traced.consumed, traced.total) == want
    assert_same_states(states, ref_states)
    return ref.kind


class TestDifferential:
    @pytest.mark.parametrize("name", ANALYSABLE)
    def test_analysable_program(self, name):
        prog, sized = sized_inputs(name)
        kinds = {"inferred": set(), "half": set(), "fuel 37": set()}
        for n, inputs in zip(SIZES, sized):
            if inputs is None:
                continue
            budget = inputs[3]
            for policy in policies(n):
                kinds["inferred"].add(agree(prog, inputs, budget, policy))
                kinds["half"].add(agree(prog, inputs, budget / 2, policy))
                kinds["fuel 37"].add(agree(prog, inputs, budget, policy, fuel=37))
        assert kinds["inferred"] == {"Halt"}
        assert "BudgetViolation" in kinds["half"]
        assert "FuelExhausted" in kinds["fuel 37"]

    @pytest.mark.parametrize("name, expected", REJECTED.items())
    def test_rejected_program(self, name, expected):
        prog, sized = sized_inputs(name, valuation=defaultdict(Fraction))
        kinds = set()
        for n, inputs in zip(SIZES, sized):
            if inputs is None:
                continue
            for budget in (Fraction(0), Fraction(1), Fraction(100)):
                for policy in policies(n):
                    kinds.add(agree(prog, inputs, budget, policy))
        assert kinds == expected

    def test_ruled_out_sizes(self):
        skipped = set()
        for name in ANALYSABLE + tuple(REJECTED):
            valuation = defaultdict(Fraction) if name in REJECTED else None
            _, sized = sized_inputs(name, valuation)
            skipped |= {(name, n) for n, inputs in zip(SIZES, sized) if inputs is None}
        assert skipped == {("merge_inner", 0)}

    @pytest.mark.parametrize("name", ANALYSABLE + tuple(REJECTED))
    def test_single_steps_follow_the_reference(self, name):
        valuation = defaultdict(Fraction) if name in REJECTED else None
        prog, sized = sized_inputs(name, valuation)
        agree(prog, sized[3], Fraction(100), ALWAYS_GRANT)

    def test_stuck_runs_agree(self):
        src = """
proc main(l:ref) {
  0: load l
  1: getfield next
  2: getfield next
  3: getfield next
  4: return
}
entry main
"""
        prog = parse(src)
        _, sized = sized_inputs("iterate_list")
        kinds = {agree(prog, inputs, Fraction(0), ALWAYS_DENY) for inputs in sized[:5]}
        assert kinds == {"Stuck", "Halt"}


def rational_program(rng):
    """A seeded program whose budget arithmetic is rational: `consume p/q`
    with q in 1..6, `consume_dyn` of negative and positive integers, and
    `acquire` requests whose grant (1) is spent at once, in straight-line
    code, a counted loop and calls to a helper that charges its argument
    plus a fraction of its own."""
    code = []
    for _ in range(rng.randint(3, 9)):
        kind = rng.choice(("consume", "dyn", "acquire", "call", "loop"))
        if kind == "consume":
            code.append(f"consume {rng.randint(0, 7)}/{rng.randint(1, 6)}")
        elif kind == "dyn":
            code += [f"iconst {rng.randint(-3, 3)}", "consume_dyn"]
        elif kind == "acquire":
            code += [f"iconst {rng.randint(-2, 4)}", "acquire", "consume_dyn"]
        elif kind == "call":
            code += [f"iconst {rng.randint(-2, 3)}", "call helper", "pop"]
        else:
            # for i = k downto 1: consume p/q
            head = len(code) + 2
            code += [f"iconst {rng.randint(0, 4)}", "store 0", "load 0", f"unarycmp le {head + 8}"]
            code += [f"consume {rng.randint(1, 5)}/{rng.randint(1, 6)}"]
            code += ["iconst 1", "load 0", "ibinop sub", "store 0", f"goto {head}"]
    code += ["iconst 0", "return"]
    body = "\n".join(f"  {i}: {ins}" for i, ins in enumerate(code))
    helper = f"consume {rng.randint(0, 5)}/{rng.randint(1, 6)}"
    return parse(
        f"proc main() locals i:int {{\n{body}\n}}\n"
        f"proc helper(n:int) {{\n  0: load n\n  1: consume_dyn\n  2: {helper}\n"
        "  3: iconst 0\n  4: return\n}\nentry main"
    )


class TestRationalAccounting:
    """`run` counts in integer units of 1/scale; the reference adds
    `Fraction`s.  They must agree on every outcome, at every pc, to the
    exact amount."""

    def test_seeded_programs_agree_with_the_reference(self):
        rng = random.Random(20261018)
        kinds, exact_halts = defaultdict(int), 0
        for trial in range(80):
            prog = rational_program(rng)
            script = [rng.random() < 0.5 for _ in range(rng.randint(1, 4))]
            for policy in (AcquisitionPolicy.from_script(script), AcquisitionPolicy.seeded(trial)):
                # the budget that the run spends exactly, and just short of it
                roomy, _ = reference_run(prog, [], Fraction(10**6), policy=policy)
                need = roomy.consumed - (roomy.total - 10**6)
                budgets = [need] + [need - Fraction(1, q) for q in range(1, 7)]
                budgets += [Fraction(rng.randint(0, 24), q) for q in range(1, 7)]
                budgets.append(rng.randint(0, 6))
                for budget in budgets:
                    if budget < 0:
                        continue
                    ref, _ = reference_run(prog, [], budget, policy=policy)
                    got = run(prog, [], budget, policy=policy)
                    assert (got.outcome, got.steps) == (ref.outcome, ref.steps), (trial, budget)
                    for res in (got, ref):
                        amounts = (res.consumed, res.total)
                        if isinstance(res.outcome, (Halt, BudgetViolation)):
                            amounts += (res.outcome.consumed, res.outcome.total)
                        assert all(type(x) is Fraction for x in amounts), (trial, budget)
                    assert (got.consumed, got.total) == (ref.consumed, ref.total), (trial, budget)
                    kinds[got.kind] += 1
                    exact_halts += got.kind == "Halt" and got.consumed == got.total > 0
        assert set(kinds) == {"Halt", "BudgetViolation"}
        assert min(kinds.values()) > 200 and exact_halts > 50


class TestFuelSweep:
    """Every fuel value from 0 to one past the halting step: `run` and the
    stepped machine stop where the reference stops, mid-call and mid-loop
    too, and the stepped machine's states match the reference's."""

    @staticmethod
    def sweep(prog, inputs, budget, policy):
        args, heap, next_addr, _ = inputs
        full, _ = reference_run(prog, args, budget, policy=policy, heap=heap, next_addr=next_addr)
        assert full.kind == "Halt"
        for k in range(full.steps + 2):
            assert agree(prog, inputs, budget, policy, fuel=k) == (
                "FuelExhausted" if k < full.steps else "Halt"
            ), k

    @pytest.mark.parametrize("name", ["tree_mirror", "copy_list"])
    def test_corpus_program(self, name):
        prog, sized = sized_inputs(name)
        inputs = sized[3]
        self.sweep(prog, inputs, inputs[3], ALWAYS_DENY)

    # seeds whose program calls the helper, loops and acquires
    @pytest.mark.parametrize("seed", [2, 11, 17])
    def test_rational_program(self, seed):
        prog = rational_program(random.Random(seed))
        self.sweep(prog, ([], None, 0, None), Fraction(10**6), AcquisitionPolicy.seeded(seed))


class TestAddrValues:
    """Addresses are values: equal by index, hashed by index, and never
    equal to an integer or a tuple."""

    def test_equal_and_same_hash(self):
        a, b = Addr(3), Addr(3)
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert Addr(3) != Addr(4)
        assert len({Addr(3), Addr(3), Addr(4)}) == 2

    def test_fresh_address_finds_a_built_cell(self):
        _, sized = sized_inputs("iterate_list")
        _, heap, next_addr, _ = sized[5]
        assert next_addr >= 5
        for i in range(5):
            fresh = Addr(i)
            assert fresh is not cli._ADDRS[i]
            assert (fresh, "next") in heap
            assert heap[(fresh, "next")] == heap[(cli._ADDRS[i], "next")]

    def test_not_equal_to_int_or_tuple(self):
        assert Addr(3) != 3 and not (Addr(3) == 3)
        assert Addr(3) != (3,) and not (Addr(3) == (3,))
        assert 3 != Addr(3)

    def test_str_and_repr(self):
        assert str(Addr(3)) == "a3"
        assert repr(Addr(3)) == "Addr(index=3)"
        assert Addr(3).index == 3

    def test_arithmetic_and_integer_tests_on_an_address_stick(self):
        with pytest.raises(_StuckSignal, match="ibinop add on non-integer operands"):
            step_frame(Instr("ibinop", alu="add"), stack=[1, Addr(1)])
        with pytest.raises(_StuckSignal, match="unarycmp eq requires an integer operand"):
            step_frame(Instr("unarycmp", cmp="eq", target=4), stack=[Addr(0)])


class TestMalformedCode:
    """Code the validator rejects but `run` accepts: a pc past either end of
    the code, and instructions that no rule executes."""

    @staticmethod
    def program(*code):
        return Program((Procedure("main", (), (), code),), "main")

    @pytest.mark.parametrize(
        "code, pc",
        [
            ((Instr("iconst", value=1),), 1),  # falls off the end
            ((Instr("goto", target=99),), 99),
            ((Instr("iconst", value=0), Instr("goto", target=-1)), -1),  # no wrap-around
        ],
    )
    def test_pc_out_of_range_agrees_with_the_reference(self, code, pc):
        prog = self.program(*code)
        got = run(prog, [], Fraction(0))
        ref, _ = reference_run(prog, [], Fraction(0))
        assert (got.outcome, got.steps) == (ref.outcome, ref.steps)
        assert got.outcome == Stuck(f"pc {pc} out of range", "main", pc)

    def test_unknown_instruction_has_no_rule(self):
        got = run(self.program(Instr("bogus")), [], Fraction(0))
        assert got.outcome == Stuck("no rule for bogus", "main", 0)

    def test_call_to_absent_procedure_sticks_when_reached(self):
        unreached = self.program(
            Instr("iconst", value=0), Instr("return"), Instr("call", callee="ghost")
        )
        assert isinstance(run(unreached, [], Fraction(0)).outcome, Halt)
        got = run(self.program(Instr("call", callee="ghost")), [], Fraction(0))
        assert got.outcome == Stuck("call to absent procedure ghost", "main", 0)


class TestInputsUntouched:
    """`run` copies the caller's heap once and mutates only its copy; so
    does the machine `traced_run` steps."""

    @pytest.mark.parametrize("name", ["copy_list", "tree_mirror", "queue"])
    @pytest.mark.parametrize("stepped", [False, True])
    def test_heap_argument_survives_the_run(self, name, stepped):
        prog, sized = sized_inputs(name)
        args, heap, next_addr, budget = sized[8]
        before = dict(heap)
        if stepped:
            res, _ = traced_run(prog, args, budget, heap=heap, next_addr=next_addr)
        else:
            res = run(prog, args, budget, heap=heap, next_addr=next_addr)
        assert isinstance(res.outcome, Halt)
        assert res.outcome.heap != before  # the program did write, allocate or free
        assert heap == before
        assert res.outcome.heap is not heap


class TestBounds:
    SRC = "proc main() {\n 0: consume 1\n 1: iconst 0\n 2: return\n}\nentry main"

    def test_negative_fuel_raises(self):
        with pytest.raises(VmError, match="fuel"):
            run(parse(self.SRC), [], budget=Fraction(5), fuel=-5)

    def test_zero_fuel_is_exhausted_at_once(self):
        res = run(parse(self.SRC), [], budget=Fraction(5), fuel=0)
        assert isinstance(res.outcome, FuelExhausted)
        assert res.steps == 0

    def test_negative_budget_raises(self):
        with pytest.raises(VmError, match="budget"):
            run(parse(self.SRC), [], budget=Fraction(-1))
