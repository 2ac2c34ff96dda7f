"""End-to-end acceptance checks: published annotation tables, budgeted
execution, semantic soundness oracles, and solver cross-validation.

Each criterion prints a single PASS line when it holds; expected numbers
are exact rationals throughout (no float tolerances anywhere).
"""

import random
import time
from fractions import Fraction

import pytest

from amort import cli, vm
from amort.assertions import (
    NULL,
    Clause,
    IntLit,
    Leaf,
    ListSeg,
    PointsTo,
    TreeSeg,
    Var,
    parse_assertion,
)
from amort.bytecode import parse_program_file, validate
from amort.cli import CORPUS_DIR, analyze_program, classify_inputs, _sized_input
from amort.lp import LpProblem, lp_dump, solve
from amort.prover import Prover
from amort.vcgen import VerificationCondition, gen_program_vcs
from oracles import enumerate_vertices_oracle, goal_holds, model_check, traced_run

F = Fraction

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

# programs whose published bound reads "length/size of the input": one
# unit per element, nothing extra
PER_ELEMENT = (
    "iterate_list",
    "iterate_recursive",
    "copy_list",
    "reverse",
    "merge_inner",
    "tree_traverse",
    "tree_copy",
    "tree_mirror",
)

_PROGRAMS: dict = {}
_REPORTS: dict = {}
_TIMES: dict = {}


def corpus(name):
    if name not in _PROGRAMS:
        prog = parse_program_file(CORPUS_DIR / f"{name}.amr")
        assert validate(prog) == []
        _PROGRAMS[name] = prog
    return _PROGRAMS[name]


def analyzed(name):
    """Analysis report for a corpus program, timed once and cached."""
    if name not in _REPORTS:
        t0 = time.perf_counter()
        _REPORTS[name] = analyze_program(corpus(name))
        _TIMES[name] = time.perf_counter() - t0
    return _REPORTS[name]


def passed(n, msg):
    print(f"criterion {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# 1-3: published annotation tables, exact


def test_criterion_01_frying_pan_table():
    report = analyzed("frying_pan")
    got = report.valuation
    want = {
        "x1": F(2), "x2": F(1), "x3": F(2),
        "a1": F(2), "a2": F(1), "a3": F(1), "a4": F(2),
        "b1": F(1), "b2": F(1), "b3": F(0), "b4": F(1),
        "c1": F(1), "c2": F(0), "c3": F(0), "c4": F(0),
        "p1": F(0), "p2": F(0), "p3": F(0),
    }
    assert got == want
    assert _TIMES["frying_pan"] < 1.0
    passed(1, f"frying-pan reversal table reproduced exactly in {_TIMES['frying_pan']:.3f}s")


def test_criterion_02_merge_inner_solution():
    report = analyzed("merge_inner")
    got = report.valuation
    assert got["x"] == 1 and got["y"] == 0
    assert got["o2"] == 1 and got["o4"] == 1
    assert got["o1"] == got["o3"] == got["o5"] == 0
    assert got["a0"] == 1
    assert got["i2"] == got["i3"] == got["i5"] == got["i6"] == 1
    assert got["i1"] == got["i4"] == got["i7"] == 0
    assert _TIMES["merge_inner"] < 1.0
    passed(2, f"merge pass infers x=1, y=0 and the published invariants in {_TIMES['merge_inner']:.3f}s")


def test_criterion_03_queue_annotations():
    got = analyzed("queue").valuation
    assert got["e"] == 2  # enqueue needs two units...
    assert got["d"] == 1  # ...dequeue one
    assert got["t"] == 1 and got["h"] == 0  # credit sits on the tail list
    passed(3, "queue infers enqueue 2 / dequeue 1 with tail elements carrying the credit")


# ---------------------------------------------------------------------------
# 4: the whole corpus, quickly


def test_criterion_04_corpus_table():
    t0 = time.perf_counter()
    for name in ANALYSABLE:
        _REPORTS.pop(name, None)
        _REPORTS[name] = analyze_program(corpus(name))
    elapsed = time.perf_counter() - t0
    for name in PER_ELEMENT:
        got = _REPORTS[name].valuation
        assert got["x"] == 1, name
        assert got["y"] == 0, name
    assert elapsed < 5.0, f"corpus analysis took {elapsed:.2f}s"
    passed(4, f"10 programs analysed in {elapsed:.2f}s; all length/size bounds are 1 per element")


# ---------------------------------------------------------------------------
# 5: inferred budgets hold empirically


def test_criterion_05_budgets_hold_at_all_sizes():
    skipped = set()  # sizes the precondition rules out
    for name in ANALYSABLE:
        prog = corpus(name)
        report = analyzed(name)
        entry = prog.proc(prog.entry)
        plan = classify_inputs(entry)
        for n in range(21):
            inputs = _sized_input(plan, entry, n, report.valuation)
            if inputs is None:
                skipped.add((name, n))
                continue
            args, heap, next_addr, budget = inputs
            result = vm.run(prog, args, budget, heap=heap, next_addr=next_addr)
            assert isinstance(result.outcome, vm.Halt), (name, n, result.kind)
            assert result.consumed <= budget, (name, n)
            if name == "iterate_list" and n >= 1:
                assert result.consumed == budget == n
    assert skipped == {("merge_inner", 0)}
    passed(5, "no budget violations at sizes 0..20; iterate_list is tight for n >= 1")


# ---------------------------------------------------------------------------
# 6: resource acquisition stays within grants


def test_criterion_06_acquisition_traces():
    prog = corpus("block_booking")
    for script in (("grant",), ("deny",), ("grant", "deny")):
        policy = vm.parse_policy(",".join(script))
        result, states = traced_run(prog, [], F(0), policy=policy)
        assert isinstance(result.outcome, vm.Halt)
        for state in states:
            assert state.consumed <= state.total_allowed, script
        heap = result.outcome.heap
        perms = [v for (addr, field), v in sorted(heap.items(), key=lambda kv: kv[0][0].index)
                 if field == "permission"]
        expected = [1 if script[i % len(script)] == "grant" else 0 for i in range(3)]
        assert perms == expected, script
        # one send per granted number and none besides
        assert result.consumed == sum(expected), script
        assert result.total == sum(expected), script
    passed(6, "consumed <= total at every step under all three policies; sends match grants")


# ---------------------------------------------------------------------------
# 7: prover vs ground semantics
#
# For every corpus VC we enumerate small concrete models of the antecedent
# (at most 6 heap cells, resource at most 6) under the inferred valuation
# and three perturbed feasible valuations, and require the consequent goal
# to hold in each.  The model builder below is deliberately independent of
# the prover: it constructs candidate heaps bottom-up from the clause atoms.


class FakeAddr:
    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"a{self.index}"


MAX_CELLS = 6
MAX_RES = F(6)


def _known(term, env):
    if isinstance(term, IntLit):
        return True, term.value
    if term == NULL:
        return True, None
    if isinstance(term, Var) and term.name in env:
        return True, env[term.name]
    return False, None


def clause_models(clause: Clause, valuation):
    """Concrete (env, heap, resource) triples satisfying one clause."""
    out = []

    def fresh(i):
        return FakeAddr(900 + i)

    def finish(env, heap, need):
        base = clause.resource.eval(valuation)
        res = need + base
        if res > MAX_RES:
            return
        # keep only fully-allocated models: every address mentioned must own
        # cells, as in real machine states, where addresses come from `new`.
        # (the bounded satisfaction check searches witnesses among cell
        # owners, so a dangling address could never be found for an
        # existential even when it is semantically fine)
        owners = {a for (a, _) in heap}
        for v in list(env.values()) + list(heap.values()):
            if isinstance(v, FakeAddr) and v not in owners:
                return
        out.append((env, heap, res))

    def pures(i, env, heap, need):
        if i == len(clause.pure):
            finish(env, heap, need)
            return
        a = clause.pure[i]
        lk, lv = _known(a.lhs, env)
        rk, rv = _known(a.rhs, env)
        if lk and rk:
            if (lv == rv) == (a.op == "="):
                pures(i + 1, env, heap, need)
        elif a.op == "=":
            if lk:
                pures(i + 1, {**env, a.rhs.name: lv}, heap, need)
            elif rk:
                pures(i + 1, {**env, a.lhs.name: rv}, heap, need)
            else:
                pures(i + 1, {**env, a.lhs.name: None, a.rhs.name: None}, heap, need)
        else:  # disequality with an unknown side: pick something different
            known_v = lv if lk else rv
            unknown = a.rhs.name if lk else a.lhs.name
            for v in (None, 0, FakeAddr(990)):
                if v != known_v:
                    pures(i + 1, {**env, unknown: v}, heap, need)
                    break

    def go(atoms, env, heap, nf, need):
        if len(heap) > MAX_CELLS or need > MAX_RES:
            return
        if not atoms:
            pures(0, env, heap, need)
            return
        atom, rest = atoms[0], atoms[1:]
        if isinstance(atom, PointsTo):
            ok_o, o = _known(atom.obj, env)
            if not ok_o:
                o = fresh(nf)
                env = {**env, atom.obj.name: o}
                nf += 1
            if not isinstance(o, FakeAddr) or (o, atom.field) in heap:
                return
            ok_v, v = _known(atom.value, env)
            choices = [(env, v, nf)]
            if not ok_v:
                a = fresh(nf)
                choices = [
                    ({**env, atom.value.name: None}, None, nf),
                    ({**env, atom.value.name: a}, a, nf + 1),
                ]
            for env2, vv, nf2 in choices:
                go(rest, env2, {**heap, (o, atom.field): vv}, nf2, need)
        elif isinstance(atom, ListSeg):
            per = atom.ann.eval(valuation)
            ok_s, s = _known(atom.start, env)
            ok_e, e = _known(atom.end, env)
            # empty segment: the endpoints coincide
            if ok_s and ok_e:
                if s == e:
                    go(rest, env, heap, nf, need)
            elif ok_s:
                go(rest, {**env, atom.end.name: s}, heap, nf, need)
            elif ok_e:
                go(rest, {**env, atom.start.name: e}, heap, nf, need)
            else:
                go(rest, {**env, atom.start.name: None, atom.end.name: None}, heap, nf, need)
            # chains of one or two nodes
            for length in (1, 2):
                env2, nf2, nodes = dict(env), nf, []
                if ok_s:
                    if not isinstance(s, FakeAddr):
                        break
                    nodes.append(s)
                else:
                    a = fresh(nf2)
                    nf2 += 1
                    env2[atom.start.name] = a
                    nodes.append(a)
                while len(nodes) < length:
                    a = fresh(nf2)
                    nf2 += 1
                    nodes.append(a)
                if ok_e:
                    ends = [(env2, e, nf2)]
                else:
                    a = fresh(nf2)
                    ends = [
                        ({**env2, atom.end.name: None}, None, nf2),
                        ({**env2, atom.end.name: a}, a, nf2 + 1),
                    ]
                for env3, ee, nf3 in ends:
                    if ee in nodes:
                        continue
                    cells, good = {}, True
                    for i, nd in enumerate(nodes):
                        nxt = nodes[i + 1] if i + 1 < len(nodes) else ee
                        for cell, v in (((nd, "next"), nxt), ((nd, "data"), 0)):
                            if cell in heap or cell in cells:
                                good = False
                            cells[cell] = v
                    if good:
                        go(rest, env3, {**heap, **cells}, nf3, need + per * length)
        elif isinstance(atom, TreeSeg):
            per = atom.ann.eval(valuation)
            ok_r, r = _known(atom.root, env)
            if ok_r:
                if r is None:
                    go(rest, env, heap, nf, need)
            else:
                go(rest, {**env, atom.root.name: None}, heap, nf, need)
            # one node, or a root with a single leaf child
            shapes = [
                {"left": None, "right": None},
                {"left": "child", "right": None},
                {"left": None, "right": "child"},
            ]
            for shape in shapes:
                env2, nf2 = dict(env), nf
                if ok_r:
                    root = r
                else:
                    root = fresh(nf2)
                    nf2 += 1
                    env2[atom.root.name] = root
                if not isinstance(root, FakeAddr):
                    continue
                child = None
                size = 1
                if "child" in shape.values():
                    child = fresh(nf2)
                    nf2 += 1
                    size = 2
                cells, good = {}, True
                kids = {k: (child if v == "child" else None) for k, v in shape.items()}
                for cell, v in (((root, "left"), kids["left"]), ((root, "right"), kids["right"])):
                    if cell in heap or cell in cells:
                        good = False
                    cells[cell] = v
                if child is not None:
                    for cell in ((child, "left"), (child, "right")):
                        if cell in heap or cell in cells:
                            good = False
                        cells[cell] = None
                if good:
                    go(rest, env2, {**heap, **cells}, nf2, need + per * size)
        else:  # pragma: no cover - no other atom kinds exist
            raise TypeError(atom)

    go(list(clause.heap), {}, {}, 0, F(0))
    return out


def antecedent_models(assertion, valuation):
    models = []
    for clause in assertion:
        models.extend(clause_models(clause, valuation))
    return models


def feasible(constraints, valuation):
    return all(c.lhs.eval(valuation) >= c.rhs.eval(valuation) for c in constraints)


def perturbed_valuations(report):
    """Three feasible non-optimal valuations derived from the optimum."""
    base = report.valuation
    candidates = [
        {k: 2 * v for k, v in base.items()},
        {k: 3 * v for k, v in base.items()},
        {k: v + 1 for k, v in base.items()},
        {k: v + 2 for k, v in base.items()},
        {k: 2 * v + 1 for k, v in base.items()},
        {k: 4 * v for k, v in base.items()},
        {k: 5 * v for k, v in base.items()},
    ]
    good = [c for c in candidates if feasible(report.constraints, c)]
    assert len(good) >= 3, "expected at least three feasible perturbations"
    return good[:3]


def test_criterion_07_prover_vs_model_check():
    pool = [FakeAddr(800), FakeAddr(801), FakeAddr(802)]
    checked = 0
    for name in ANALYSABLE:
        prog = corpus(name)
        report = analyzed(name)
        valuations = [report.valuation] + perturbed_valuations(report)
        for vc in gen_program_vcs(prog):
            proc = prog.proc(vc.vc_id.split("@")[0])
            types = dict(zip(proc.local_names, proc.local_types))
            for valuation in valuations:
                for env, heap, res in antecedent_models(vc.antecedent, valuation):
                    # the builder must agree with the satisfaction relation
                    assert model_check(vc.antecedent, env, heap, res, valuation), (
                        vc.vc_id,
                        env,
                        heap,
                    )
                    full_env = dict(env)
                    for var, ty in types.items():
                        if var not in full_env:
                            full_env[var] = 2 if ty == "int" else None
                    assert goal_holds(
                        vc.consequent, full_env, heap, res, valuation, pool
                    ), f"counterexample for {name} {vc.vc_id}: env={env} heap={heap} res={res}"
                    checked += 1
    assert checked > 200  # the enumeration must actually bite
    passed(7, f"zero counterexamples across {checked} (VC, valuation, model) checks")


# ---------------------------------------------------------------------------
# 8: simplex vs brute-force vertex enumeration


def test_criterion_08_lp_oracle_agreement():
    def sparse(coeffs):  # drawn dense, so every seeded draw stays as it was
        return {j: c for j, c in enumerate(coeffs) if c}

    rng = random.Random(743902718)
    agreed = 0
    for trial in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        variables = tuple(f"v{i}" for i in range(n))
        rows = tuple(
            (tuple(F(rng.randint(-2, 3)) for _ in range(n)), F(rng.randint(-3, 4)))
            for _ in range(m)
        )
        objective = tuple(F(rng.randint(0, 3)) for _ in range(n))
        p = LpProblem(variables, tuple((sparse(c), b) for c, b in rows), sparse(objective))
        got = solve(p)
        want = enumerate_vertices_oracle(p)
        assert got.status == want.status, f"trial {trial}:\n{lp_dump(p)}"
        if got.status == "optimal":
            assert got.objective == want.objective, f"trial {trial}:\n{lp_dump(p)}"
        agreed += 1
    passed(8, f"simplex and vertex enumeration agree on {agreed} random instances")


# ---------------------------------------------------------------------------
# 9: the negatives fail for the right reasons


def test_criterion_09_negative_diagnostics(capsys):
    assert cli.main(["analyze", "leak_list"]) == cli.EXIT_PROOF
    err = capsys.readouterr().err
    assert "leftover heap" in err

    assert cli.main(["analyze", "no_budget", "--emit-constraints"]) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "0 >= 1" in captured.out
    assert "infeasible" in captured.err or "no valuation" in captured.err
    passed(9, "leak reported as leftover heap; missing budget reported as 0 >= 1 infeasibility")


# ---------------------------------------------------------------------------
# 10: the proof search always terminates


def _chain_vc(k, last_end):
    """k chained segments, all known non-empty, against one collapsed goal.

    Proving it requires absorbing/peeling/unfolding at every level, and the
    branch count grows exponentially with k.  A near miss fails in the
    first branch, so its search stops there.
    """
    pure = ", ".join(f"x{i} != null" for i in range(1, k + 1))
    segs = ", ".join(f"lseg($a{i}, x{i}, x{i+1})" for i in range(1, k))
    segs += f", lseg($a{k}, x{k}, {last_end})"
    antecedent = parse_assertion(f"{pure} ; {segs} ; 0")
    consequent = Leaf(parse_assertion("; lseg(0, x1, null) ; 0"))
    return VerificationCondition("adversarial", antecedent, consequent)


def test_criterion_10_prover_termination_guard():
    # provable: nine segments that really do concatenate to x1..null
    t0 = time.perf_counter()
    res = Prover().prove_vc(_chain_vc(9, "null"))
    proved_in = time.perf_counter() - t0
    assert proved_in < 10.0, f"took {proved_in:.1f}s"
    assert res.ok
    assert res.ticks == 3839  # the work the search does, on any machine
    assert res.branches == 256  # one per empty/non-empty choice of segments 2..9

    # near miss: the final endpoint is never known to be null, so the first
    # case branch already fails and the search stops there
    t0 = time.perf_counter()
    res = Prover().prove_vc(_chain_vc(8, "x9"))
    failed_in = time.perf_counter() - t0
    assert failed_in < 10.0, f"took {failed_in:.1f}s"
    assert not res.ok and res.failure is not None
    assert res.ticks == 11
    passed(10, f"deep chains: proved in {proved_in:.2f}s, near-miss rejected in {failed_in:.2f}s")


@pytest.mark.parametrize("k, ticks", [(10, 13), (20, 23), (30, 33)])
def test_chain_near_miss_stops_at_first_failing_branch(k, ticks):
    # the first branch has every segment empty and fails; the exponentially
    # many others are never built, so the work is linear in k
    res = Prover().prove_vc(_chain_vc(k, f"x{k + 1}"))
    assert not res.ok
    assert res.failure.message == "no match for lseg(0, x1, null) in heap []"
    assert (res.ticks, res.branches) == (ticks, 1)
