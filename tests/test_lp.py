"""LP solver: simplex vs a brute-force vertex oracle, plus certificates."""

import random
from fractions import Fraction

import pytest

from amort.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    lp_dump,
    problem_from_constraints,
    solve,
    solve_lexicographic,
)
from amort.prover import Constraint
from amort.resources import ResourceExpr
from oracles import (
    LpSizeError,
    enumerate_vertices_oracle,
    pinned_lexicographic,
    reference_solve,
    verify_certificate,
)

F = Fraction
V = ResourceExpr.var
C = ResourceExpr.const


def sparse(coeffs):
    """The ``{column: nonzero coefficient}`` map of a coefficient list."""
    return {j: F(c) for j, c in enumerate(coeffs) if c}


def problem(variables, rows, objective):
    return LpProblem(
        tuple(variables),
        tuple((sparse(coeffs), F(b)) for coeffs, b in rows),
        sparse(objective),
    )


class TestSolve:
    def test_single_tight_constraint(self):
        p = problem(["y1"], [((1,), 2)], [1])
        s = solve(p)
        assert s.optimal and s.valuation["y1"] == 2 and s.objective == 2

    def test_cheaper_variable_saturates(self):
        p = problem(["y1", "y2"], [((1, 1), 4)], [1, 2])
        s = solve(p)
        assert s.optimal
        assert s.valuation == {"y1": F(4), "y2": F(0)}
        assert s.objective == 4

    def test_contradictory_bound_is_infeasible(self):
        p = problem([], [((), 1)], [])
        s = solve(p)
        assert s.status == INFEASIBLE

    def test_infeasible_comes_with_farkas_certificate(self):
        # y1 >= 3 and -y1 >= -1 cannot both hold
        p = problem(["y1"], [((1,), 3), ((-1,), -1)], [1])
        s = solve(p)
        assert s.status == INFEASIBLE
        assert s.certificate is not None
        assert verify_certificate(p, s.certificate)

    def test_unconstrained_variables_sit_at_zero(self):
        p = problem(["a", "b"], [((1, 0), 5)], [1, 1])
        s = solve(p)
        assert s.valuation == {"a": F(5), "b": F(0)}

    def test_rational_optimum_is_exact(self):
        # 3a >= 1 with unit cost: a = 1/3 exactly
        p = problem(["a"], [((3,), 1)], [1])
        s = solve(p)
        assert s.valuation["a"] == F(1, 3)

    def test_solution_satisfies_every_row(self):
        p = problem(
            ["a", "b", "c"],
            [((1, 1, 0), 2), ((0, 1, 1), 3), ((1, 0, 2), 4)],
            [2, 1, 1],
        )
        s = solve(p)
        assert s.optimal
        pt = [s.valuation[v] for v in p.variables]
        for coeffs, bound in p.rows:
            assert sum(c * pt[j] for j, c in coeffs.items()) >= bound

    def test_determinism(self):
        p = problem(["a", "b"], [((1, 1), 4), ((2, 1), 5)], [1, 1])
        assert solve(p) == solve(p)


class TestOracle:
    def test_matches_simplex_on_spec_examples(self):
        for p in (
            problem(["y1"], [((1,), 2)], [1]),
            problem(["y1", "y2"], [((1, 1), 4)], [1, 2]),
        ):
            assert enumerate_vertices_oracle(p).objective == solve(p).objective

    def test_reports_infeasible(self):
        p = problem(["y1"], [((1,), 3), ((-1,), -1)], [1])
        assert enumerate_vertices_oracle(p).status == INFEASIBLE

    def test_size_bound_enforced(self):
        p = problem(list("abcdefg"), [], [0] * 7)
        with pytest.raises(LpSizeError):
            enumerate_vertices_oracle(p)

    def test_agreement_on_random_instances(self):
        rng = random.Random(20240817)
        for trial in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8)
            rows = []
            for _ in range(m):
                coeffs = [F(rng.randint(-2, 3)) for _ in range(n)]
                rows.append((coeffs, F(rng.randint(-3, 4))))
            obj = [F(rng.randint(0, 3)) for _ in range(n)]
            p = problem([f"v{i}" for i in range(n)], rows, obj)
            got = solve(p)
            want = enumerate_vertices_oracle(p)
            assert got.status == want.status, f"trial {trial}: {lp_dump(p)}"
            if got.optimal:
                assert got.objective == want.objective, f"trial {trial}: {lp_dump(p)}"
            elif got.status == INFEASIBLE:
                assert verify_certificate(p, got.certificate), f"trial {trial}: {lp_dump(p)}"


class TestProblemBuilding:
    def test_normalises_prover_constraints(self):
        cons = [Constraint(V("x"), C(1)), Constraint(V("y") + C(2), V("x"))]
        p = problem_from_constraints(cons, ["x"])
        assert p.variables == ("x", "y")
        assert p.rows[0] == ({0: F(1)}, F(1))  # x >= 1
        assert p.rows[1] == ({0: F(-1), 1: F(1)}, F(-2))  # -x + y >= -2
        s = solve(p)
        assert s.optimal and s.valuation["x"] == 1

    def test_constraint_variables_outside_the_pool_get_columns(self):
        # every constraint variable is a column, even one missing from
        # `variables`: its coefficient is never dropped
        p = problem_from_constraints([Constraint(V("x"), C(1))], ["y"], ["y"])
        assert p.variables == ("y", "x")
        assert lp_dump(p) == "min: $y;\nc1: $x >= 1;\n"
        s = solve(p)
        assert s.optimal and s.valuation == {"y": F(0), "x": F(1)}

    def test_dump_is_stable_text(self):
        p = problem(["x", "y"], [((1, 1), 4)], [1, 2])
        assert lp_dump(p) == "min: $x + 2*$y;\nc1: $x + $y >= 4;\n"


class TestLexicographic:
    def test_secondary_variables_minimised_after_pinning(self):
        # x >= b and b + c >= 1 admit x = 0; pinning that optimum forces
        # b = 0, and the second phase then has to settle c at exactly 1
        cons = [
            Constraint(V("x"), V("b")),
            Constraint(V("b") + V("c"), C(1)),
        ]
        s = solve_lexicographic(cons, ["x"], ["x", "b", "c"])
        assert s.optimal
        assert s.valuation == {"x": F(0), "b": F(0), "c": F(1)}
        assert s.objective == 0  # the primary optimum, not the tie-break sum

    def test_primary_optimum_is_not_disturbed(self):
        cons = [
            Constraint(V("x") + V("y"), C(3)),
            Constraint(V("z"), V("y")),
        ]
        s = solve_lexicographic(cons, ["x", "y"], ["x", "y", "z"])
        assert s.objective == 3
        assert s.valuation["x"] + s.valuation["y"] == 3
        assert s.valuation["z"] == s.valuation["y"]

    def test_infeasibility_propagates(self):
        cons = [Constraint(C(0), C(1))]
        s = solve_lexicographic(cons, ["x"], ["x"])
        assert s.status == INFEASIBLE
        assert s.certificate is not None

    def test_warm_start_matches_pinned_reference(self):
        # random instances with repeated rows (ratio ties), zero right-hand
        # sides (degenerate vertices) and secondary variables the primary
        # optimum does not determine; the secondary optimum may be reached at
        # a different vertex, so only its value is compared
        rng = random.Random(1977)
        coeffs = [-1, 0, 0, 1, 1, 2]
        for trial in range(300):
            n = rng.randint(2, 6)
            names = [f"v{i}" for i in range(n)]
            primary = rng.sample(names, rng.randint(1, n - 1))
            cons = []
            for _ in range(rng.randint(1, 8)):
                lhs = sum((V(v, rng.choice(coeffs)) for v in names), C(rng.randint(-1, 2)))
                rhs = C(rng.choice([0, 0, 1, 2]))
                cons.append(Constraint(lhs, rhs))
                if rng.random() < 0.3:
                    cons.append(cons[rng.randrange(len(cons))])
            got = solve_lexicographic(cons, primary, names)
            want = pinned_lexicographic(cons, primary, names)
            msg = f"trial {trial}: {[str(c) for c in cons]} primary {primary}"
            assert got.status == want.status, msg
            if not got.optimal:
                continue
            assert got.objective == want.objective, msg

            def secondary(s):
                return sum(s.valuation[v] for v in names if v not in primary)

            assert secondary(got) == secondary(want), msg
            for c in cons:
                assert c.lhs.eval(got.valuation) >= c.rhs.eval(got.valuation), msg


class TestReferenceSolver:
    def test_pivot_for_pivot_agreement(self):
        # the integer tableau must take the rational tableau's pivots: same
        # status, valuation, objective, certificate and pivot count.  Rows
        # have denominators 1-3, zero and negative right-hand sides and
        # duplicates (ratio ties); half the trials add a secondary objective
        rng = random.Random(7)
        denominators = [1, 1, 2, 3]
        statuses = set()
        for trial in range(3000):
            n = rng.randint(1, 6)
            m = rng.randint(1, 9)
            rows = []
            for _ in range(m):
                coeffs = [F(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(n)]
                rows.append((coeffs, F(rng.randint(-3, 4), rng.choice(denominators))))
                if rng.random() < 0.25:
                    rows.append(rows[rng.randrange(len(rows))])
            obj = [F(rng.randint(-1, 3), rng.choice(denominators)) for _ in range(n)]
            p = problem([f"v{i}" for i in range(n)], rows, obj)
            secondary = None
            if trial % 2:
                secondary = sparse([F(rng.randint(0, 2), rng.choice(denominators)) for _ in range(n)])
            got = solve(p, secondary)
            assert got == reference_solve(p, secondary), f"trial {trial}: {lp_dump(p)} {secondary}"
            statuses.add(got.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
