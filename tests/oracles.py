"""Reference implementations the LP tests compare the simplex against.

`enumerate_vertices_oracle` finds an optimum without any simplex code: it
solves every square subsystem of the constraints and keeps the best feasible
point.  `pinned_lexicographic` is the two-solve formulation of the
lexicographic objective: solve for the primary objective, then solve again
with a row pinning the primary optimum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from amort.lp import INFEASIBLE, OPTIMAL, LpProblem, LpSolution, problem_from_constraints, solve


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


def enumerate_vertices_oracle(p: LpProblem, max_vars: int = 6, max_rows: int = 12) -> LpSolution:
    """Independent optimum: try every basic point (intersection of n active
    constraints drawn from the rows and the axes), keep the feasible ones,
    return the best.  Only for small instances; exact throughout."""
    n = len(p.variables)
    m = len(p.rows)
    if n > max_vars or m > max_rows:
        raise LpSizeError(f"oracle limited to {max_vars} variables / {max_rows} rows")
    if any(c < 0 for c in p.objective):
        raise LpSizeError("oracle requires a nonnegative objective")

    planes = [(list(coeffs), bound) for coeffs, bound in p.rows]
    for j in range(n):
        axis = [Fraction(0)] * n
        axis[j] = Fraction(1)
        planes.append((axis, Fraction(0)))

    def feasible(pt) -> bool:
        if any(v < 0 for v in pt):
            return False
        return all(
            sum(c * v for c, v in zip(coeffs, pt)) >= bound for coeffs, bound in p.rows
        )

    best_val = None
    best_pt = None
    for combo in itertools.combinations(range(len(planes)), n):
        mat = [planes[i][0] for i in combo]
        rhs = [planes[i][1] for i in combo]
        pt = _gauss_solve(mat, rhs)
        if pt is None or not feasible(pt):
            continue
        val = sum((c * v for c, v in zip(p.objective, pt)), Fraction(0))
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
    pin_coeffs = tuple(Fraction(-1) if v in primary_set else Fraction(0) for v in variables)
    p2 = problem_from_constraints(cons, secondary, variables)
    rows = p2.rows + ((pin_coeffs, -s1.objective),)
    s2 = solve(LpProblem(p2.variables, rows, p2.objective))
    assert s2.optimal  # s1's solution is feasible for p2
    return LpSolution(OPTIMAL, s2.valuation, s1.objective)
