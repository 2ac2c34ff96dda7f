"""Exact rational linear programming for annotation inference.

The prover's output is a set of linear inequalities over annotation
metavariables.  Solving ``minimise (sum of precondition variables) subject to
those inequalities and y >= 0`` yields the tightest per-element annotations.
Everything here is exact: a feasible answer satisfies every constraint
exactly, and the published corpus values are reproduced bit-for-bit rather
than within a tolerance.

A problem is sparse from the start: each constraint's terms become one
``{column: coefficient}`` row, and every variable it mentions a column.

The solver is a sparse, fraction-free two-phase primal simplex.  Each row
holds integer numerators ``{column: int}`` and an integer right-hand side
over one positive denominator, kept in lowest terms; a pivot combines rows
by integer multiplication and a gcd, and the ratio test compares by
cross-multiplication.  ``Fraction`` appears only where rational input is
scaled to integer rows and where the valuation, the objective and the
certificate are read off.  Bland's rule (lowest eligible index enters; ties
on the ratio test leave by lowest basic variable index) makes the pivots
deterministic and immune to cycling; they are exactly the pivots of the
``{column: Fraction}`` simplex this solver replaced, which is kept as a
reference in ``tests/oracles.py``.  The secondary objective of
``solve_lexicographic`` continues from the primary optimal basis instead of
solving a second, pinned problem.  An infeasible problem comes back with a
Farkas certificate read off the final phase-1 cost row (the phase-1 duals),
so there is one solve either way.  The brute-force vertex enumerator that
serves as an independent oracle also lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .resources import ResourceExpr

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min objective . y  subject to  rows . y >= bounds,  y >= 0.

    Each row and the objective is sparse: a ``{column: nonzero coefficient}``
    map, a column being an index into ``variables``.  Coefficients and
    bounds are ``int`` or ``Fraction``."""

    variables: tuple[str, ...]
    rows: tuple[tuple[dict, int | Fraction], ...]
    objective: dict


@dataclass(frozen=True)
class LpSolution:
    status: str
    valuation: Optional[dict] = None  # variable name -> Fraction
    objective: Optional[Fraction] = None
    certificate: Optional[tuple] = None  # Farkas multipliers, one per row
    pivots: int = 0  # simplex pivots across every phase of this solve

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def problem_from_constraints(
    constraints: Iterable,
    objective: Sequence[str],
    variables: Sequence[str] = (),
) -> LpProblem:
    """Normalise prover constraints (lhs >= rhs) into standard form, with
    the sum of the ``objective`` variables to minimise.

    The columns are ``variables``, then every other variable of the
    constraints and the objective in order of first appearance, so none is
    dropped; the order is deterministic as long as the constraint order is.
    """
    col = {v: j for j, v in enumerate(variables)}
    rows = []
    for c in constraints:
        diff = c.diff()  # diff >= 0, i.e. coeffs . y >= -constant
        rows.append(({col.setdefault(v, len(col)): a for v, a in diff.terms}, -diff.constant))
    obj = {col.setdefault(v, len(col)): 1 for v in objective}
    return LpProblem(tuple(col), tuple(rows), obj)


def lp_dump(p: LpProblem) -> str:
    """The normalised problem in a stable line-per-item text form."""

    def render(coeffs) -> str:
        return str(ResourceExpr.make(0, {p.variables[j]: c for j, c in coeffs.items()}))

    lines = [f"min: {render(p.objective)};"]
    for i, (coeffs, bound) in enumerate(p.rows, start=1):
        lines.append(f"c{i}: {render(coeffs)} >= {bound};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simplex


@dataclass(slots=True)
class _Row:
    """``nums . x = rhs`` scaled by ``1 / den``: integer numerators
    ``{column: nonzero int}`` and an integer right-hand side over one positive
    denominator, kept in lowest terms.  A reduced-cost row has the same form,
    its right-hand side being minus the current objective value."""

    nums: dict
    rhs: int
    den: int

    @staticmethod
    def scaled(coeffs: Mapping[int, int | Fraction], rhs: int | Fraction = 0) -> "_Row":
        """The row of rational ``coeffs`` and ``rhs`` (each ``int`` or
        ``Fraction``) over the lcm of their denominators."""
        den = math.lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
        nums = {j: v.numerator * (den // v.denominator) for j, v in coeffs.items()}
        return _Row(nums, rhs.numerator * (den // rhs.denominator), den)

    def reduce(self) -> None:
        g = math.gcd(self.den, self.rhs, *self.nums.values())
        if g != 1:
            self.nums = {k: v // g for k, v in self.nums.items()}
            self.rhs //= g
            self.den //= g

    def eliminate(self, f: int, row: "_Row") -> None:
        """Subtract ``f / den`` times ``row`` (``f`` is this row's numerator in
        ``row``'s pivot column, where ``row`` holds 1): the result is
        ``(nums*row.den - f*row.nums) / (den*row.den)``, in lowest terms."""
        d = row.den
        nums = {k: v * d for k, v in self.nums.items()} if d != 1 else self.nums
        for k, v in row.nums.items():
            t = nums.get(k, 0) - f * v
            if t:
                nums[k] = t
            else:
                del nums[k]
        self.nums = nums
        self.rhs = self.rhs * d - f * row.rhs
        self.den *= d
        if self.den != 1:
            self.reduce()


class _Tableau:
    """Sparse fraction-free simplex tableau: a pivot touches only the rows
    with a nonzero in the entering column and only the nonzero entries of
    the pivot row, and every entry stays an integer.  The signs and ratios
    Bland's rule reads are those of the rational tableau the rows scale."""

    def __init__(self, rows: list[_Row], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.pivots = 0

    def cost_row(self, cost: Mapping[int, int | Fraction]) -> _Row:
        """Reduced costs of ``cost`` on the current basis."""
        z = _Row.scaled(cost)
        for row, b in zip(self.rows, self.basis):
            f = z.nums.get(b)
            if f:
                z.eliminate(f, row)
        return z

    def pivot(self, r: int, c: int, z: Optional[_Row] = None) -> None:
        row = self.rows[r]
        p = row.nums[c]
        # divide by p / den: the numerators over |p|, sign normalised
        if p < 0:
            row.nums = {k: -v for k, v in row.nums.items()}
            row.rhs = -row.rhs
            p = -p
        row.den = p
        row.reduce()
        for i, other in enumerate(self.rows):
            f = other.nums.get(c)
            if f is not None and i != r:
                other.eliminate(f, row)
        if z is not None and c in z.nums:
            z.eliminate(z.nums[c], row)
        self.basis[r] = c
        self.pivots += 1

    def bland(self, z: _Row, barred: frozenset = frozenset()) -> str:
        """Simplex iterations until optimal or unbounded: the lowest-index
        column with a negative reduced cost enters (``barred`` columns never
        do); ratio ties leave by the lowest basic index."""
        rows, basis = self.rows, self.basis
        while True:
            enter = min((j for j, d in z.nums.items() if d < 0 and j not in barred), default=None)
            if enter is None:
                return OPTIMAL
            # the ratio rhs_i / a_i is the same over every row's own
            # denominator, so it compares by cross-multiplication
            leave = None
            for i, row in enumerate(rows):
                a = row.nums.get(enter)
                if a is not None and a > 0:
                    if leave is None:
                        leave, b, best = i, row.rhs, a
                        continue
                    lhs, rhs = row.rhs * best, b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, b, best = i, row.rhs, a
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter, z)


def solve(p: LpProblem, secondary: Optional[Mapping[int, int | Fraction]] = None) -> LpSolution:
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
    rows: list[_Row] = []
    basis: list[int] = []
    n_art = 0
    for i, (coeffs, bound) in enumerate(p.rows):
        row = _Row.scaled(coeffs, bound)
        if bound <= 0:
            # flip to  -coeffs . y <= -bound  with a basic slack
            row.nums = {j: -v for j, v in row.nums.items()}
            row.rhs = -row.rhs
            row.nums[n + i] = row.den
            basis.append(n + i)
        else:
            row.nums[n + i] = -row.den  # surplus
            row.nums[width + n_art] = row.den
            basis.append(width + n_art)
            n_art += 1
        rows.append(row)
    t = _Tableau(rows, basis)

    if n_art:
        z1 = t.cost_row({width + k: 1 for k in range(n_art)})
        status = t.bland(z1)
        assert status == OPTIMAL  # phase 1 is bounded below by 0
        if z1.rhs < 0:  # minus the phase-1 optimum, the artificials' total
            # row i's multiplier, flipped or not, is the reduced cost of column n + i
            cert = tuple(Fraction(z1.nums.get(n + i, 0), z1.den) for i in range(m))
            return LpSolution(INFEASIBLE, certificate=cert, pivots=t.pivots)
        # drive leftover artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(len(rows)):
            if basis[i] >= width:
                col = min((j for j in rows[i].nums if j < width), default=None)
                if col is None:
                    continue  # 0 = 0 row
                t.pivot(i, col)
            keep.append(i)
        for i in keep:
            rows[i].nums = {j: v for j, v in rows[i].nums.items() if j < width}
        t.rows = [rows[i] for i in keep]
        t.basis = [basis[i] for i in keep]

    barred: frozenset = frozenset()
    for cost in (p.objective, secondary):
        if cost is None:
            continue
        z = t.cost_row(cost)
        if t.bland(z, barred) == UNBOUNDED:
            return LpSolution(UNBOUNDED, pivots=t.pivots)
        # objective = optimum + sum(d_j * x_j) on every feasible point, so the
        # optimal face is x_j = 0 wherever d_j > 0; later pivots enter only
        # columns with d_j = 0, which leave these reduced costs unchanged
        barred = barred | {j for j, d in z.nums.items() if d > 0}
    valuation = {v: Fraction(0) for v in p.variables}
    for b, row in zip(t.basis, t.rows):
        if b < n:
            valuation[p.variables[b]] = Fraction(row.rhs, row.den)
    value = sum((c * valuation[p.variables[j]] for j, c in p.objective.items()), Fraction(0))
    return LpSolution(OPTIMAL, valuation, value, pivots=t.pivots)


# ---------------------------------------------------------------------------
# the inference objective


def solve_lexicographic(
    constraints: Iterable,
    primary: Sequence[str],
    variables: Sequence[str],
) -> LpSolution:
    """Minimise the precondition variables first, then — within that optimum —
    the remaining pool, so reported annotations are tight everywhere and
    alternate-optimum noise cannot leak into the output.  One solve: the
    secondary objective continues from the primary optimal basis."""
    p = problem_from_constraints(constraints, primary, variables)
    primary_set = set(primary)
    secondary = {j: 1 for j, v in enumerate(p.variables) if v not in primary_set}
    return solve(p, secondary or None)
