"""Exact rational linear programming for annotation inference.

The prover's output is a set of linear inequalities over annotation
metavariables.  Solving ``minimise (sum of precondition variables) subject to
those inequalities and y >= 0`` yields the tightest per-element annotations.
Everything here is exact ``Fraction`` arithmetic: a feasible answer satisfies
every constraint exactly, and the published corpus values are reproduced
bit-for-bit rather than within a tolerance.

The solver is a sparse exact simplex with a lexicographic warm start: a
two-phase primal simplex over ``{column: Fraction}`` rows with Bland's rule
(lowest eligible index enters; ties on the ratio test leave by lowest basic
variable index), which makes it deterministic and immune to cycling.  The
secondary objective of ``solve_lexicographic`` continues from the primary
optimal basis instead of solving a second, pinned problem.  An infeasible
problem comes back with a Farkas certificate read off the final phase-1 cost
row (the phase-1 duals), so there is one solve either way.  The brute-force
vertex enumerator that serves as an independent oracle lives with the tests,
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .resources import ResourceExpr

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min objective . y  subject to  rows . y >= bounds,  y >= 0."""

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    objective: tuple[Fraction, ...]

    def __post_init__(self):
        for coeffs, _ in self.rows:
            if len(coeffs) != len(self.variables):
                raise ValueError("row width does not match variable count")
        if len(self.objective) != len(self.variables):
            raise ValueError("objective width does not match variable count")


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


def _expr_row(expr: ResourceExpr, variables: Sequence[str]) -> tuple[Fraction, ...]:
    coeffs = expr.coeff_map()
    return tuple(coeffs.get(v, Fraction(0)) for v in variables)


def problem_from_constraints(
    constraints: Iterable,
    objective: Mapping[str, Fraction] | Sequence[str],
    variables: Optional[Sequence[str]] = None,
) -> LpProblem:
    """Normalise prover constraints (lhs >= rhs) into standard form.

    ``objective`` is either a coefficient map or a plain list of variable
    names (unit weights).  When ``variables`` is omitted the order is first
    appearance in the constraints, then the objective — deterministic as
    long as the constraint order is.
    """
    cons = list(constraints)
    if not isinstance(objective, Mapping):
        objective = {name: Fraction(1) for name in objective}
    if variables is None:
        seen: dict[str, None] = {}
        for c in cons:
            for v in c.diff().variables:
                seen.setdefault(v)
        for v in objective:
            seen.setdefault(v)
        variables = tuple(seen)
    else:
        variables = tuple(variables)
    rows = []
    for c in cons:
        diff = c.diff()  # diff >= 0, i.e. coeffs . y >= -constant
        rows.append((_expr_row(diff, variables), -diff.constant))
    obj = tuple(Fraction(objective.get(v, 0)) for v in variables)
    return LpProblem(variables, tuple(rows), obj)


def lp_dump(p: LpProblem) -> str:
    """The normalised problem in a stable line-per-item text form."""

    def render(coeffs) -> str:
        expr = ResourceExpr.make(0, dict(zip(p.variables, coeffs)))
        return str(expr)

    lines = [f"min: {render(p.objective)};"]
    for i, (coeffs, bound) in enumerate(p.rows, start=1):
        lines.append(f"c{i}: {render(coeffs)} >= {bound};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simplex


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


def solve(p: LpProblem, secondary: Optional[Sequence[Fraction]] = None) -> LpSolution:
    """Two-phase simplex.  Optimal solutions satisfy every row exactly;
    infeasible problems come back with Farkas multipliers y >= 0 such that
    y.A <= 0 componentwise yet y.b > 0.  These are the phase-1 duals: the
    final reduced costs of the slack and surplus columns, whose structural
    reduced costs give y.A <= 0 and whose y.b is the positive phase-1 optimum.

    With ``secondary`` (one coefficient per variable) the optimum is
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
        row = {j: Fraction(c) for j, c in enumerate(coeffs) if c != 0}
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
        z = t.cost_row({j: Fraction(c) for j, c in enumerate(cost) if c != 0})
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
    value = sum((c * valuation[v] for c, v in zip(p.objective, p.variables)), Fraction(0))
    return LpSolution(OPTIMAL, valuation, value, pivots=t.pivots)


def verify_certificate(p: LpProblem, cert: Sequence[Fraction]) -> bool:
    if len(cert) != len(p.rows) or any(c < 0 for c in cert):
        return False
    for j in range(len(p.variables)):
        if sum(cert[i] * p.rows[i][0][j] for i in range(len(p.rows))) > 0:
            return False
    return sum(cert[i] * p.rows[i][1] for i in range(len(p.rows))) > 0


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
    p = problem_from_constraints(constraints, list(primary), variables)
    primary_set = set(primary)
    secondary = tuple(Fraction(0) if v in primary_set else Fraction(1) for v in p.variables)
    return solve(p, secondary if any(secondary) else None)
