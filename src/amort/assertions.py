"""Assertion language: symbolic heaps with resource annotations, and goals.

An assertion is a disjunction of clauses ``exists xs. Pi ; Sigma ; Theta``:
pure equalities/disequalities, spatial atoms (points-to, resource-carrying
list segments and trees), and a resource expression.  Goals extend clauses
with the connectives the weakest-precondition generator needs (``*``,
``-*``, conjunction, pure implication, quantifiers).

Also here: capture-avoiding substitution, a union-find decision procedure
for the pure fragment, and the text parser.  The bounded model checker that
the test suite uses as an independent oracle lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .resources import ResourceExpr

# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class NullTerm:
    def __str__(self) -> str:
        return "null"


NULL = NullTerm()

Term = object  # Var | IntLit | NullTerm (plus prover-internal unification vars)


def is_literal(t: Term) -> bool:
    return isinstance(t, (IntLit, NullTerm))


# ---------------------------------------------------------------------------
# atoms, clauses, goals


@dataclass(frozen=True)
class PureAtom:
    lhs: Term
    op: str  # "=" or "!="
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"

    def negated(self) -> "PureAtom":
        return PureAtom(self.lhs, "!=" if self.op == "=" else "=", self.rhs)


@dataclass(frozen=True)
class PointsTo:
    obj: Term
    field: str
    value: Term

    def __str__(self) -> str:
        return f"pt({self.obj}, {self.field}, {self.value})"


# field names the inductive predicates are defined over
LSEG_NEXT = "next"
LSEG_DATA = "data"
TREE_LEFT = "left"
TREE_RIGHT = "right"

# Each inductive predicate declares its shape once, and the prover derives
# unfolding and matching from it.  An instance is empty when its ``head``
# equals its ``stop``; otherwise its head is a node: one cell per entry of
# ``FIELDS`` (the field, and the base of the fresh name for its value), the
# ``children`` instances over those values, and one ``ann`` of resource.
# ``absorbed(seg)`` is what remains of an instance once a context instance
# ``seg`` of the same predicate at the same head has covered a prefix of it.


@dataclass(frozen=True)
class ListSeg:
    ann: ResourceExpr
    start: Term
    end: Term

    FIELDS = ((LSEG_NEXT, "n"), (LSEG_DATA, "d"))

    @property
    def head(self) -> Term:
        return self.start

    @property
    def stop(self) -> Term:
        return self.end

    def children(self, nxt: Term, data: Term) -> tuple:
        return (ListSeg(self.ann, nxt, self.end),)

    def absorbed(self, seg: "ListSeg") -> tuple:
        return (ListSeg(self.ann, seg.end, self.end),)

    def __str__(self) -> str:
        return f"lseg({self.ann}, {self.start}, {self.end})"


@dataclass(frozen=True)
class TreeSeg:
    """A tree is a segment that stops at ``null``."""

    ann: ResourceExpr
    root: Term

    FIELDS = ((TREE_LEFT, "l"), (TREE_RIGHT, "r"))
    stop = NULL

    @property
    def head(self) -> Term:
        return self.root

    def children(self, left: Term, right: Term) -> tuple:
        return (TreeSeg(self.ann, left), TreeSeg(self.ann, right))

    def absorbed(self, seg: "TreeSeg") -> tuple:
        return ()

    def __str__(self) -> str:
        return f"tree({self.ann}, {self.root})"


HeapAtom = object  # PointsTo | ListSeg | TreeSeg


@dataclass(frozen=True)
class Clause:
    exists: tuple[str, ...] = ()
    pure: tuple[PureAtom, ...] = ()
    heap: tuple[HeapAtom, ...] = ()
    resource: ResourceExpr = ResourceExpr()

    def is_emp(self) -> bool:
        return not (self.exists or self.pure or self.heap) and self.resource.is_zero()

    def __str__(self) -> str:
        if self.is_emp():
            return "emp"
        head = f"exists {', '.join(self.exists)}. " if self.exists else ""
        pure = ", ".join(str(a) for a in self.pure)
        heap = ", ".join(str(a) for a in self.heap)
        return f"{head}{pure} ; {heap} ; {self.resource}"


Assertion = tuple  # tuple[Clause, ...], nonempty


def assertion_str(a: Sequence[Clause]) -> str:
    return r" \/ ".join(str(c) for c in a)


EMP = (Clause(),)


class Goal:
    pass


@dataclass(frozen=True)
class Leaf(Goal):
    parts: Assertion

    def __str__(self):
        return f"[{assertion_str(self.parts)}]"


@dataclass(frozen=True)
class Star(Goal):
    parts: Assertion
    rest: Goal

    def __str__(self):
        return f"({assertion_str(self.parts)}) * {self.rest}"


@dataclass(frozen=True)
class Wand(Goal):
    parts: Assertion
    rest: Goal

    def __str__(self):
        return f"(({assertion_str(self.parts)}) -* {self.rest})"


@dataclass(frozen=True)
class And(Goal):
    left: Goal
    right: Goal

    def __str__(self):
        return f"({self.left} /\\ {self.right})"


@dataclass(frozen=True)
class Implies(Goal):
    cond: PureAtom
    rest: Goal

    def __str__(self):
        return f"({self.cond} -> {self.rest})"


@dataclass(frozen=True)
class Forall(Goal):
    var: str
    rest: Goal

    def __str__(self):
        return f"(forall {self.var}. {self.rest})"


@dataclass(frozen=True)
class Exists(Goal):
    var: str
    rest: Goal

    def __str__(self):
        return f"(exists {self.var}. {self.rest})"


# ---------------------------------------------------------------------------
# free variables and substitution


def atom_terms(a) -> tuple:
    """The terms of a pure or heap atom, in field order."""
    if isinstance(a, PointsTo):
        return (a.obj, a.value)
    if isinstance(a, ListSeg):
        return (a.start, a.end)
    if isinstance(a, TreeSeg):
        return (a.root,)
    if isinstance(a, PureAtom):
        return (a.lhs, a.rhs)
    raise TypeError(a)


def map_atom(a, f, arg):
    """``a`` with each term ``t`` replaced by ``f(t, arg)``; ``f`` takes its
    mapping as ``arg`` so that the walk needs no closure call per term."""
    if isinstance(a, PointsTo):
        return PointsTo(f(a.obj, arg), a.field, f(a.value, arg))
    if isinstance(a, ListSeg):
        return ListSeg(a.ann, f(a.start, arg), f(a.end, arg))
    if isinstance(a, TreeSeg):
        return TreeSeg(a.ann, f(a.root, arg))
    if isinstance(a, PureAtom):
        return PureAtom(f(a.lhs, arg), a.op, f(a.rhs, arg))
    raise TypeError(a)


def term_vars(t: Term) -> set[str]:
    return {t.name} if isinstance(t, Var) else set()


def clause_free_vars(c: Clause) -> set[str]:
    out = {t.name for a in c.pure + c.heap for t in atom_terms(a) if isinstance(t, Var)}
    return out - set(c.exists)


def assertion_free_vars(a: Sequence[Clause]) -> set[str]:
    out: set[str] = set()
    for c in a:
        out |= clause_free_vars(c)
    return out


def subst_term(t: Term, sub: Mapping[str, Term]) -> Term:
    if isinstance(t, Var) and t.name in sub:
        return sub[t.name]
    return t


def _fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}~{i}" in avoid:
        i += 1
    return f"{base}~{i}"


def subst_clause(c: Clause, sub: Mapping[str, Term]) -> Clause:
    """Substitute free occurrences, renaming existentials to avoid capture."""
    live = {k: v for k, v in sub.items() if k not in c.exists}
    if not live:
        return c
    incoming = set().union(*(term_vars(v) for v in live.values())) if live else set()
    exists = list(c.exists)
    if incoming & set(exists):
        avoid = incoming | clause_free_vars(c) | set(exists) | set(live)
        rename: dict[str, Term] = {}
        for i, x in enumerate(exists):
            if x in incoming:
                fresh = _fresh_name(x, avoid)
                avoid.add(fresh)
                rename[x] = Var(fresh)
                exists[i] = fresh
        c = Clause(
            tuple(exists),
            tuple(map_atom(a, subst_term, rename) for a in c.pure),
            tuple(map_atom(a, subst_term, rename) for a in c.heap),
            c.resource,
        )
    return Clause(
        c.exists,
        tuple(map_atom(a, subst_term, live) for a in c.pure),
        tuple(map_atom(a, subst_term, live) for a in c.heap),
        c.resource,
    )


def subst_assertion(a: Sequence[Clause], sub: Mapping[str, Term]) -> Assertion:
    return tuple(subst_clause(c, sub) for c in a)


# ---------------------------------------------------------------------------
# pure reasoning: union-find with disequalities and distinct literals


class PureContext:
    """Congruence over equality atoms; decides = and != queries.

    Complete for this fragment: no function symbols, so a query t1 = t2
    holds iff forced by the equalities, and t1 != t2 holds iff asserted on
    representatives or the classes contain distinct literals (two unequal
    integers, or an integer vs null).

    Incremental: a class's representative is a literal whenever the class
    holds one, and each asserted disequality is indexed under the
    representatives of both sides, re-keyed when a class merges.  ``add``
    sets the contradiction flag as soon as two distinct literals or the two
    sides of a disequality fall into one class, so ``contradictory`` is a
    flag read and ``unequal`` two finds and a set lookup.  ``add`` grows the
    closure in place: extend a ``copy`` of a closure that others may hold.
    """

    __slots__ = ("_parent", "_diseq", "_contradiction")

    def __init__(self, atoms: Iterable[PureAtom] = ()):
        self._parent: dict = {}  # term -> parent term; representatives are absent
        self._diseq: dict = {}  # representative -> representatives unequal to it
        self._contradiction = False
        for a in atoms:
            self.add(a)

    def copy(self) -> "PureContext":
        out = PureContext()
        out._parent = dict(self._parent)
        out._diseq = {r: set(others) for r, others in self._diseq.items()}
        out._contradiction = self._contradiction
        return out

    def find(self, t):
        """The representative of ``t``'s class."""
        parent = self._parent
        root = t
        while root in parent:
            root = parent[root]
        while t is not root:
            parent[t], t = root, parent[t]
        return root

    def _union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep literals as representatives so class literals are easy to read
        if is_literal(ra):
            ra, rb = rb, ra
        if is_literal(ra):
            self._contradiction = True
        self._parent[ra] = rb
        moved = self._diseq.pop(ra, None)
        if moved:
            into = self._diseq.setdefault(rb, set())
            for r in moved:
                others = self._diseq[r]
                others.discard(ra)
                if r == rb:
                    self._contradiction = True
                else:
                    others.add(rb)
                    into.add(r)

    def add(self, atom: PureAtom) -> None:
        if atom.op == "=":
            self._union(atom.lhs, atom.rhs)
            return
        ra, rb = self.find(atom.lhs), self.find(atom.rhs)
        if ra == rb:
            self._contradiction = True
            return
        self._diseq.setdefault(ra, set()).add(rb)
        self._diseq.setdefault(rb, set()).add(ra)

    def contradictory(self) -> bool:
        return self._contradiction

    def equal(self, t1, t2) -> bool:
        return self.find(t1) == self.find(t2)

    def unequal(self, t1, t2) -> bool:
        return self.apart(self.find(t1), self.find(t2))

    def apart(self, r1, r2) -> bool:
        """``unequal`` on two representatives, as returned by ``find``."""
        if r1 == r2:
            return False
        if is_literal(r1) and is_literal(r2):
            return True
        return r2 in self._diseq.get(r1, ())

    def entails(self, atom: PureAtom) -> bool:
        if self._contradiction:
            return True
        if atom.op == "=":
            return self.equal(atom.lhs, atom.rhs)
        return self.unequal(atom.lhs, atom.rhs)


# ---------------------------------------------------------------------------
# parser


class AssertionParseError(ValueError):
    def __init__(self, msg: str, pos: int = 0):
        super().__init__(msg)
        self.pos = pos


_SYMBOLS = ("\\/", "!=", "=", ";", ",", ".", "(", ")", "+", "*", "/", "$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("sym", sym, i))
                i += len(sym)
                break
        else:
            if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(("int", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(("name", text[i:j], i))
                i = j
            else:
                raise AssertionParseError(f"unexpected character {ch!r}", i)
    return toks


class _TokStream:
    def __init__(self, toks, text):
        self.toks = toks
        self.text = text
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return v
        return None

    def expect(self, kind, value=None):
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            want = value or kind
            raise AssertionParseError(f"expected {want!r}, found {v or 'end of input'!r}", pos)
        self.i += 1
        return v


def _parse_term(ts: _TokStream) -> Term:
    k, v, pos = ts.peek()
    if k == "int":
        ts.next()
        return IntLit(int(v))
    if k == "name":
        ts.next()
        return NULL if v == "null" else Var(v)
    raise AssertionParseError(f"expected a term, found {v!r}", pos)


def _parse_resexpr(ts: _TokStream) -> ResourceExpr:
    const: int | Fraction = 0
    terms: dict[str, int | Fraction] = {}

    def one():
        nonlocal const
        k, v, pos = ts.peek()
        if k == "sym" and v == "$":
            ts.next()
            name = ts.expect("name")
            terms[name] = terms.get(name, 0) + 1
            return
        if k == "int":
            if v.startswith("-"):
                raise AssertionParseError("resource expressions must be nonnegative", pos)
            ts.next()
            num: int | Fraction = int(v)
            if ts.accept("sym", "/"):
                den = int(ts.expect("int"))
                if den <= 0:
                    raise AssertionParseError("denominator must be positive", pos)
                num = Fraction(int(v), den)
            if ts.accept("sym", "*"):
                ts.expect("sym", "$")
                name = ts.expect("name")
                terms[name] = terms.get(name, 0) + num
            else:
                const += num
            return
        raise AssertionParseError(f"expected a resource expression, found {v!r}", pos)

    one()
    while ts.accept("sym", "+"):
        one()
    return ResourceExpr.make(const, terms)


def _parse_heap_atom(ts: _TokStream):
    k, v, pos = ts.peek()
    if k != "name":
        raise AssertionParseError(f"expected a heap atom, found {v!r}", pos)
    if v == "emp":
        ts.next()
        return None
    if v == "pt":
        ts.next()
        ts.expect("sym", "(")
        obj = _parse_term(ts)
        ts.expect("sym", ",")
        field = ts.expect("name")
        ts.expect("sym", ",")
        val = _parse_term(ts)
        ts.expect("sym", ")")
        return PointsTo(obj, field, val)
    if v == "lseg":
        ts.next()
        ts.expect("sym", "(")
        ann = _parse_resexpr(ts)
        ts.expect("sym", ",")
        start = _parse_term(ts)
        ts.expect("sym", ",")
        end = _parse_term(ts)
        ts.expect("sym", ")")
        return ListSeg(ann, start, end)
    if v == "tree":
        ts.next()
        ts.expect("sym", "(")
        ann = _parse_resexpr(ts)
        ts.expect("sym", ",")
        root = _parse_term(ts)
        ts.expect("sym", ")")
        return TreeSeg(ann, root)
    raise AssertionParseError(f"unknown heap atom {v!r}", pos)


def _parse_clause(ts: _TokStream) -> Clause:
    # bare `emp` may stand for the empty clause
    k, v, _ = ts.peek()
    if k == "name" and v == "emp":
        nk, nv, _ = ts.toks[ts.i + 1] if ts.i + 1 < len(ts.toks) else ("eof", "", 0)
        if (nk, nv) in (("eof", ""), ("sym", "\\/")):
            ts.next()
            return Clause()
    exists: list[str] = []
    if k == "name" and v == "exists":
        ts.next()
        exists.append(ts.expect("name"))
        while ts.accept("sym", ","):
            exists.append(ts.expect("name"))
        # also allow space-separated binders up to the dot
        while ts.peek()[0] == "name":
            exists.append(ts.next()[1])
        ts.expect("sym", ".")
    pure: list[PureAtom] = []
    if not (ts.peek()[0] == "sym" and ts.peek()[1] == ";"):
        while True:
            lhs = _parse_term(ts)
            op = "=" if ts.accept("sym", "=") else ("!=" if ts.accept("sym", "!=") else None)
            if op is None:
                raise AssertionParseError("expected '=' or '!=' in pure atom", ts.peek()[2])
            rhs = _parse_term(ts)
            pure.append(PureAtom(lhs, op, rhs))
            if not ts.accept("sym", ","):
                break
    ts.expect("sym", ";")
    heap: list = []
    if not (ts.peek()[0] == "sym" and ts.peek()[1] == ";"):
        while True:
            atom = _parse_heap_atom(ts)
            if atom is not None:
                heap.append(atom)
            if not ts.accept("sym", ","):
                break
    ts.expect("sym", ";")
    res = _parse_resexpr(ts)
    clause = Clause(tuple(exists), tuple(pure), tuple(heap), res)
    bound = set(exists)
    for atom in clause.heap:
        if isinstance(atom, (ListSeg, TreeSeg)):
            if bound & set(atom.ann.variables):
                raise AssertionParseError("resource variable under quantifier")
    if bound & set(res.variables):
        raise AssertionParseError("resource variable under quantifier")
    return clause


def parse_assertion(text: str) -> Assertion:
    ts = _TokStream(_tokenize(text), text)
    clauses = [_parse_clause(ts)]
    while ts.accept("sym", "\\/"):
        clauses.append(_parse_clause(ts))
    k, v, pos = ts.peek()
    if k != "eof":
        raise AssertionParseError(f"trailing input {v!r}", pos)
    return tuple(clauses)
