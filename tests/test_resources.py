"""Resource monoid and annotation-expression arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amort.resources import ResourceExpr, UnboundMetavariable, parse_rational, res_of_int

rationals = st.fractions(max_denominator=12)


class TestMonoid:
    def test_res_clamps_negatives(self):
        assert res_of_int(-3) == 0
        assert res_of_int(0) == 0
        assert res_of_int(7) == 7


class TestParseRational:
    def test_plain_and_fraction(self):
        assert parse_rational("3") == 3
        assert parse_rational("5/2") == Fraction(5, 2)
        assert parse_rational("-1/2") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["", "1/0", "2/-3", "a/b", "1.5"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestResourceExpr:
    def test_normalisation_drops_zero_terms(self):
        e = ResourceExpr.make(1, {"a": Fraction(0), "b": 2})
        assert e.terms == (("b", Fraction(2)),)
        assert e == ResourceExpr.var("b", 2) + ResourceExpr.const(1)

    def test_str_round_feel(self):
        e = ResourceExpr.make(Fraction(1, 2), {"a": 2})
        assert str(e) == "2*$a + 1/2"
        assert str(ResourceExpr()) == "0"
        assert str(ResourceExpr.var("x")) == "$x"

    def test_eval(self):
        e = ResourceExpr.make(1, {"a": 2, "b": Fraction(1, 3)})
        assert e.eval({"a": Fraction(1, 2), "b": 3}) == 1 + 1 + 1

    def test_eval_unbound(self):
        with pytest.raises(UnboundMetavariable) as exc:
            ResourceExpr.var("mystery").eval({})
        assert "$mystery" in str(exc.value)

    @given(
        st.dictionaries(st.sampled_from("abcd"), rationals, max_size=3),
        st.dictionaries(st.sampled_from("abcd"), rationals, max_size=3),
        rationals,
        rationals,
    )
    def test_linear(self, t1, t2, c1, c2):
        e1 = ResourceExpr.make(c1, t1)
        e2 = ResourceExpr.make(c2, t2)
        val = {v: Fraction(2, 3) for v in "abcd"}
        assert (e1 + e2).eval(val) == e1.eval(val) + e2.eval(val)
        assert (e1 - e2).eval(val) == e1.eval(val) - e2.eval(val)


class RefExpr:
    """Fraction-only reference for `ResourceExpr`: a constant and a map of
    nonzero coefficients, all `Fraction`s."""

    def __init__(self, constant, terms):
        self.constant = Fraction(constant)
        self.terms = {n: Fraction(c) for n, c in terms.items() if c != 0}

    def combine(self, other, sign):
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms.get(n, Fraction(0)) + sign * c
        return RefExpr(self.constant + sign * other.constant, terms)

    def eval(self, valuation):
        return self.constant + sum((c * valuation[n] for n, c in self.terms.items()), Fraction(0))

    def __str__(self):
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            parts.append(f"${n}" if c == 1 else f"-${n}" if c == -1 else f"{c}*${n}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


class TestIntegerCoefficients:
    @staticmethod
    def mixed(rng, value):
        """`value` as an int when integral and the coin says so, else as a
        Fraction (possibly an integral one)."""
        if value.denominator == 1 and rng.random() < 0.5:
            return int(value)
        return Fraction(value)

    def test_agrees_with_fraction_reference(self):
        rng = random.Random(20261019)
        names = "abcd"

        def value():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))

        def draw():
            const = value()
            terms = {n: value() for n in rng.sample(names, rng.randint(0, 4))}
            expr = ResourceExpr.make(self.mixed(rng, const), {n: self.mixed(rng, c) for n, c in terms.items()})
            return expr, RefExpr(const, terms)

        def agrees(expr, ref):
            assert expr.constant == ref.constant and dict(expr.terms) == ref.terms
            for c in (expr.constant, *dict(expr.terms).values()):
                # integral values are stored as int, the others as Fraction
                assert type(c) is (int if c.denominator == 1 else Fraction), (expr, c)
            assert str(expr) == str(ref)
            # the same expression written with Fractions only
            plain = ResourceExpr(ref.constant, tuple(sorted(ref.terms.items())))
            assert expr == plain and hash(expr) == hash(plain)

        for _ in range(2000):
            (e1, r1), (e2, r2) = draw(), draw()
            agrees(e1, r1)
            agrees(e1 + e2, r1.combine(r2, 1))
            agrees(e1 - e2, r1.combine(r2, -1))
            valuation = {n: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for n in names}
            got = e1.eval(valuation)
            assert type(got) is Fraction and got == r1.eval(valuation)
