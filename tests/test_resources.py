"""Resource monoid and annotation-expression arithmetic."""

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
