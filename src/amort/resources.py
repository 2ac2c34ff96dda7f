"""Resource amounts and symbolic resource expressions.

Amounts form an ordered commutative monoid: nonnegative rationals under
addition with 0 as the empty resource.  Annotations that still contain
unknowns are linear expressions over named metavariables (written ``$name``
in source text); the prover subtracts them freely, so expressions may carry
signed coefficients, but anything written in source must be nonnegative.
Inside an expression an integral number is an ``int`` and any other a
``Fraction``; what leaves an expression (``eval``, and the LP's valuation
and objective) is always a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

ResourceValue = Fraction

ZERO = Fraction(0)


class UnboundMetavariable(KeyError):
    """Raised when evaluating an expression under an incomplete valuation."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no value bound for metavariable ${self.name}"


def res_of_int(z: int) -> Fraction:
    """Clamp an integer to a resource amount: res(z) = max(z, 0)."""
    return Fraction(z) if z > 0 else ZERO


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with positive q."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d <= 0:
            raise ValueError(f"denominator must be positive: {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def _num(x) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class ResourceExpr:
    """Linear expression ``constant + sum(coeff * $var)`` over rationals.

    Stored normalised: zero coefficients dropped, terms sorted by name, so
    equality and hashing are syntactic equality of the normal form.  An
    integral constant or coefficient is stored as an ``int``, any other as
    a ``Fraction``; the two compare, hash and print alike, and integer
    arithmetic is much cheaper.  ``eval`` always returns a ``Fraction``.
    """

    constant: int | Fraction = 0
    terms: tuple[tuple[str, int | Fraction], ...] = ()

    @staticmethod
    def make(constant: Fraction | int = 0, terms: Mapping[str, Fraction | int] | None = None) -> "ResourceExpr":
        items = []
        for name, coeff in sorted((terms or {}).items()):
            if coeff != 0:
                items.append((name, _num(coeff)))
        return ResourceExpr(_num(constant), tuple(items))

    @staticmethod
    def const(value: Fraction | int) -> "ResourceExpr":
        return ResourceExpr.make(value)

    @staticmethod
    def var(name: str, coeff: Fraction | int = 1) -> "ResourceExpr":
        return ResourceExpr.make(0, {name: coeff})

    def __hash__(self) -> int:
        # computed once: `Fraction.__hash__` is costly and constraint sets
        # hash the same expressions again and again
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.constant, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.terms)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.terms

    def __add__(self, other: "ResourceExpr") -> "ResourceExpr":
        m = self.coeff_map()
        for name, c in other.terms:
            m[name] = m.get(name, 0) + c
        return ResourceExpr.make(self.constant + other.constant, m)

    def __sub__(self, other: "ResourceExpr") -> "ResourceExpr":
        m = self.coeff_map()
        for name, c in other.terms:
            m[name] = m.get(name, 0) - c
        return ResourceExpr.make(self.constant - other.constant, m)

    def eval(self, valuation: Mapping[str, Fraction]) -> Fraction:
        """Evaluate under a metavariable valuation; every variable must be bound."""
        total = Fraction(self.constant)
        for name, coeff in self.terms:
            if name not in valuation:
                raise UnboundMetavariable(name)
            total += coeff * valuation[name]
        return total

    def __str__(self) -> str:
        parts: list[str] = []
        for name, coeff in self.terms:
            if coeff == 1:
                parts.append(f"${name}")
            elif coeff == -1:
                parts.append(f"-${name}")
            else:
                parts.append(f"{coeff}*${name}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out
