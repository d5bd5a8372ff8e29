"""Canonical text forms and parsers for ring elements.

Emission lives on the classes' __str__; this module holds the parsers of
the emitted grammar:

    field element   2*a^3+a+2          ("a" the field generator)
    A-polynomial    T^2+2*T+1          (coefficients as above, parenthesized)
    twisted poly    1+2*t+t^2          ("t" the twist generator, low first)
    Artinian        a+(a+1)*eps
"""

from __future__ import annotations

import re

from .basearith import APoly, ArtinRing, FFElement, FiniteField
from .skew import SkewPoly

# the largest degree of a product or power of polynomials in T or t, checked
# before it is computed (the densest such power: 0.2 s on a 2-vCPU machine)
MAX_TEXT_DEGREE = 1024
_POLYNOMIALS = (APoly, SkewPoly)

_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z]+|\^|\+|\-|\*|\(|\))")


class ParseError(ValueError):
    pass


def _tokenize(s: str) -> list[str]:
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad character at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Tiny recursive-descent evaluator for +,-,*,^ expressions over a ring.

    `symbols` maps names to ring values; integers coerce through `from_int`.
    """

    def __init__(self, tokens, symbols, from_int):
        self.toks = tokens
        self.i = 0
        self.symbols = symbols
        self.from_int = from_int

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.toks[self.i:]}")
        return v

    def expr(self):
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.next() == "-"
        v = self.term()
        if neg:
            v = -v
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            v = v - t if op == "-" else v + t
        return v

    def term(self):
        v = self.factor()
        while self.peek() == "*":
            self.next()
            f = self.factor()
            if isinstance(v, _POLYNOMIALS) and v.degree + f.degree > MAX_TEXT_DEGREE:
                raise ParseError(f"product of degree {v.degree} + {f.degree} "
                                 f"exceeds the supported degree {MAX_TEXT_DEGREE}")
            v = v * f
        return v

    def factor(self):
        v = self.atom()
        if self.peek() == "^":
            self.next()
            e = self.next()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            e = int(e)
            if isinstance(v, _POLYNOMIALS) and v.degree * e > MAX_TEXT_DEGREE:
                raise ParseError(f"power of degree {v.degree} * {e} exceeds "
                                 f"the supported degree {MAX_TEXT_DEGREE}")
            v = v ** e
        return v

    def atom(self):
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ParseError("unbalanced parenthesis")
            return v
        if t.isdigit():
            return self.from_int(int(t))
        if t in self.symbols:
            return self.symbols[t]
        raise ParseError(f"unknown symbol {t!r}")


def parse_fq(field: FiniteField, s: str) -> FFElement:
    p = _Parser(_tokenize(s), {"a": field.gen()}, field.from_int)
    return field.coerce(p.parse())


def parse_apoly(field: FiniteField, s: str) -> APoly:
    T = APoly(field, [field.zero, field.one])
    symbols = {"T": T, "a": APoly(field, [field.gen()])}

    def from_int(c):
        return APoly(field, [field.from_int(c)])

    v = _Parser(_tokenize(s), symbols, from_int).parse()
    if isinstance(v, FFElement):
        v = APoly(field, [v])
    return v


def parse_artin(ring: ArtinRing, s: str):
    symbols = {
        "eps": ring.eps,
        "a": ring.from_coeff(ring.coeff_ring.field.gen()),
    }
    return _Parser(_tokenize(s), symbols, ring.from_int).parse()


def parse_skew(ring, s: str):
    """Twisted polynomial over `ring` (a FieldExt or ArtinRing adapter);
    "t" is the twist generator."""
    symbols = {"t": SkewPoly(ring, [ring.zero, ring.one])}
    if isinstance(ring, ArtinRing):
        symbols["eps"] = SkewPoly(ring, [ring.eps])
        symbols["a"] = SkewPoly(ring, [ring.from_coeff(ring.coeff_ring.field.gen())])
    else:
        symbols["a"] = SkewPoly(ring, [ring.field.gen()])

    def from_int(c):
        return SkewPoly(ring, [ring.from_int(c)])

    return _Parser(_tokenize(s), symbols, from_int).parse()
