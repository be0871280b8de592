"""Text syntax for rings and polynomials.

    ring  ::= ("Q" | "F" <prime> | "F" <prime> "(t)") "[" ident ("," ident)* "]"
              ("/" "(" poly (";" poly)* ")")?
    poly  ::= usual arithmetic over the ring: + - * / ^ and parentheses,
              "/" only by nonzero constants, "^" by non-negative integers.

Over F_p(t) the symbol t (unless shadowed by a ring variable) is the field
generator.  format_poly writes terms in descending monomial order and its
output reparses to the same polynomial.
"""

from __future__ import annotations

import re

from .fields import QQ, PrimeField, RationalFunctionField
from .poly import Polynomial, PolyRing, grevlex


class DslError(ValueError):
    """Parse failure; carries the offending position in the input."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        snippet = text[max(0, pos - 12) : pos + 12]
        super().__init__(f"{message} at position {pos}: ...{snippet!r}...")


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*/^()\[\],;]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise DslError(f"unexpected character {text[pos]!r}", text, pos)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolyRing | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise DslError(f"expected {value!r}, found {val or 'end of input'!r}", self.text, pos)

    def fail(self, message: str):
        raise DslError(message, self.text, self.peek()[2])

    # -- ring specs ---------------------------------------------------------

    def parse_ring_spec(self):
        field = self._field()
        self.expect("[")
        names = [self._ident("variable name")]
        while self.peek()[1] == ",":
            self.next()
            names.append(self._ident("variable name"))
        self.expect("]")
        ring = PolyRing(field, names)
        self.ring = ring
        relations = []
        if self.peek()[1] == "/":
            self.next()
            self.expect("(")
            relations.append(self.parse_expr())
            while self.peek()[1] in (";", ","):
                self.next()
                relations.append(self.parse_expr())
            self.expect(")")
        if self.peek()[0] != "end":
            self.fail("trailing input after ring spec")
        return ring, relations

    def _field(self):
        kind, val, pos = self.next()
        if kind != "ident":
            raise DslError("expected field (Q, Fp, or Fp(t))", self.text, pos)
        if val == "Q":
            return QQ
        m = re.fullmatch(r"F(\d+)", val)
        if not m:
            raise DslError(f"unknown field {val!r}", self.text, pos)
        p = int(m.group(1))
        if self.peek()[1] == "(":
            save = self.i
            self.next()
            kind2, val2, _ = self.next()
            if val2 == "t" and self.peek()[1] == ")":
                self.next()
                try:
                    return RationalFunctionField(p)
                except ValueError as e:
                    raise DslError(str(e), self.text, pos) from None
            self.i = save  # not a (t) suffix; leave for caller (will fail in [)
        try:
            return PrimeField(p)
        except ValueError as e:
            raise DslError(str(e), self.text, pos) from None

    def _ident(self, what: str) -> str:
        kind, val, pos = self.next()
        if kind != "ident":
            raise DslError(f"expected {what}, found {val or 'end of input'!r}", self.text, pos)
        return val

    # -- polynomials --------------------------------------------------------

    def parse_expr(self) -> Polynomial:
        f = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            g = self.parse_term()
            f = f + g if op == "+" else f - g
        return f

    def parse_term(self) -> Polynomial:
        f = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            g = self.parse_factor()
            if op == "*":
                f = f * g
            else:
                if not g.is_constant() or g.is_zero():
                    raise DslError("division only by nonzero constants", self.text, pos)
                f = f.scale(self.ring.field.inv(g.constant_value()))
        return f

    def parse_factor(self) -> Polynomial:
        kind, val, pos = self.peek()
        if val in ("+", "-"):
            self.next()
            f = self.parse_factor()
            return f if val == "+" else -f
        f = self.parse_atom()
        while self.peek()[1] == "^":
            _, _, cpos = self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise DslError("exponent must be a non-negative integer", self.text, pos)
            f = f ** int(val)
        return f

    def parse_atom(self) -> Polynomial:
        kind, val, pos = self.next()
        if val == "(":
            f = self.parse_expr()
            self.expect(")")
            return f
        if kind == "int":
            return self.ring.from_int(int(val))
        if kind == "ident":
            if val in self.ring._index:
                return self.ring.var(val)
            field = self.ring.field
            if val == "t" and isinstance(field, RationalFunctionField):
                return self.ring.constant(field.t)
            raise DslError(f"unknown variable {val!r}", self.text, pos)
        raise DslError(f"expected a polynomial atom, found {val or 'end of input'!r}",
                       self.text, pos)


def parse_ring(text: str):
    """-> (PolyRing, [relation polynomials]); relations empty without a /(...) part."""
    return _Parser(text).parse_ring_spec()


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    p = _Parser(text, ring)
    f = p.parse_expr()
    if p.peek()[0] != "end":
        p.fail("trailing input after polynomial")
    return f


def parse_polys(ring: PolyRing, text: str) -> list[Polynomial]:
    """Semicolon-separated polynomial list (the CLI's ideal syntax)."""
    p = _Parser(ring=ring, text=text)
    out = [p.parse_expr()]
    while p.peek()[1] == ";":
        p.next()
        out.append(p.parse_expr())
    if p.peek()[0] != "end":
        p.fail("trailing input after polynomial list")
    return out


# ---------------------------------------------------------------------------
# formatting


def _format_mono(ring: PolyRing, exps) -> str:
    parts = []
    for v, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_poly(f: Polynomial, order=grevlex) -> str:
    """Canonical text: terms in descending order, reparses to f."""
    if f.is_zero():
        return "0"
    ring = f.ring
    field = ring.field
    out = []
    for m in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[m]
        sign = "-" if field.is_negative(c) else "+"
        if field.is_negative(c):
            c = field.neg(c)
        mono = _format_mono(ring, m)
        if not mono:
            body = field.format_factor(c)
        elif c == field.one:
            body = mono
        else:
            body = f"{field.format_factor(c)}*{mono}"
        out.append((sign, body))
    first_sign, first_body = out[0]
    text = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in out[1:]:
        text += sign + body
    return text


def format_ring(ring: PolyRing, relations=()) -> str:
    from .fields import field_name

    base = f"{field_name(ring.field)}[{','.join(ring.variables)}]"
    rels = [r for r in relations if not r.is_zero()]
    if rels:
        base += "/(" + ";".join(format_poly(r) for r in rels) + ")"
    return base
