"""Tokenizer and recursive-descent parser for polynomial / element text.

Grammar (whitespace insensitive):

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := INT | 'g' ['^' INT] | 'x' ['^' INT] | '(' poly ')'

``x`` factors are only legal when parsing function text; inside
parentheses and in element literals only ``g`` (the residue of the
indeterminate) and canonical integers appear.  Integer coefficients are
canonical element encodings and must lie in [0, q).  Integer exponents
are unbounded.
"""

from __future__ import annotations

import re

from .errors import ParseError

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_]\w*)|(\^)|(\*)|(\+)|(-)|(\()|(\))|(\S)")

_INT, _NAME, _CARET, _STAR, _PLUS, _MINUS, _LPAREN, _RPAREN, _END = range(9)


def _tokenize(text: str):
    # group k + 1 of the regex matches token kind k; the last group, any other
    # character, falls on kind _END
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastindex - 1, m.group(m.lastindex), m.start()
        if kind == _END:
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, int(value) if kind == _INT else value, pos))
    tokens.append((_END, None, len(text)))
    return tokens


class _Parser:
    def __init__(self, ctx, text: str, allow_x: bool):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_x = allow_x

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self) -> int:
        kind, value, pos = self.take()
        if kind != _INT:
            raise ParseError("expected an integer", pos)
        return value

    def parse_poly(self) -> dict[int, int]:
        """Returns {exponent: coefficient} with field-reduced coefficients
        (exponents are raw, i.e. not reduced mod x^q - x)."""
        ctx = self.ctx
        out: dict[int, int] = {}
        sign = 1
        kind, _, _ = self.peek()
        if kind in (_PLUS, _MINUS):
            sign = -1 if kind == _MINUS else 1
            self.take()
        while True:
            exp, coeff = self.parse_term()
            if sign == -1:
                coeff = ctx.neg(coeff)
            merged = ctx.add(out.get(exp, 0), coeff)
            if merged:
                out[exp] = merged
            else:
                out.pop(exp, None)
            kind, _, pos = self.peek()
            if kind in (_PLUS, _MINUS):
                sign = -1 if kind == _MINUS else 1
                self.take()
                continue
            return out

    def parse_term(self) -> tuple[int, int]:
        ctx = self.ctx
        exp = 0
        coeff = 1
        while True:
            e, c = self.parse_factor()
            exp += e
            coeff = ctx.mul(coeff, c)
            kind, _, _ = self.peek()
            if kind == _STAR:
                self.take()
                continue
            return exp, coeff

    def parse_factor(self) -> tuple[int, int]:
        """Returns (x_exponent, coefficient_value) of one factor."""
        ctx = self.ctx
        kind, value, pos = self.take()
        if kind == _INT:
            if value >= ctx.order:
                raise ParseError(
                    f"{value} is not a canonical element of a field of order {ctx.order}", pos)
            return 0, value
        if kind == _NAME:
            if value == "x":
                if not self.allow_x:
                    raise ParseError("'x' not allowed in an element expression", pos)
                e = self.parse_opt_exponent()
                return e, 1
            if value == "g":
                e = self.parse_opt_exponent()
                return 0, ctx.pow(ctx.gen_residue, e)
            raise ParseError(f"unknown symbol {value!r}", pos)
        if kind == _LPAREN:
            saved_allow = self.allow_x
            self.allow_x = False
            inner = self.parse_poly()
            self.allow_x = saved_allow
            kind2, _, pos2 = self.take()
            if kind2 != _RPAREN:
                raise ParseError("expected ')'", pos2)
            return 0, inner.get(0, 0)
        raise ParseError("expected a coefficient, 'x', 'g' or '('", pos)

    def parse_opt_exponent(self) -> int:
        kind, _, _ = self.peek()
        if kind == _CARET:
            self.take()
            return self.expect_int()
        return 1

    def finish(self):
        kind, _, pos = self.peek()
        if kind != _END:
            raise ParseError("trailing input", pos)


def parse_poly_text(ctx, text: str, allow_x: bool = True) -> dict[int, int]:
    """Parse polynomial text into a raw {exponent: coefficient} dict."""
    parser = _Parser(ctx, text, allow_x)
    result = parser.parse_poly()
    parser.finish()
    return result
