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

# the deepest nesting of parentheses parsed, as in CPython's own parser: each
# level takes three frames of the recursive descent
MAX_DEPTH = 200


def _tokenize(text: str):
    # group k + 1 of the regex matches token kind k; the last group, any other
    # character, falls on kind _END
    tokens, depth = [], 0
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastindex - 1, m.group(m.lastindex), m.start()
        depth += (kind == _LPAREN) - (kind == _RPAREN)
        if kind == _END:
            raise ParseError(f"unexpected character {value!r}", pos)
        if depth > MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", pos)
        if kind == _INT:
            # int() refuses more digits than sys.get_int_max_str_digits()
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"an integer of {len(value)} digits is too long", pos) from None
        tokens.append((kind, value, pos))
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

    def parse_poly(self) -> dict[int, int]:
        """Returns {exponent: coefficient} with field-reduced coefficients
        (exponents are raw, i.e. not reduced mod x^q - x)."""
        ctx = self.ctx
        out: dict[int, int] = {}
        while True:
            # the sign is optional before the first term only
            kind = self.peek()[0]
            if kind in (_PLUS, _MINUS):
                self.take()
            exp, coeff = self.parse_term()
            merged = ctx.add(out.get(exp, 0), ctx.neg(coeff) if kind == _MINUS else coeff)
            if merged:
                out[exp] = merged
            else:
                out.pop(exp, None)
            if self.peek()[0] not in (_PLUS, _MINUS):
                return out

    def parse_term(self) -> tuple[int, int]:
        exp, coeff = self.parse_factor()
        while self.peek()[0] == _STAR:
            self.take()
            e, c = self.parse_factor()
            exp, coeff = exp + e, self.ctx.mul(coeff, c)
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
        if self.peek()[0] != _CARET:
            return 1
        self.take()
        kind, value, pos = self.take()
        if kind != _INT:
            raise ParseError("expected an integer", pos)
        return value

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
