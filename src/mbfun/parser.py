"""Polynomial expression parsing.

Grammar: integer and p/q literals, variables [a-z][a-z0-9]*, operators
+ - * ^ with the usual precedence, parentheses.  '/' is only part of a
rational literal, never a general division.  Exponents must be
nonnegative integer literals, and no monomial may reach MAX_EXPONENT: a
power is checked before it is expanded and a product as it is formed, so
an oversized input is refused at its token instead of being built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .multipoly import MultiPoly
from .rationals import Q

# Desk-scale inputs never get close; a larger exponent is a typo or a
# runaway that expanding would not survive.
MAX_EXPONENT = 2**62


class PolySyntaxError(ValueError):
    def __init__(self, text: str, message: str, line: int, column: int):
        super().__init__(f"in {text!r}: {message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str   # int | name | op
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(r"\s+|(?P<int>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*^()/])")


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolySyntaxError(text, f"unexpected character {text[pos]!r}", line, col)
        chunk = text[pos : m.end()]
        if m.lastgroup is not None:
            tokens.append(Token(m.lastgroup, m.group(), line, col))
        for ch in chunk:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    return tokens


def _sorted_names(tokens: List[Token]) -> Tuple[str, ...]:
    return tuple(sorted({t.text for t in tokens if t.kind == "name"})) or ("x",)


class _Parser:
    def __init__(self, text: str, tokens: List[Token], variables: Tuple[str, ...]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.vars = variables

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            raise PolySyntaxError(self.text, "unexpected end of input", line, col)
        self.pos += 1
        return tok

    def _fail(self, tok: Token, message: str):
        raise PolySyntaxError(self.text, message, tok.line, tok.column)

    def _bound(self, tok: Token, poly: MultiPoly, n: int = 1) -> None:
        """Refuse, at tok, a poly ** n with an exponent of MAX_EXPONENT or
        more.  The leading form in each variable cannot cancel, so the
        largest exponent of poly ** n is n times poly's."""
        exponent = n * max(map(poly.degree_in, poly.variables), default=0)
        if exponent >= MAX_EXPONENT:
            self._fail(tok, f"monomial exponent {exponent} exceeds supported range")

    def parse(self) -> MultiPoly:
        value = self.expr()
        tok = self._peek()
        if tok is not None:
            self._fail(tok, f"unexpected {tok.text!r}")
        return value

    def expr(self) -> MultiPoly:
        tok = self._peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self._next()
            value = self.term()
            if tok.text == "-":
                value = -value
        else:
            value = self.term()
        while True:
            tok = self._peek()
            if tok and tok.kind == "op" and tok.text in "+-":
                self._next()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> MultiPoly:
        value = self.power()
        while True:
            tok = self._peek()
            if tok and tok.kind == "op" and tok.text == "*":
                self._next()
                value = value * self.power()
                self._bound(tok, value)
            else:
                return value

    def power(self) -> MultiPoly:
        base = self.atom()
        tok = self._peek()
        if not (tok and tok.kind == "op" and tok.text == "^"):
            return base
        self._next()
        exp_tok = self._peek()
        if exp_tok and exp_tok.kind == "op" and exp_tok.text == "(":
            # parenthesized exponents only legal for a bare nonnegative int
            self._next()
            exp_tok = self._next()
            if exp_tok.kind == "op" and exp_tok.text == "-":
                self._fail(exp_tok, "negative exponents are not allowed")
            if exp_tok.kind != "int":
                self._fail(exp_tok, "exponent must be a nonnegative integer")
            close = self._next()
            if not (close.kind == "op" and close.text == ")"):
                self._fail(close, "expected ')'")
        else:
            if exp_tok is None or exp_tok.kind != "int":
                if exp_tok and exp_tok.kind == "op" and exp_tok.text == "-":
                    self._fail(exp_tok, "negative exponents are not allowed")
                self._fail(exp_tok or tok, "exponent must be a nonnegative integer")
            self._next()
        n = int(exp_tok.text)
        self._bound(exp_tok, base, n)
        return base ** n

    def atom(self) -> MultiPoly:
        tok = self._next()
        if tok.kind == "int":
            num = int(tok.text)
            nxt = self._peek()
            if nxt and nxt.kind == "op" and nxt.text == "/":
                self._next()
                den_tok = self._next()
                if den_tok.kind != "int":
                    self._fail(den_tok, "denominator must be an integer")
                if int(den_tok.text) == 0:
                    self._fail(den_tok, "zero denominator")
                return MultiPoly.const(self.vars, Q(num, int(den_tok.text)))
            return MultiPoly.const(self.vars, Q(num))
        if tok.kind == "name":
            if tok.text not in self.vars:
                self._fail(tok, f"unknown variable {tok.text!r}")
            return MultiPoly.var(self.vars, tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            close = self._next()
            if not (close.kind == "op" and close.text == ")"):
                self._fail(close, "expected ')'")
            return value
        self._fail(tok, f"unexpected {tok.text!r}")


def variable_names(*texts: str) -> Tuple[str, ...]:
    """The sorted names of the variables in all the texts together, or
    ("x",) when none has one: the variables that parse_poly gives one
    text when it is given none."""
    return _sorted_names([tok for text in texts for tok in _tokenize(text)])


def parse_poly(text: str, variables: Optional[Tuple[str, ...]] = None) -> MultiPoly:
    """Parse an expression into a MultiPoly.

    When variables is given the result uses exactly that (sorted) tuple;
    otherwise the variable set is the names appearing in the text.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError(text, "empty expression", 1, 1)
    if variables is None:
        variables = _sorted_names(tokens)
    return _Parser(text, tokens, tuple(variables)).parse()
