"""Polynomial expression parsing.

Grammar: integer and p/q literals, variables [a-z][a-z0-9]*, operators
+ - * ^ with the usual precedence, parentheses.  '/' is only part of a
rational literal, never a general division.  Exponents must be
nonnegative integer literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .multipoly import MultiPoly
from .rationals import Q


class PolySyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
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
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", line, col)
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


class _Parser:
    def __init__(self, tokens: List[Token], variables: Tuple[str, ...]):
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
            raise PolySyntaxError("unexpected end of input", line, col)
        self.pos += 1
        return tok

    def _fail(self, tok: Token, message: str):
        raise PolySyntaxError(message, tok.line, tok.column)

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
            else:
                return value

    def power(self) -> MultiPoly:
        base = self.atom()
        tok = self._peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self._next()
            exp_tok = self._peek()
            if exp_tok and exp_tok.kind == "op" and exp_tok.text == "(":
                # parenthesized exponents only legal for a bare nonnegative int
                self._next()
                inner = self._next()
                if inner.kind == "op" and inner.text == "-":
                    self._fail(inner, "negative exponents are not allowed")
                if inner.kind != "int":
                    self._fail(inner, "exponent must be a nonnegative integer")
                close = self._next()
                if not (close.kind == "op" and close.text == ")"):
                    self._fail(close, "expected ')'")
                return base ** int(inner.text)
            if exp_tok is None or exp_tok.kind != "int":
                bad = exp_tok or tok
                if exp_tok and exp_tok.kind == "op" and exp_tok.text == "-":
                    self._fail(exp_tok, "negative exponents are not allowed")
                self._fail(bad, "exponent must be a nonnegative integer")
            self._next()
            return base ** int(exp_tok.text)
        return base

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
            return MultiPoly.var(self.vars, tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            close = self._next()
            if not (close.kind == "op" and close.text == ")"):
                self._fail(close, "expected ')'")
            return value
        self._fail(tok, f"unexpected {tok.text!r}")


def parse_poly(text: str, variables: Optional[Tuple[str, ...]] = None) -> MultiPoly:
    """Parse an expression into a MultiPoly.

    When variables is given the result uses exactly that (sorted) tuple;
    otherwise the variable set is the names appearing in the text.
    """
    tokens = _tokenize(text)
    names = sorted({t.text for t in tokens if t.kind == "name"})
    if variables is None:
        variables = tuple(names) if names else ("x",)
    else:
        missing = [n for n in names if n not in variables]
        if missing:
            first = next(t for t in tokens if t.text == missing[0])
            raise PolySyntaxError(f"unknown variable {missing[0]!r}", first.line, first.column)
    if not tokens:
        raise PolySyntaxError("empty expression", 1, 1)
    return _Parser(tokens, tuple(variables)).parse()
