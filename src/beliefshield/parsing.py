"""Recursive-descent parsers for the formula language and for belief
expressions, with line/column error reporting.

Formula grammar (operators `&` and `|` share one precedence level and
associate left; `!` binds to atoms only):

    formula ::= term (('&' | '|') term)*
    term    ::= 'G' term | 'F' term | 'X' term
              | atom 'U' term
              | '!' negated
              | atom
              | '(' formula ')'
    negated ::= atom | '(' atom ('|' atom)* ')'
    atom    ::= IDENT                        # predicate name
              | 'in' '(' '{' IDENT (',' IDENT)* '}' ')'

A negated atom is the atom with `negated=True`. `!(a | b)` over atoms
is accepted and normalized to `!a & !b`; any other compound under `!`
is rejected (NegationOfCompound).

Belief-expression grammar (predicate definitions; no division):

    expr   ::= term (('+' | '-') term)*
    term   ::= factor ('*' factor)*
    factor ::= NUMBER | '-' NUMBER | '-' factor | 'b' '(' IDENT ')'
             | ('min' | 'max') '(' expr (',' expr)* ')'
             | '(' expr ')'

A NUMBER must be finite. `-` before a NUMBER makes one negative
constant, 0.0 - NUMBER; before any other factor f it is 0 - f. Each
`term` of a formula and each `factor` of an expression is one level of
nesting, the levels the parsers recurse through. Neither parser goes
deeper than MAX_NESTING levels: both raise FormulaSyntaxError at the
token that would. A chain (`&`, `|`, `+`, `-`, `*`) is parsed in a
loop, so it costs no level at any length. A run of one of `&`, `|`,
`+`, `*` is one node; `-` builds a tree as tall as the chain is long.
The tree's height (`ldtl.height`) is bounded where the scenario is
built, by `ScenarioConfig`, for parsed trees and trees built in Python
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import FormulaSyntaxError, NegationOfCompound, UnknownPredicate, UnknownState
from .ldtl import (
    And, Always, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Formula, Max, Min, Next, Or, Product, StateSet, Sum, Until,
)

_SYMBOLS = ("&", "|", "!", "(", ")", "{", "}", ",", "+", "-", "*", "=")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "number", one of _SYMBOLS, or "end"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
    end_col = col
    tokens.append(Token("end", "", line, end_col))
    return tokens


# Deepest nesting either parser accepts, and the greatest height of a
# formula or predicate a scenario accepts. Each level costs the parser,
# or a walker of the tree, a few stack frames, so without a bound a deep
# text or tree would exhaust the interpreter's recursion limit.
MAX_NESTING = 100


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels open at the current token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, *expected_names: str) -> Token:
        if self.peek().kind != kind:
            raise self.unexpected(*(expected_names or (kind,)))
        return self.advance()

    def unexpected(self, *expected: str) -> FormulaSyntaxError:
        """The error for the next token, where one of `expected` belongs."""
        tok = self.peek()
        return FormulaSyntaxError(
            f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'}"
            + (f" {tok.text!r}" if tok.text else ""),
            tok.line, tok.column, expected,
        )


def _nested(parse):
    """Count the levels of a recursive parse method on the cursor, and
    refuse to go deeper than MAX_NESTING."""
    def nested(self, cur: _Cursor):
        if cur.depth == MAX_NESTING:
            tok = cur.peek()
            raise FormulaSyntaxError(f"nested deeper than {MAX_NESTING} levels",
                                     tok.line, tok.column)
        cur.depth += 1
        result = parse(self, cur)
        cur.depth -= 1
        return result
    return nested


# --------------------------------------------------------------------------
# Formula parser

_TEMPORAL = {"G": Always, "F": Eventually, "X": Next}
_CHAINS = {"&": And, "|": Or}


class FormulaParser:
    """Binds predicate names and state names at parse time."""

    def __init__(self, predicates: dict[str, BeliefExpr], state_index: dict[str, int]):
        self.predicates = predicates
        self.state_index = state_index

    def parse(self, text: str) -> Formula:
        cur = _Cursor(tokenize(text))
        phi = self._formula(cur)
        tok = cur.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(
                f"unexpected {tok.kind} {tok.text!r} after formula",
                tok.line, tok.column, ("&", "|", "end of input"),
            )
        return phi

    def _formula(self, cur: _Cursor) -> Formula:
        # Each maximal run of one operator is one node, built by one
        # call when the run ends: one pass over its operands.
        operands = [self._term(cur)]
        op = None
        while cur.peek().kind in ("&", "|"):
            kind = cur.advance().kind
            if kind != op and len(operands) > 1:
                operands = [_CHAINS[op](*operands)]
            op = kind
            operands.append(self._term(cur))
        return _CHAINS[op](*operands) if len(operands) > 1 else operands[0]

    @_nested
    def _term(self, cur: _Cursor) -> Formula:
        tok = cur.peek()
        if tok.kind == "ident" and tok.text in _TEMPORAL:
            cur.advance()
            return _TEMPORAL[tok.text](self._term(cur))
        if tok.kind == "!":
            cur.advance()
            return self._negated(cur, tok)
        if tok.kind == "(":
            cur.advance()
            phi = self._formula(cur)
            cur.expect(")")
            return phi
        if tok.kind == "ident":
            atom = self._atom(cur)
            if cur.peek().kind == "ident" and cur.peek().text == "U":
                cur.advance()
                return Until(atom, self._term(cur))
            return atom
        raise cur.unexpected("G", "F", "X", "!", "(", "predicate name", "in")

    def _negated(self, cur: _Cursor, bang: Token) -> Formula:
        tok = cur.peek()
        if tok.kind == "ident":
            return replace(self._atom(cur), negated=True)
        if tok.kind == "(":
            cur.advance()
            inner = self._formula(cur)
            cur.expect(")")
            atoms = inner.children if isinstance(inner, Or) else (inner,)
            if not all(isinstance(a, (StateSet, BeliefPred)) and not a.negated
                       for a in atoms):
                raise NegationOfCompound(
                    "`!` applies only to an atom or to a parenthesized "
                    "disjunction of atoms",
                    bang.line, bang.column,
                )
            negated = [replace(a, negated=True) for a in atoms]
            return And(*negated) if len(negated) > 1 else negated[0]
        raise FormulaSyntaxError(
            f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'} after `!`",
            tok.line, tok.column, ("predicate name", "in", "("),
        )

    def _atom(self, cur: _Cursor) -> Formula:
        tok = cur.expect("ident", "predicate name", "in")
        if tok.text == "in":
            cur.expect("(")
            cur.expect("{")
            names = [cur.expect("ident", "state name").text]
            while cur.peek().kind == ",":
                cur.advance()
                names.append(cur.expect("ident", "state name").text)
            cur.expect("}")
            cur.expect(")")
            indices = []
            for name in names:
                if name not in self.state_index:
                    raise UnknownState(name)
                indices.append(self.state_index[name])
            order = sorted(range(len(indices)), key=lambda k: indices[k])
            return StateSet(tuple(indices[k] for k in order), tuple(names[k] for k in order))
        if tok.text not in self.predicates:
            raise UnknownPredicate(tok.text)
        return BeliefPred(tok.text, self.predicates[tok.text])


def parse_formula(text: str, predicates: dict[str, BeliefExpr],
                  state_index: dict[str, int]) -> Formula:
    """Parse formula text, resolving predicate and state names."""
    return FormulaParser(predicates, state_index).parse(text)


# --------------------------------------------------------------------------
# Belief-expression parser


class ExprParser:
    def __init__(self, state_index: dict[str, int]):
        self.state_index = state_index

    def parse(self, text: str) -> BeliefExpr:
        cur = _Cursor(tokenize(text))
        expr = self._expr(cur)
        tok = cur.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(
                f"unexpected {tok.kind} {tok.text!r} after expression",
                tok.line, tok.column, ("+", "-", "*", "end of input"),
            )
        return expr

    def _expr(self, cur: _Cursor) -> BeliefExpr:
        # Each run of `+` is one Sum, built when the run ends; a Sum the
        # run starts from (a parenthesized one) is extended, not nested.
        node = self._mul(cur)
        while cur.peek().kind in ("+", "-"):
            if cur.advance().kind == "-":
                node = Difference(node, self._mul(cur))
                continue
            terms = [*node.children] if isinstance(node, Sum) else [node]
            terms.append(self._mul(cur))
            while cur.peek().kind == "+":
                cur.advance()
                terms.append(self._mul(cur))
            node = Sum(tuple(terms))
        return node

    def _mul(self, cur: _Cursor) -> BeliefExpr:
        # Each run of `*` is one Product, built as _expr builds a Sum.
        node = self._factor(cur)
        if cur.peek().kind != "*":
            return node
        factors = [*node.children] if isinstance(node, Product) else [node]
        while cur.peek().kind == "*":
            cur.advance()
            factors.append(self._factor(cur))
        return Product(tuple(factors))

    @staticmethod
    def _number(cur: _Cursor) -> float:
        tok = cur.advance()
        try:
            value = float(tok.text)
        except ValueError:
            raise FormulaSyntaxError(f"bad number {tok.text!r}", tok.line, tok.column)
        if not math.isfinite(value):
            raise FormulaSyntaxError(f"number {tok.text!r} is not finite",
                                     tok.line, tok.column)
        return value

    @_nested
    def _factor(self, cur: _Cursor) -> BeliefExpr:
        tok = cur.peek()
        if tok.kind == "number":
            return Constant(self._number(cur))
        if tok.kind == "-":
            cur.advance()
            if cur.peek().kind == "number":
                # A negative number, at this one level. 0.0 - x is the
                # value `0 - x` has always had: -x, and +0.0 for `-0`.
                return Constant(0.0 - self._number(cur))
            return Difference(Constant(0.0), self._factor(cur))
        if tok.kind == "(":
            cur.advance()
            inner = self._expr(cur)
            cur.expect(")")
            return inner
        if tok.kind == "ident" and tok.text == "b":
            cur.advance()
            cur.expect("(")
            name_tok = cur.expect("ident", "state name")
            cur.expect(")")
            if name_tok.text not in self.state_index:
                raise UnknownState(name_tok.text)
            return BeliefVar(self.state_index[name_tok.text], name_tok.text)
        if tok.kind == "ident" and tok.text in ("min", "max"):
            cur.advance()
            cur.expect("(")
            children = [self._expr(cur)]
            while cur.peek().kind == ",":
                cur.advance()
                children.append(self._expr(cur))
            cur.expect(")")
            return Min(tuple(children)) if tok.text == "min" else Max(tuple(children))
        raise cur.unexpected("number", "b(", "min(", "max(", "(", "-")


def parse_expr(text: str, state_index: dict[str, int]) -> BeliefExpr:
    """Parse belief-expression text, resolving state names."""
    return ExprParser(state_index).parse(text)
