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

`!(a | b)` over atoms is accepted and normalized to `!a & !b`; any other
compound under `!` is rejected (NegationOfCompound).

Belief-expression grammar (predicate definitions; no division):

    expr   ::= term (('+' | '-') term)*
    term   ::= factor ('*' factor)*
    factor ::= NUMBER | '-' factor | 'b' '(' IDENT ')'
             | ('min' | 'max') '(' expr (',' expr)* ')'
             | '(' expr ')'
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaSyntaxError, NegationOfCompound, UnknownPredicate, UnknownState
from .ldtl import (
    And, Always, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Formula, Max, Min, NegBeliefPred, NegStateSet, Next, Or,
    Product, StateSet, Sum, Until,
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


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

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


# --------------------------------------------------------------------------
# Formula parser

_TEMPORAL = {"G": Always, "F": Eventually, "X": Next}


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
        phi = self._term(cur)
        while cur.peek().kind in ("&", "|"):
            op = cur.advance()
            rhs = self._term(cur)
            phi = And(phi, rhs) if op.kind == "&" else Or(phi, rhs)
        return phi

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
            return _negate_atom(self._atom(cur))
        if tok.kind == "(":
            cur.advance()
            inner = self._formula(cur)
            cur.expect(")")
            atoms = _disjunction_of_atoms(inner)
            if atoms is None:
                raise NegationOfCompound(
                    "`!` applies only to an atom or to a parenthesized "
                    "disjunction of atoms",
                    bang.line, bang.column,
                )
            negated = [_negate_atom(a) for a in atoms]
            phi: Formula = negated[0]
            for nxt in negated[1:]:
                phi = And(phi, nxt)
            return phi
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


def _negate_atom(atom: Formula) -> Formula:
    if isinstance(atom, StateSet):
        return NegStateSet(atom.indices, atom.names)
    if isinstance(atom, BeliefPred):
        return NegBeliefPred(atom.name, atom.expr)
    raise TypeError(f"not a positive atom: {atom!r}")


def _disjunction_of_atoms(phi: Formula) -> list[Formula] | None:
    """Flatten an or-chain of positive atoms; None if phi is anything else."""
    if isinstance(phi, (StateSet, BeliefPred)):
        return [phi]
    if isinstance(phi, Or):
        left = _disjunction_of_atoms(phi.left)
        right = _disjunction_of_atoms(phi.right)
        if left is None or right is None:
            return None
        return left + right
    return None


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
        node = self._mul(cur)
        while cur.peek().kind in ("+", "-"):
            op = cur.advance()
            rhs = self._mul(cur)
            if op.kind == "+":
                node = Sum(node.children + (rhs,)) if isinstance(node, Sum) else Sum((node, rhs))
            else:
                node = Difference(node, rhs)
        return node

    def _mul(self, cur: _Cursor) -> BeliefExpr:
        node = self._factor(cur)
        while cur.peek().kind == "*":
            cur.advance()
            rhs = self._factor(cur)
            node = Product(node.children + (rhs,)) if isinstance(node, Product) else Product((node, rhs))
        return node

    def _factor(self, cur: _Cursor) -> BeliefExpr:
        tok = cur.peek()
        if tok.kind == "number":
            cur.advance()
            try:
                return Constant(float(tok.text))
            except ValueError:
                raise FormulaSyntaxError(f"bad number {tok.text!r}", tok.line, tok.column)
        if tok.kind == "-":
            cur.advance()
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
