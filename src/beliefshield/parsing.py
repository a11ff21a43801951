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
    factor ::= NUMBER | '-' factor | 'b' '(' IDENT ')'
             | ('min' | 'max') '(' expr (',' expr)* ')'
             | '(' expr ')'

A NUMBER must be finite. Each `term` of a formula and each `factor` of
an expression is one level of nesting. So is each `&` or `|` of a
formula chain and each `-` of an expression chain, since a chain builds
a tree as deep as it is long; `+` and `*` build one flat node and are
not counted. Neither parser goes deeper than MAX_NESTING levels: both
raise FormulaSyntaxError at the token that would.

A tree built in Python has no text to count. `formula_nesting` and
`expr_nesting` measure it without recursion: the levels the parser
counts in the cheapest text that spells it, which is the text
`pretty_print` and `expr_text` write. So a tree parsed from any accepted
text measures at most MAX_NESTING.
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


# Deepest nesting of parentheses, operators, calls and chain links
# either parser accepts. Each level costs the parser, or a walker of the
# tree it builds, a few stack frames, so without a bound deep text would
# exhaust the interpreter's recursion limit.
MAX_NESTING = 100


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0    # levels open at the current token
        self.deepest = 0  # deepest level the innermost chain has built

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

    def link(self) -> None:
        """Count one more link of the innermost chain: all it has built
        so far goes one level deeper."""
        if self.deepest == MAX_NESTING:
            raise self.too_deep()
        self.deepest += 1

    def too_deep(self) -> FormulaSyntaxError:
        tok = self.peek()
        return FormulaSyntaxError(f"nested deeper than {MAX_NESTING} levels",
                                  tok.line, tok.column)

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
            raise cur.too_deep()
        cur.depth += 1
        cur.deepest = max(cur.deepest, cur.depth)
        result = parse(self, cur)
        cur.depth -= 1
        return result
    return nested


def _chain(parse):
    """Measure a chain parse method on its own: the links it counts
    deepen what it builds, not the siblings parsed before it."""
    def chain(self, cur: _Cursor):
        outer, cur.deepest = cur.deepest, cur.depth
        result = parse(self, cur)
        cur.deepest = max(outer, cur.deepest)
        return result
    return chain


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

    @_chain
    def _formula(self, cur: _Cursor) -> Formula:
        phi = self._term(cur)
        while cur.peek().kind in ("&", "|"):
            op = cur.advance()
            cur.link()
            rhs = self._term(cur)
            phi = And(phi, rhs) if op.kind == "&" else Or(phi, rhs)
        return phi

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
            atoms = _disjunction_of_atoms(inner)
            if atoms is None:
                raise NegationOfCompound(
                    "`!` applies only to an atom or to a parenthesized "
                    "disjunction of atoms",
                    bang.line, bang.column,
                )
            negated = [replace(a, negated=True) for a in atoms]
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


def _disjunction_of_atoms(phi: Formula) -> list[Formula] | None:
    """Flatten an or-chain of positive atoms; None if phi is anything else."""
    if isinstance(phi, (StateSet, BeliefPred)) and not phi.negated:
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

    @_chain
    def _expr(self, cur: _Cursor) -> BeliefExpr:
        node = self._mul(cur)
        while cur.peek().kind in ("+", "-"):
            op = cur.advance()
            if op.kind == "-":
                cur.link()
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

    @_nested
    def _factor(self, cur: _Cursor) -> BeliefExpr:
        tok = cur.peek()
        if tok.kind == "number":
            cur.advance()
            try:
                value = float(tok.text)
            except ValueError:
                raise FormulaSyntaxError(f"bad number {tok.text!r}", tok.line, tok.column)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number {tok.text!r} is not finite",
                                         tok.line, tok.column)
            return Constant(value)
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


# --------------------------------------------------------------------------
# Nesting of trees built in Python


def _post_order(root, children, levels):
    """levels(node, [levels of each child]) at root, children first, with
    an explicit stack; a node shared by several parents is measured once."""
    done: dict[int, tuple[int, ...]] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = children(node)
        todo = [k for k in kids if id(k) not in done]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            done[id(node)] = levels(node, [done[id(k)] for k in kids])
    return done[id(root)]


def _formula_children(phi) -> tuple:
    if isinstance(phi, (And, Or, Until)):
        return (phi.left, phi.right)
    if isinstance(phi, (Always, Eventually, Next)):
        return (phi.child,)
    return ()


def _formula_levels(phi, kids: list[tuple[int, int]]) -> tuple[int, int]:
    """(as a formula, as a term). A link deepens its chain's left side
    only; a chain as a term needs parentheses, one term deeper."""
    if isinstance(phi, (And, Or)):
        (left, _), (_, right) = kids
        chain = max(left + 1, right)
        return chain, 1 + chain
    if kids:  # a temporal operator or until: one term around its operands' terms
        term = 1 + max(t for _, t in kids)
        return term, term
    return 1, 1


def formula_nesting(phi: Formula) -> int:
    """The levels the formula parser counts in the cheapest text that
    spells phi."""
    return _post_order(phi, _formula_children, _formula_levels)[0]


def _expr_children(expr) -> tuple:
    if isinstance(expr, (Sum, Product, Min, Max)):
        return expr.children
    if isinstance(expr, Difference):
        return (expr.left, expr.right)
    return ()


def _expr_levels(expr, kids: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(as an expression, as a term, as a factor). A `-` link deepens its
    chain's left side only; a chain in a term's or a factor's place and
    a product in a factor's place need parentheses, one factor deeper.
    A sum first in a sum, which no text spells (the parser flattens
    it), counts as one in parentheses too, so that sums cannot nest
    unmeasured. `0 - x` is also the unary `-x`, one factor around x's."""
    if not kids:
        return 1, 1, 1
    if isinstance(expr, Sum):
        first = kids[0][2] if isinstance(expr.children[0], Sum) else kids[0][0]
        chain = max([first] + [t for _, t, _ in kids[1:]])
        return chain, 1 + chain, 1 + chain
    if isinstance(expr, Product):
        term = max(f for _, _, f in kids)
        return term, term, 1 + term
    if isinstance(expr, Difference):
        (left, _, _), (_, right, right_factor) = kids
        chain = max(left + 1, right)
        factor = 1 + chain
        if expr.left == Constant(0.0):
            factor = min(factor, 1 + right_factor)
        return chain, factor, factor
    factor = 1 + max(e for e, _, _ in kids)  # min or max of whole expressions
    return factor, factor, factor


def expr_nesting(expr: BeliefExpr) -> int:
    """The levels the expression parser counts in the cheapest text that
    spells expr."""
    return _post_order(expr, _expr_children, _expr_levels)[0]
