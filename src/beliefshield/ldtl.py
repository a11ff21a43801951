"""Linear temporal logic over belief trajectories: ASTs, expression
evaluation, finite-trace semantics, and canonical printing.

Atoms are either state-set membership (the hidden state lies in a set A)
or belief predicates (an arithmetic expression f over belief entries,
satisfied when f(b) < 0). Negation exists only on atoms; compound
structure is built from and/or and the temporal operators next, until,
eventually, always.

The trace oracle evaluates a formula on a finite word of
(hidden state, belief) letters with the standard finite-trace closure:
`always` means "at every remaining position", `eventually` and `until`
need an in-word witness, and `next` at the last position is false.
Belief atoms carry their expression compiled once (compile_expr), and
the oracle applies it to each letter's entries, taken once per letter.
The tests keep a tree-walking evaluator as the reference that
compile_expr matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence, Union

from .model import Belief

# --------------------------------------------------------------------------
# Belief expressions

BeliefExpr = Union["Constant", "BeliefVar", "Sum", "Difference", "Product", "Min", "Max"]


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class BeliefVar:
    """One belief entry b(q); carries the state name for printing."""

    index: int
    name: str


@dataclass(frozen=True)
class Sum:
    children: tuple[BeliefExpr, ...]


@dataclass(frozen=True)
class Difference:
    left: BeliefExpr
    right: BeliefExpr


@dataclass(frozen=True)
class Product:
    children: tuple[BeliefExpr, ...]


@dataclass(frozen=True)
class Min:
    children: tuple[BeliefExpr, ...]


@dataclass(frozen=True)
class Max:
    children: tuple[BeliefExpr, ...]


Evaluator = Callable[[Sequence[float]], float]


def compile_expr(expr: BeliefExpr) -> Evaluator:
    """Compile an expression into a function of the belief entries as
    Python floats (`belief.probs.tolist()`).

    The function performs the float operations of the tests'
    tree-walking reference evaluator in the same order (`sum`, `min`
    and `max` are the builtins, products fold from 1.0), so its value
    is bit-identical to the reference's.
    """
    if isinstance(expr, Constant):
        value = float(expr.value)
        return lambda p: value
    if isinstance(expr, BeliefVar):
        return itemgetter(expr.index)
    if isinstance(expr, Sum):
        if len(expr.children) > 1 and all(isinstance(c, BeliefVar) for c in expr.children):
            entries = itemgetter(*(c.index for c in expr.children))
            return lambda p: sum(entries(p))
        terms = tuple(compile_expr(c) for c in expr.children)
        return lambda p: sum([f(p) for f in terms])
    if isinstance(expr, Difference):
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        return lambda p: left(p) - right(p)
    if isinstance(expr, Product):
        factors = tuple(compile_expr(c) for c in expr.children)

        def product(p):
            out = 1.0
            for f in factors:
                out *= f(p)
            return out
        return product
    if isinstance(expr, Min):
        terms = tuple(compile_expr(c) for c in expr.children)
        return lambda p: min([f(p) for f in terms])
    if isinstance(expr, Max):
        terms = tuple(compile_expr(c) for c in expr.children)
        return lambda p: max([f(p) for f in terms])
    raise TypeError(f"not a belief expression: {expr!r}")


def _expr_text(expr: BeliefExpr, parent: str = "") -> str:
    if isinstance(expr, Constant):
        return repr(float(expr.value))
    if isinstance(expr, BeliefVar):
        return f"b({expr.name})"
    if isinstance(expr, Sum):
        text = " + ".join(_expr_text(c, "add") for c in expr.children)
        return f"({text})" if parent in ("add", "mul") else text
    if isinstance(expr, Difference):
        text = f"{_expr_text(expr.left, 'add')} - {_expr_text(expr.right, 'add')}"
        return f"({text})" if parent in ("add", "mul") else text
    if isinstance(expr, Product):
        text = " * ".join(_expr_text(c, "mul") for c in expr.children)
        return f"({text})" if parent == "mul" else text
    if isinstance(expr, Min):
        return "min(" + ", ".join(_expr_text(c) for c in expr.children) + ")"
    if isinstance(expr, Max):
        return "max(" + ", ".join(_expr_text(c) for c in expr.children) + ")"
    raise TypeError(f"not a belief expression: {expr!r}")


def expr_text(expr: BeliefExpr) -> str:
    """Expression in the concrete syntax accepted by the config parser."""
    return _expr_text(expr)


# --------------------------------------------------------------------------
# Formulas

Formula = Union[
    "StateSet", "NegStateSet", "BeliefPred", "NegBeliefPred",
    "And", "Or", "Next", "Until", "Eventually", "Always",
]


@dataclass(frozen=True)
class StateSet:
    """Hidden state lies in the named set."""

    indices: tuple[int, ...]
    names: tuple[str, ...]


@dataclass(frozen=True)
class NegStateSet:
    indices: tuple[int, ...]
    names: tuple[str, ...]


@dataclass(frozen=True)
class BeliefPred:
    """Satisfied when expr(belief) < 0. evaluator is expr compiled once,
    for the oracle."""

    name: str
    expr: BeliefExpr
    evaluator: Evaluator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "evaluator", compile_expr(self.expr))


@dataclass(frozen=True)
class NegBeliefPred:
    """Satisfied when expr(belief) >= 0. evaluator is expr compiled once,
    for the oracle."""

    name: str
    expr: BeliefExpr
    evaluator: Evaluator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "evaluator", compile_expr(self.expr))


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next:
    child: Formula


@dataclass(frozen=True)
class Until:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually:
    child: Formula


@dataclass(frozen=True)
class Always:
    child: Formula


_ATOMS = (StateSet, NegStateSet, BeliefPred, NegBeliefPred)
_POSITIVE_ATOMS = (StateSet, BeliefPred)


def is_atom(phi: Formula) -> bool:
    return isinstance(phi, _ATOMS)


def is_propositional(phi: Formula) -> bool:
    """True when phi contains no temporal operator."""
    if is_atom(phi):
        return True
    if isinstance(phi, (And, Or)):
        return is_propositional(phi.left) and is_propositional(phi.right)
    return False


# --------------------------------------------------------------------------
# Finite-trace oracle


@dataclass(frozen=True)
class Letter:
    """One position of a word: hidden state index and the belief held.
    entries is `belief.probs.tolist()`, taken once for every atom the
    oracle evaluates at this position."""

    state: int
    belief: Belief
    entries: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", self.belief.probs.tolist())


Word = tuple[Letter, ...]


def oracle_satisfies(phi: Formula, word: Word, i: int = 0) -> bool:
    """Ground-truth satisfaction of phi at position i of a finite word."""
    if not 0 <= i < len(word):
        raise IndexError(f"position {i} outside word of length {len(word)}")
    if isinstance(phi, StateSet):
        return word[i].state in phi.indices
    if isinstance(phi, NegStateSet):
        return word[i].state not in phi.indices
    if isinstance(phi, BeliefPred):
        return phi.evaluator(word[i].entries) < 0.0
    if isinstance(phi, NegBeliefPred):
        return phi.evaluator(word[i].entries) >= 0.0
    if isinstance(phi, And):
        return oracle_satisfies(phi.left, word, i) and oracle_satisfies(phi.right, word, i)
    if isinstance(phi, Or):
        return oracle_satisfies(phi.left, word, i) or oracle_satisfies(phi.right, word, i)
    if isinstance(phi, Next):
        # No next position on a finite word: false at the last letter.
        return i + 1 < len(word) and oracle_satisfies(phi.child, word, i + 1)
    if isinstance(phi, Until):
        for j in range(i, len(word)):
            if oracle_satisfies(phi.right, word, j):
                return all(oracle_satisfies(phi.left, word, k) for k in range(i, j))
        return False
    if isinstance(phi, Eventually):
        return any(oracle_satisfies(phi.child, word, j) for j in range(i, len(word)))
    if isinstance(phi, Always):
        return all(oracle_satisfies(phi.child, word, j) for j in range(i, len(word)))
    raise TypeError(f"not a formula: {phi!r}")


# --------------------------------------------------------------------------
# Printing


def _state_set_text(names: tuple[str, ...]) -> str:
    return "in({" + ", ".join(names) + "})"


def _term_text(phi: Formula) -> str:
    """Render phi as a grammar `term`, parenthesizing and/or children."""
    if isinstance(phi, StateSet):
        return _state_set_text(phi.names)
    if isinstance(phi, NegStateSet):
        return "!" + _state_set_text(phi.names)
    if isinstance(phi, BeliefPred):
        return phi.name
    if isinstance(phi, NegBeliefPred):
        return "!" + phi.name
    if isinstance(phi, Next):
        return "X " + _term_text(phi.child)
    if isinstance(phi, Eventually):
        return "F " + _term_text(phi.child)
    if isinstance(phi, Always):
        return "G " + _term_text(phi.child)
    if isinstance(phi, Until):
        if not isinstance(phi.left, _POSITIVE_ATOMS):
            raise ValueError(
                "the concrete grammar only allows a plain atom on the left of U"
            )
        return _term_text(phi.left) + " U " + _term_text(phi.right)
    if isinstance(phi, (And, Or)):
        return "(" + pretty_print(phi) + ")"
    raise TypeError(f"not a formula: {phi!r}")


def pretty_print(phi: Formula) -> str:
    """Formula in the concrete text syntax; parse(pretty_print(phi))
    reconstructs phi for any grammar-expressible AST.

    Raises ValueError for shapes the grammar cannot spell (an until
    whose left side is not a plain atom).
    """
    if isinstance(phi, (And, Or)):
        op = " & " if isinstance(phi, And) else " | "
        left = pretty_print(phi.left) if isinstance(phi.left, (And, Or)) else _term_text(phi.left)
        return left + op + _term_text(phi.right)
    return _term_text(phi)


def describe(phi: Formula) -> str:
    """Best-effort text for labels; never raises."""
    try:
        return pretty_print(phi)
    except ValueError:
        return repr(phi)
