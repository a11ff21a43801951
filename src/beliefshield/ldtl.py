"""Linear temporal logic over belief trajectories: ASTs and their
height, expression evaluation, finite-trace semantics, and canonical
printing.

Atoms are either state-set membership (the hidden state lies in a set A)
or belief predicates (an arithmetic expression f over belief entries,
satisfied when f(b) < 0). Negation exists only on atoms, so a negated
atom is the same atom with `negated=True`; compound structure is built
from and/or and the temporal operators next, until, eventually, always.
An and/or node is a whole chain of its operator, its operands a tuple
like a sum's, so `height` counts a chain as one level, as the parser
does, and no walker recurses along a chain.

The trace oracle evaluates a formula on a finite word of (hidden
state, belief entries) letters with the standard finite-trace closure:
`always` means "at every remaining position", `eventually` and `until`
need an in-word witness, and `next` at the last position is false.
compile_expr turns an expression into one generated Python function,
a flat sequence of assignments with one local per inner node, of a
list of floats. A belief atom compiles its expression on first use, so
only the oracle pays for it, and the oracle applies it to each letter's
entries, a list of floats. A monitor compiles each barrier with a
lookup that reads its sums of entries as leaves, and applies it to the
leaf values it gathers from the belief array (see `monitor`). The tests
keep a tree-walking evaluator as the reference that compile_expr
matches bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

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

# How each variadic node folds its children: from a start value with an
# operator, left to right, or with a builtin.
_FOLDS = {Sum: ("0.0", " + "), Product: ("1.0", " * ")}
_BUILTINS = {Min: "min", Max: "max"}

# Operands per generated line of a fold. CPython compiles a chain of
# binary operators recursively, and one of about 3000 operands exceeds
# its recursion limit, so a longer fold continues on further lines.
_FOLD_CHUNK = 256


def _entry(node: BeliefExpr) -> int | None:
    """compile_expr's default leaf lookup: `BeliefVar(i)` reads p[i]."""
    return operator.index(node.index) if isinstance(node, BeliefVar) else None


def compile_expr(expr: BeliefExpr,
                 leaf: Callable[[BeliefExpr], int | None] = _entry) -> Evaluator:
    """Compile an expression into one generated function of a list of
    floats p. leaf(node) is the position in p of a node read as one
    value, or None for a node compiled from its children. By default
    `BeliefVar(i)` reads p[i], for a belief's entries
    (`belief.probs.tolist()`, as the oracle passes them); a monitor
    passes the positions of its leaf values (see `monitor`).

    The function assigns one local per inner node, in post-order, from
    operands that are leaves `p[i]`, constants bound by name in the
    function's globals, or earlier locals:

        def expr(p):
            t0 = 0.0 + p[4] + p[9]
            t1 = c0 - t0
            return t1

    It performs the float operations of the tests' tree-walking
    reference evaluator in the same order: sums fold their children
    left to right from 0.0 and products from 1.0, and `min` and `max`
    are the builtins on the children's values. So its value is
    bit-identical to the reference's, and no builtin `sum`, whose float
    algorithm differs between Python versions, enters it. Only the int
    positions leaf returns and generated names enter the source, the
    source has no nesting, and a fold of more than _FOLD_CHUNK operands
    continues on further lines that reassign its local, so any
    expression compiles, however deep or wide. Raises TypeError for a
    node that is not an expression or an index that is not an integer.
    """
    namespace: dict[str, float] = {}
    lines: list[str] = []
    operands: list[str] = []  # one per finished node, in post-order
    inner = 0  # inner nodes finished, each with its own local
    todo: list[tuple[BeliefExpr, bool]] = [(expr, False)]
    while todo:
        node, children_done = todo.pop()
        position = leaf(node)
        if position is not None:
            operands.append(f"p[{position}]")
        elif isinstance(node, Constant):
            name = f"c{len(namespace)}"
            namespace[name] = float(node.value)
            operands.append(name)
        elif not isinstance(node, (Sum, Difference, Product, Min, Max)):
            raise TypeError(f"not a belief expression: {node!r}")
        elif not children_done:
            todo.append((node, True))
            todo.extend((c, False) for c in reversed(children(node)))
        else:
            split = len(operands) - len(children(node))
            args = operands[split:]
            del operands[split:]
            local = f"t{inner}"
            inner += 1
            if isinstance(node, Difference):
                lines.append(f"    {local} = {args[0]} - {args[1]}\n")
            elif isinstance(node, (Min, Max)):
                lines.append(f"    {local} = {_BUILTINS[type(node)]}(("
                             + "".join(a + ", " for a in args) + "))\n")
            else:
                start, op = _FOLDS[type(node)]
                for i in range(0, max(len(args), 1), _FOLD_CHUNK):
                    head = local if i else start
                    lines.append(f"    {local} = " + op.join([head, *args[i:i + _FOLD_CHUNK]]) + "\n")
            operands.append(local)
    source = "def expr(p):\n" + "".join(lines) + f"    return {operands[0]}\n"
    exec(compile(source, "<belief expression>", "exec"), namespace)
    # Popped, so that the function's globals do not hold it: no
    # reference cycle, and a dropped monitor is freed by reference
    # counting alone.
    return namespace.pop("expr")


def _expr_text(expr: BeliefExpr, parent: str = "") -> str:
    """parent is "" where a chain of `+` and `-` may stand bare: a whole
    expression, an argument, the left operand of `-` or the first term
    of `+`. It is "add" for a later operand of `+` or `-`, and "mul" for
    an operand of `*`."""
    if isinstance(expr, Constant):
        return repr(float(expr.value))
    if isinstance(expr, BeliefVar):
        return f"b({expr.name})"
    if isinstance(expr, Sum):
        text = " + ".join(_expr_text(c, "add" if i else "") for i, c in enumerate(expr.children))
        return f"({text})" if parent else text
    if isinstance(expr, Difference):
        # `-0.5` reads as one number, so only an entry is negated bare.
        if expr.left == Constant(0.0) and isinstance(expr.right, BeliefVar):
            return "-" + _expr_text(expr.right)
        text = f"{_expr_text(expr.left)} - {_expr_text(expr.right, 'add')}"
        return f"({text})" if parent else text
    if isinstance(expr, Product):
        text = " * ".join(_expr_text(c, "mul") for c in expr.children)
        return f"({text})" if parent == "mul" else text
    if isinstance(expr, Min):
        return "min(" + ", ".join(_expr_text(c) for c in expr.children) + ")"
    if isinstance(expr, Max):
        return "max(" + ", ".join(_expr_text(c) for c in expr.children) + ")"
    raise TypeError(f"not a belief expression: {expr!r}")


def expr_text(expr: BeliefExpr) -> str:
    """Expression in the concrete syntax accepted by the config parser,
    with no parentheses the parser does not need. Each level the parser
    counts in this text is a different node on one path of expr, so an
    expression of height at most 100 parses back within the parser's
    100 levels (`parsing.MAX_NESTING`)."""
    return _expr_text(expr)


# --------------------------------------------------------------------------
# Formulas

Formula = Union["StateSet", "BeliefPred", "And", "Or", "Next", "Until", "Eventually", "Always"]


@dataclass(frozen=True)
class StateSet:
    """Hidden state lies in the named set (outside it when negated)."""

    indices: tuple[int, ...]
    names: tuple[str, ...]
    negated: bool = False


@dataclass(frozen=True)
class BeliefPred:
    """Satisfied when expr(belief) < 0 (>= 0 when negated)."""

    name: str
    expr: BeliefExpr
    negated: bool = False

    @cached_property
    def evaluator(self) -> Evaluator:
        """expr compiled on first use, which only the oracle makes."""
        return compile_expr(self.expr)


@dataclass(frozen=True, init=False)
class _Chain:
    """A chain of one operator as one node: its operands, left to right,
    with each operand of the node's own type spliced in as its children,
    so that And(And(a, b), c), And(a, And(b, c)) and And(a, b, c) are
    the same node."""

    children: tuple[Formula, ...]

    def __init__(self, *operands: Formula):
        if len(operands) < 2:
            raise TypeError(f"{type(self).__name__} takes at least two operands")
        object.__setattr__(self, "children", tuple(
            k for o in operands for k in (o.children if type(o) is type(self) else (o,))))


class And(_Chain):
    pass


class Or(_Chain):
    pass


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


# --------------------------------------------------------------------------
# Tree shape


def children(node) -> tuple:
    """The subtrees directly under a formula or expression node. A belief
    atom is a leaf: its expression is a tree of its own."""
    if isinstance(node, (Sum, Product, Min, Max, _Chain)):
        return node.children
    if isinstance(node, (Difference, Until)):
        return (node.left, node.right)
    if isinstance(node, (Next, Eventually, Always)):
        return (node.child,)
    return ()


def height(root) -> int:
    """The number of nodes on the tallest path from root down to a leaf.
    Measured with an explicit stack, so a tree of any height measures,
    and a subtree shared by several parents is measured once."""
    done: dict[int, int] = {}
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
            done[id(node)] = 1 + max((done[id(k)] for k in kids), default=0)
    return done[id(root)]


def is_propositional(phi: Formula) -> bool:
    """True when phi contains no temporal operator."""
    if isinstance(phi, (StateSet, BeliefPred)):
        return True
    if isinstance(phi, _Chain):
        return all(is_propositional(c) for c in phi.children)
    return False


# --------------------------------------------------------------------------
# Finite-trace oracle


class Letter(NamedTuple):
    """One position of a word: hidden state index and the entries of the
    belief held, as a list of floats, which every belief atom the oracle
    evaluates at this position reads."""

    state: int
    entries: list[float]


Word = tuple[Letter, ...]


def oracle_satisfies(phi: Formula, word: Word, i: int = 0) -> bool:
    """Ground-truth satisfaction of phi at position i of a finite word."""
    if not 0 <= i < len(word):
        raise IndexError(f"position {i} outside word of length {len(word)}")
    if isinstance(phi, StateSet):
        return (word[i].state in phi.indices) != phi.negated
    if isinstance(phi, BeliefPred):
        # Two comparisons rather than one flipped: a NaN value is false
        # under both polarities.
        value = phi.evaluator(word[i].entries)
        return value >= 0.0 if phi.negated else value < 0.0
    # Plain loops rather than all/any over generators, which cost about
    # twice as much per operand; each stops at the same operand.
    if isinstance(phi, And):
        for c in phi.children:
            if not oracle_satisfies(c, word, i):
                return False
        return True
    if isinstance(phi, Or):
        for c in phi.children:
            if oracle_satisfies(c, word, i):
                return True
        return False
    if isinstance(phi, Next):
        # No next position on a finite word: false at the last letter.
        return i + 1 < len(word) and oracle_satisfies(phi.child, word, i + 1)
    if isinstance(phi, Until):
        for j in range(i, len(word)):
            if oracle_satisfies(phi.right, word, j):
                for k in range(i, j):
                    if not oracle_satisfies(phi.left, word, k):
                        return False
                return True
        return False
    if isinstance(phi, Eventually):
        for j in range(i, len(word)):
            if oracle_satisfies(phi.child, word, j):
                return True
        return False
    if isinstance(phi, Always):
        for j in range(i, len(word)):
            if not oracle_satisfies(phi.child, word, j):
                return False
        return True
    raise TypeError(f"not a formula: {phi!r}")


# --------------------------------------------------------------------------
# Printing


def _term_text(phi: Formula) -> str:
    """Render phi as a grammar `term`, parenthesizing and/or children."""
    if isinstance(phi, StateSet):
        return "!" * phi.negated + "in({" + ", ".join(phi.names) + "})"
    if isinstance(phi, BeliefPred):
        return "!" * phi.negated + phi.name
    if isinstance(phi, Next):
        return "X " + _term_text(phi.child)
    if isinstance(phi, Eventually):
        return "F " + _term_text(phi.child)
    if isinstance(phi, Always):
        return "G " + _term_text(phi.child)
    if isinstance(phi, Until):
        if not isinstance(phi.left, (StateSet, BeliefPred)) or phi.left.negated:
            raise ValueError(
                "the concrete grammar only allows a plain atom on the left of U"
            )
        return _term_text(phi.left) + " U " + _term_text(phi.right)
    if isinstance(phi, _Chain):
        return "(" + pretty_print(phi) + ")"
    raise TypeError(f"not a formula: {phi!r}")


def pretty_print(phi: Formula) -> str:
    """Formula in the concrete text syntax; parse(pretty_print(phi))
    reconstructs phi for any grammar-expressible AST.

    Raises ValueError for shapes the grammar cannot spell (an until
    whose left side is not a plain atom).
    """
    if isinstance(phi, _Chain):
        # A first operand that is a chain (of the other operator) reads
        # bare: `&` and `|` share one precedence and associate left.
        first, *rest = phi.children
        op = " & " if isinstance(phi, And) else " | "
        return op.join([pretty_print(first) if isinstance(first, _Chain)
                        else _term_text(first), *map(_term_text, rest)])
    return _term_text(phi)


def describe(phi: Formula) -> str:
    """Best-effort text for labels; never raises."""
    try:
        return pretty_print(phi)
    except ValueError:
        return repr(phi)
