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

Every walk that computes over a tree is one fold, fold_tree: an
explicit stack takes each node's children before the node, so a tree of
any height is walked without recursion, and each node object is visited
once however many parents share it. `height`, fold_oracle, belief_atoms,
leaf_table, compile_expr and `monitor.translate_core` are each one visit
over it. The printers (expr_text, pretty_print, describe) and the
dataclasses' `==` still recurse, one level per node on a path, within
the bound `parsing.MAX_NESTING` sets on a scenario's trees.

The trace oracle evaluates a formula on a finite word with the
standard finite-trace closure: `always` means "at every remaining
position", `eventually` and `until` need an in-word witness, and `next`
at the last position is false. oracle_columns gives the truth at every
position of a word given as columns, an array of hidden states and the
stack of the beliefs held: it walks the formula bottom-up without
recursion, as `height` does, each atom one boolean column over all
positions and each operator one array operation on its operands'
columns (fold_oracle). The tests keep a recursive oracle over a word of
(hidden state, belief entries) letters, one position at a time, as its
reference. The columns may hold several words laid end to
end, each read on its own up to its end, which is how the audit holds
a batch: X is false at each word's last position, and F, G and U look
for their witness or failure no further than the word's end.

compile_expr turns an expression into one generated Python function, a
flat sequence of assignments with one local per distinct inner node, of
a list of floats, so that a shared subtree is computed once.
oracle_columns compiles a formula's belief atoms over one leaf table,
for their truth at each row of a stack of beliefs; the audit compiles
them over the monitor's. A monitor compiles each barrier with its leaf
table's lookup, `LeafTable.slot`, which reads each sum of entries as one
leaf (leaf_table), and applies it to the leaf values one np.bincount
gathers from the belief array (gather_leaves; see `monitor`).
evaluate_columns runs the
same generated code on columns: each leaf reads a row of a 2-D array,
one column per position, +, - and * act elementwise, and min and max are
rebound to folds that pick, position by position, the operand the
builtin picks. The tests keep a tree-walking evaluator as the reference
that compile_expr matches bit for bit, and evaluate_columns matches
compile_expr row by row.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from types import FunctionType
from typing import Callable, Sequence, Union

import numpy as np

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
    (`belief.probs.tolist()`); a monitor passes its leaf table's
    `LeafTable.slot`, the positions of its leaf values (see `monitor`).

    The function assigns one local per inner node, in the order
    fold_tree visits them, children first, from operands that are leaves
    `p[i]`, constants bound by name in the function's globals, or
    earlier locals; a node shared by several parents is one local that
    each of them reads:

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
    inner = itertools.count()  # numbers each inner node's local

    def operand(node, args: list[str]) -> str:
        position = leaf(node)
        if position is not None:
            return f"p[{position}]"
        if isinstance(node, Constant):
            name = f"c{len(namespace)}"
            namespace[name] = float(node.value)
            return name
        if not isinstance(node, (Sum, Difference, Product, Min, Max)):
            raise TypeError(f"not a belief expression: {node!r}")
        local = f"t{next(inner)}"
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
        return local

    result = fold_tree(expr, operand,
                       lambda node: () if leaf(node) is not None else children(node))
    source = "def expr(p):\n" + "".join(lines) + f"    return {result}\n"
    exec(compile(source, "<belief expression>", "exec"), namespace)
    # Popped, so that the function's globals do not hold it: no
    # reference cycle, and a dropped monitor is freed by reference
    # counting alone.
    return namespace.pop("expr")


@dataclass(frozen=True)
class LeafTable:
    """Where a set of expressions reads a belief (see gather_leaves).
    index holds the state of every entry of every bin, bin by bin in
    child order, and bins the bin of each; bare holds the states of the
    entries read on their own. The expressions, compiled with the lookup
    `slot`, read bin k at position k of the leaf values and bare[j] at
    position n_bins + j."""

    index: np.ndarray
    bins: np.ndarray
    n_bins: int
    bare: np.ndarray
    slots: dict = field(repr=False, compare=False)  # by _leaf_key

    def slot(self, node: BeliefExpr) -> int | None:
        """A leaf's position among the leaf values, None for any other node."""
        return self.slots.get(_leaf_key(node))


def _leaf_key(node: BeliefExpr) -> tuple[int, ...] | int | None:
    """A leaf's state indices: a tuple for a bin, a sum whose children
    are all entries (at least one), an int for any other entry, and
    None for a node that is not a leaf."""
    if isinstance(node, BeliefVar):
        return operator.index(node.index)
    if (isinstance(node, Sum) and node.children
            and all(isinstance(c, BeliefVar) for c in node.children)):
        return tuple(operator.index(c.index) for c in node.children)
    return None


def leaf_table(exprs: list[BeliefExpr]) -> LeafTable:
    """The leaf table of exprs. Equal sums share one bin and an entry is
    read once, however often it occurs. Walked with fold_tree, so a
    shared subtree is walked once."""
    bins: dict[tuple[int, ...], int] = {}
    bare: dict[int, int] = {}

    def register(node, _) -> None:
        key = _leaf_key(node)
        if isinstance(key, tuple):
            bins.setdefault(key, len(bins))
        elif key is not None:
            bare.setdefault(key, len(bare))

    # One walk of every expression, under a node that only joins them;
    # a leaf's own children are not walked.
    fold_tree(Min(tuple(exprs)), register,
              lambda node: () if _leaf_key(node) is not None else children(node))
    return LeafTable(
        index=np.array([q for key in bins for q in key], dtype=np.intp),
        bins=np.array([k for key, k in bins.items() for _ in key], dtype=np.intp),
        n_bins=len(bins),
        bare=np.array(list(bare), dtype=np.intp),
        slots={**bins, **{q: len(bins) + j for q, j in bare.items()}})


def gather_leaves(leaves: LeafTable, beliefs: np.ndarray) -> np.ndarray:
    """The leaf values of a belief, a float64 array of its n entries: its
    bins, then its bare entries. Of a (T, n) stack of beliefs, a (T, L)
    array, one such row per belief: row r's entries are read at r * n + q
    and its bins numbered after row r - 1's, so one np.bincount sums
    every row's bins, each in child order as for a single belief.

    np.bincount starts each bin at 0.0 and adds its entries in child
    order, the float operations of the builtin `sum` on Python 3.10 and
    3.11 and of compile_expr's fold, so a bin holds its sum's value bit
    for bit. An entry outside such a sum is read on its own, so that a
    -0.0 keeps its sign."""
    index, bins, t = leaves.index, leaves.bins, 1
    stacked = beliefs.ndim == 2
    if stacked:
        t, n = beliefs.shape
        rows = np.arange(t)[:, None]
        index = (index + n * rows).ravel()
        bins = (bins + leaves.n_bins * rows).ravel()
    values = np.bincount(bins, beliefs.take(index), t * leaves.n_bins)
    if stacked:
        values = values.reshape(t, leaves.n_bins)
    if leaves.bare.size:
        values = np.concatenate((values, beliefs.take(leaves.bare, axis=-1)), axis=-1)
    return values


def _column_min(operands: tuple) -> np.ndarray:
    """The builtin `min` of operands, position by position: it keeps its
    first operand and takes a later one only where that one is less, so
    a NaN first operand stands, a NaN later one is passed over, and of
    0.0 and -0.0 the first stands."""
    acc = operands[0]
    for x in operands[1:]:
        acc = np.where(x < acc, x, acc)
    return acc


def _column_max(operands: tuple) -> np.ndarray:
    """The builtin `max` of operands, position by position (see
    _column_min)."""
    acc = operands[0]
    for x in operands[1:]:
        acc = np.where(x > acc, x, acc)
    return acc


_COLUMN_BUILTINS = {"min": _column_min, "max": _column_max}


def evaluate_columns(f: Evaluator, p: np.ndarray) -> np.ndarray:
    """The values of f, a function compile_expr generated, at every
    column of p, a 2-D float64 array whose row i holds leaf i's value at
    each position: one float64 array, a constant f broadcast to every
    position. f's own code runs with p's rows as its leaves and with
    `min` and `max` bound to _column_min and _column_max, so each
    position's value has the bits f gives for that column's list of
    values. An overflow or an invalid operation yields inf or NaN, as
    Python's float arithmetic does; run under
    `np.errstate(over="ignore", invalid="ignore")` to keep numpy silent
    about it, as Python is."""
    columns = FunctionType(f.__code__, {**f.__globals__, **_COLUMN_BUILTINS})
    return np.broadcast_to(columns(p), p.shape[1:])


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


def fold_tree(root, visit: Callable[[object, list], object],
              kids: Callable[[object], Sequence] | None = None):
    """Fold the tree under root bottom-up: visit(node, values) gives
    node's value from its children's values, in the order kids(node)
    lists its children (`children` when kids is None), and the fold
    returns root's value. Children are visited before their parent, left
    to right. Walked with an explicit stack, so a tree of any height
    folds; each node object is visited once, and kids called on it once,
    however many parents share it."""
    kids = kids or children
    done: dict[int, object] = {}
    stack: list[tuple[object, Sequence | None]] = [(root, None)]
    while stack:
        node, below = stack.pop()
        if id(node) in done:
            continue
        if below is None:
            below = kids(node)
            stack.append((node, below))
            stack.extend((k, None) for k in reversed(below) if id(k) not in done)
        else:
            done[id(node)] = visit(node, [done[id(k)] for k in below])
    return done[id(root)]


def height(root) -> int:
    """The number of nodes on the tallest path from root down to a leaf,
    measured with fold_tree, so a tree of any height measures and a
    subtree shared by several parents is measured once."""
    return fold_tree(root, lambda node, below: 1 + max(below, default=0))


def conjuncts(phi: Formula) -> tuple[Formula, ...]:
    """The top-level conjuncts of phi, left to right: the monitor's
    obligations, in its order."""
    return phi.children if isinstance(phi, And) else (phi,)


# --------------------------------------------------------------------------
# Finite-trace oracle


def _next_true(column: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """At each position, the first position at or after it where column
    is true, if that comes before ends, the end of the position's word;
    its word's end where there is none. Positions increase, so the first
    true position at or after a position in the whole column lies in its
    word exactly when it comes before the word's end."""
    n = len(column)
    at = np.where(column, np.arange(n, dtype=ends.dtype), n)
    return np.minimum(np.minimum.accumulate(at[::-1])[::-1], ends)


def _truth_column(node: Formula, kids: list[np.ndarray], states: np.ndarray,
                  truth: Callable[[BeliefPred], np.ndarray], ends: np.ndarray,
                  last: np.ndarray) -> np.ndarray:
    """node's truth at every position, from its children's columns."""
    if isinstance(node, StateSet):
        member = (states[:, None] == np.array(node.indices, dtype=np.intp)).any(axis=1)
        return member != node.negated
    if isinstance(node, BeliefPred):
        return truth(node)
    if isinstance(node, And):
        return np.logical_and.reduce(kids)
    if isinstance(node, Or):
        return np.logical_or.reduce(kids)
    if isinstance(node, Next):
        # No next position on a finite word: false at each word's last.
        out = np.zeros_like(kids[0])
        out[:-1] = kids[0][1:]
        out[last] = False
        return out
    if isinstance(node, Eventually):
        return _next_true(kids[0], ends) < ends
    if isinstance(node, Always):
        return _next_true(~kids[0], ends) == ends
    if isinstance(node, Until):
        # A right-side position no later than the first position where
        # the left side fails.
        left, right = kids
        witness = _next_true(right, ends)
        return (witness < ends) & (witness <= _next_true(~left, ends))
    raise TypeError(f"not a formula: {node!r}")


def belief_atoms(phi: Formula) -> list[BeliefPred]:
    """The belief atoms of phi, each node once, however often it occurs,
    in the order fold_tree visits them."""
    atoms: list[BeliefPred] = []

    def collect(node, _) -> None:
        if isinstance(node, BeliefPred):
            atoms.append(node)

    fold_tree(phi, collect)
    return atoms


def atom_truth(atom: BeliefPred, value: np.ndarray) -> np.ndarray:
    """Where a belief atom holds, from its expression's values: below 0,
    or at or above 0 when negated. A NaN value is false under both
    polarities."""
    return value >= 0.0 if atom.negated else value < 0.0


def fold_oracle(phi: Formula, states: np.ndarray, truth: Callable[[BeliefPred], np.ndarray],
                ends: np.ndarray | None = None) -> np.ndarray:
    """The truth of phi at every position of words laid end to end as
    columns, as a boolean array. states holds the hidden state at each
    of the N positions, truth(atom) each belief atom's truth there, and
    ends, strictly increasing, the position after each word's last, N
    the last of them; None is one word of all N positions. Each word is
    read on its own: `X` is false at its last position, and `F`, `G` and
    `U` look no further than its end. Folded with fold_tree, so a
    subtree shared by several parents is evaluated once."""
    n = len(states)
    # Positions as the smallest unsigned type that holds n, so that a
    # batch's position columns stay small.
    ends = np.asarray([n] if ends is None else ends).astype(np.min_scalar_type(n))
    position_ends = np.repeat(ends, np.diff(ends, prepend=0))
    last = ends - 1
    return fold_tree(phi, lambda node, kids: _truth_column(node, kids, states, truth,
                                                           position_ends, last))


def oracle_columns(phi: Formula, states: np.ndarray, beliefs: np.ndarray,
                   ends: np.ndarray | None = None) -> np.ndarray:
    """The truth of phi at every position of a finite word given as
    columns, as a boolean array: states holds the hidden state at each of
    its N positions and beliefs, an (N, n) float64 array, the belief held
    at each. Position i's entry is the truth of phi at position i of the
    word of those letters. With ends, the positions are words laid end
    to end (see fold_oracle), and each position's entry is its own
    word's. The belief atoms read the entries their expressions name
    through one leaf table: one np.bincount sums every sum of entries of
    every atom at every position."""
    table = leaf_table([atom.expr for atom in belief_atoms(phi)])
    leaves = gather_leaves(table, beliefs).T

    def truth(atom: BeliefPred) -> np.ndarray:
        return atom_truth(atom, evaluate_columns(compile_expr(atom.expr, table.slot), leaves))

    with np.errstate(over="ignore", invalid="ignore"):
        return fold_oracle(phi, states, truth, ends)


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
