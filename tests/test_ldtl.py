"""Finite-trace semantics, expression evaluation, and printing."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import ldtl
from beliefshield.ldtl import (
    Always, And, BeliefPred, BeliefVar, Constant, Difference, Eventually,
    Max, Min, Next, Or, Product, StateSet,
    Sum, Until, belief_atoms, compile_expr, describe, evaluate_columns, expr_text,
    leaf_table, oracle_columns, pretty_print,
)
from beliefshield.model import Belief

from conftest import Letter, evaluate_expr, oracle_satisfies

B2 = [0.25, 0.75]


def letters(*states: int) -> tuple[Letter, ...]:
    return tuple(Letter(q, B2) for q in states)


IN0 = StateSet((0,), ("s0",))
IN1 = StateSet((1,), ("s1",))
NOT0 = StateSet((0,), ("s0",), negated=True)

# Satisfied iff b(s1) > 0.5; B2 satisfies it.
HIGH1 = BeliefPred("high1", Difference(Constant(0.5), BeliefVar(1, "s1")))
TRUE = BeliefPred("always_true", Constant(1.0), negated=True)


def test_expr_evaluation():
    b = Belief(np.array([0.2, 0.3, 0.5]))
    v0, v1, v2 = (BeliefVar(i, f"s{i}") for i in range(3))
    assert evaluate_expr(Sum((v0, v1, v2)), b) == pytest.approx(1.0)
    assert evaluate_expr(Difference(v2, v0), b) == pytest.approx(0.3)
    assert evaluate_expr(Product((v0, v1)), b) == pytest.approx(0.06)
    assert evaluate_expr(Min((v0, v1, v2)), b) == pytest.approx(0.2)
    assert evaluate_expr(Max((v0, Constant(0.9))), b) == pytest.approx(0.9)
    assert evaluate_expr(Constant(-1.5), b) == -1.5


def test_atoms_on_single_letters():
    word = letters(0)
    assert oracle_satisfies(IN0, word)
    assert not oracle_satisfies(IN1, word)
    assert not oracle_satisfies(NOT0, word)
    assert oracle_satisfies(StateSet((1,), ("s1",), negated=True), word)
    assert oracle_satisfies(HIGH1, word)  # 0.5 - 0.75 < 0
    assert not oracle_satisfies(BeliefPred("high1", HIGH1.expr, negated=True), word)
    assert oracle_satisfies(TRUE, word)


def test_boolean_connectives():
    word = letters(0)
    assert oracle_satisfies(And(IN0, HIGH1), word)
    assert not oracle_satisfies(And(IN0, IN1), word)
    assert oracle_satisfies(Or(IN1, IN0), word)
    assert not oracle_satisfies(Or(IN1, NOT0), word)


def test_next_is_false_at_last_position():
    assert not oracle_satisfies(Next(IN0), letters(0))
    assert oracle_satisfies(Next(IN1), letters(0, 1))
    assert not oracle_satisfies(Next(IN1), letters(0, 0))


def test_always_covers_all_remaining_positions():
    assert oracle_satisfies(Always(IN0), letters(0, 0, 0))
    assert not oracle_satisfies(Always(IN0), letters(0, 1, 0))
    # Suffix evaluation: from position 1 onward only.
    assert oracle_satisfies(Always(IN1), letters(0, 1, 1), i=1)


def test_eventually_needs_witness_inside_word():
    assert oracle_satisfies(Eventually(IN1), letters(0, 0, 1))
    assert not oracle_satisfies(Eventually(IN1), letters(0, 0, 0))
    assert oracle_satisfies(Eventually(IN0), letters(0))


def test_until_requires_witness_and_left_prefix():
    # Witness at position 2 with the left side true before it.
    assert oracle_satisfies(Until(IN0, IN1), letters(0, 0, 1))
    # Left side breaks before the witness.
    assert not oracle_satisfies(Until(IN0, IN1), letters(0, 2, 1))
    # Right side immediately true: no left requirement at all.
    assert oracle_satisfies(Until(IN1, IN0), letters(0, 2))
    # No witness inside the word.
    assert not oracle_satisfies(Until(IN0, IN1), letters(0, 0, 0))


# Reads entry 99 of a two-entry belief: evaluating it raises IndexError.
UNREADABLE = BeliefPred("unreadable", Difference(Constant(0.5), BeliefVar(99, "s99")))


@pytest.mark.parametrize("phi, states, expected", [
    (And(IN1, UNREADABLE), (0,), False),
    (And(IN0, IN1, UNREADABLE), (0,), False),
    (Or(IN0, UNREADABLE), (0,), True),
    (Or(IN1, IN0, UNREADABLE), (0,), True),
    # Position 1 would evaluate UNREADABLE.
    (Always(And(IN1, UNREADABLE)), (0, 1), False),
    (Eventually(Or(IN0, UNREADABLE)), (0, 1), True),
    # The right side first holds at position 1; position 2 would raise.
    (Until(NOT0, Or(IN0, And(IN1, UNREADABLE))), (2, 0, 1), True),
    # The left side first fails at position 0; position 1 would raise.
    (Until(And(IN1, UNREADABLE), IN0), (2, 1, 0), False),
], ids=["and", "and-chain", "or", "or-chain", "always", "eventually", "until-right",
        "until-left"])
def test_the_oracle_evaluates_no_operand_after_the_deciding_one(phi, states, expected):
    with pytest.raises(IndexError):
        oracle_satisfies(UNREADABLE, letters(0))
    assert oracle_satisfies(phi, letters(*states)) is expected


def test_eventually_equals_true_until():
    rng = np.random.default_rng(8)
    for _ in range(200):
        word = letters(*rng.integers(0, 3, size=int(rng.integers(1, 6))))
        phi = IN1
        assert oracle_satisfies(Eventually(phi), word) == \
            oracle_satisfies(Until(TRUE, phi), word)


def test_always_eventually_duality_on_atoms():
    # !G f == F !f checked via the negated-atom encodings.
    rng = np.random.default_rng(9)
    f = HIGH1
    neg_f = BeliefPred(f.name, f.expr, negated=True)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        word = tuple(
            Letter(0, [p, 1.0 - p])
            for p in rng.uniform(0.0, 1.0, size=n).tolist()
        )
        assert oracle_satisfies(Always(f), word) != \
            oracle_satisfies(Eventually(neg_f), word)


def test_belief_atom_at_zero_is_false_and_its_negation_true():
    # f(b) = b(s0) - 0.25 is exactly 0 at B2: f < 0 fails, f >= 0 holds.
    f = Difference(BeliefVar(0, "s0"), Constant(0.25))
    word = letters(0)
    assert not oracle_satisfies(BeliefPred("f", f), word)
    assert oracle_satisfies(BeliefPred("f", f, negated=True), word)


def test_a_nan_belief_atom_is_false_under_both_polarities():
    word = letters(0)
    nan = Constant(float("nan"))
    assert not oracle_satisfies(BeliefPred("f", nan), word)
    assert not oracle_satisfies(BeliefPred("f", nan, negated=True), word)


def test_pretty_print_golden():
    assert pretty_print(Always(And(BeliefPred("a", Constant(0.0), negated=True),
                                   BeliefPred("b", Constant(0.0), negated=True)))) == \
        "G (!a & !b)"
    assert pretty_print(And(Always(IN0), Eventually(HIGH1))) == \
        "G in({s0}) & F high1"
    assert pretty_print(Until(IN0, IN1)) == "in({s0}) U in({s1})"
    assert pretty_print(Next(HIGH1)) == "X high1"
    assert pretty_print(Or(IN0, And(IN1, HIGH1))) == "in({s0}) | (in({s1}) & high1)"


def test_a_chain_prints_its_operands_in_one_run():
    # A parenthesized group of the same operator is spliced into its
    # chain, so it prints without parentheses; a chain of the other
    # operator reads bare only as the first operand.
    assert pretty_print(And(IN0, And(IN1, HIGH1))) == "in({s0}) & in({s1}) & high1"
    assert pretty_print(And(Or(IN0, IN1), HIGH1, Or(IN1, HIGH1))) == \
        "in({s0}) | in({s1}) & high1 & (in({s1}) | high1)"


def test_expr_text_golden():
    expr = Difference(Constant(0.1),
                      Sum((BeliefVar(0, "h1_h1"), BeliefVar(1, "h2_h2"))))
    assert expr_text(expr) == "0.1 - (b(h1_h1) + b(h2_h2))"
    assert expr_text(Min((Constant(1.0), Constant(2.0)))) == "min(1.0, 2.0)"
    assert expr_text(Product((Constant(2.0), Sum((Constant(1.0), Constant(3.0)))))) == \
        "2.0 * (1.0 + 3.0)"


def test_describe_falls_back_to_repr():
    # describe never raises, even for shapes pretty_print rejects.
    text = describe(Until(Always(IN0), IN1))
    assert "Always" in text or "G" in text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_until_definition_matches_quantifier_expansion(seed):
    rng = np.random.default_rng(seed)
    word = letters(*rng.integers(0, 3, size=int(rng.integers(1, 7))))
    phi, psi = IN0, IN1
    expected = any(
        oracle_satisfies(psi, word, j) and
        all(oracle_satisfies(phi, word, k) for k in range(j))
        for j in range(len(word))
    )
    assert oracle_satisfies(Until(phi, psi), word) == expected


# --------------------------------------------------------------------------
# Compiled expressions

N_VARS = 5
VARS = st.integers(min_value=0, max_value=N_VARS - 1).map(lambda i: BeliefVar(i, f"s{i}"))
LEAVES = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0).map(Constant),
    VARS,
    # All-variable sums, one child included, as state-set barriers are.
    st.lists(VARS, min_size=1, max_size=6).map(lambda c: Sum(tuple(c))),
)


def _nodes(children):
    some = st.lists(children, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        some.map(Sum),
        st.tuples(children, children).map(lambda lr: Difference(*lr)),
        some.map(Product),
        some.map(Min),
        some.map(Max),
    )


EXPRS = st.recursive(LEAVES, _nodes, max_leaves=16)
BELIEFS = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                   min_size=N_VARS, max_size=N_VARS)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(EXPRS, BELIEFS)
def test_compiled_expr_is_bit_identical_to_evaluate_expr(expr, weights):
    p = np.array(weights)
    b = Belief(p / p.sum() if p.sum() > 0 else np.full(N_VARS, 1.0 / N_VARS))
    f = compile_expr(expr)
    expected = _bits(evaluate_expr(expr, b))
    assert _bits(f(b.probs.tolist())) == expected
    # The column form, on a one-column array of the entries.
    with np.errstate(over="ignore", invalid="ignore"):
        (value,) = evaluate_columns(f, b.probs[:, None])
    assert _bits(float(value)) == expected


# Operands where min and max differ from np.minimum and np.maximum, and
# where + - * overflow or turn invalid.
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])
SPECIAL_EXPRS = st.recursive(st.one_of(LEAVES, SPECIAL.map(Constant)), _nodes, max_leaves=16)
ROWS = st.lists(st.lists(SPECIAL | st.floats(), min_size=N_VARS, max_size=N_VARS), max_size=6)


@settings(max_examples=300, deadline=None)
@given(SPECIAL_EXPRS, ROWS)
@example(Min((Constant(0.0), Constant(-0.0))), [[0.0] * N_VARS])
@example(Max((BeliefVar(0, "s0"), Constant(math.nan), BeliefVar(1, "s1"))),
         [[-0.0, 0.0, 1.0, 2.0, 3.0], [math.nan, 1.0, 0.0, 0.0, 0.0]])
@example(Constant(0.5), [])
def test_the_column_form_is_the_scalar_form_row_by_row(expr, rows):
    f = compile_expr(expr)
    stack = np.array(rows, dtype=float).reshape(len(rows), N_VARS)
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate_columns(f, stack.T)
    assert values.dtype == np.float64 and values.shape == (len(rows),)
    expected = np.array([f(row) for row in rows], dtype=float)
    # Where two NaNs meet in + - or *, which one's sign and payload the
    # result keeps is the compiler's choice of operand order, in numpy's
    # loops as in CPython's; every NaN prints and compares as nan.
    both_nan = np.isnan(values) & np.isnan(expected)
    assert (values.view(np.uint64) == expected.view(np.uint64))[~both_nan].all()
    assert (np.isnan(values) == np.isnan(expected)).all()


def test_compiled_expr_rejects_non_expressions():
    with pytest.raises(TypeError):
        compile_expr(IN0)


B5 = Belief(np.array([0.05, 0.1, 0.2, 0.3, 0.35]))


def deep_nest(levels: int):
    """Min and Product alternating `levels` deep, each level with a
    belief entry and a constant beside the level below."""
    expr = BeliefVar(0, "s0")
    for i in range(levels):
        var, const = BeliefVar(i % N_VARS, f"s{i % N_VARS}"), Constant(1.0 + i / levels)
        expr = Min((var, expr, const)) if i % 2 else Product((const, expr, var))
    return expr


def evaluate_deep(expr, b: Belief) -> float:
    # The tree-walking reference recurses once per level or more.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10_000)
    try:
        return evaluate_expr(expr, b)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("expr", [
    pytest.param(Sum(tuple(BeliefVar(i % N_VARS, f"s{i % N_VARS}") if i % 3 else Constant(i / 5000)
                           for i in range(5000))), id="5000-term-sum"),
    # A chain of about 3000 binary operators exceeds CPython's compiler
    # recursion limit.
    pytest.param(Product(tuple(BeliefVar(i % N_VARS, f"s{i % N_VARS}") if i % 1000 == 0
                               else Constant(1.0 + (i % 7) / 5000) for i in range(5000))),
                 id="5000-factor-product"),
    # Deeper than CPython's limit of 200 nested brackets in source text.
    pytest.param(deep_nest(600), id="600-level-nest"),
])
def test_compiled_expr_of_any_size_is_bit_identical_to_evaluate_expr(expr):
    assert _bits(compile_expr(expr)(B5.probs.tolist())) == _bits(evaluate_deep(expr, B5))


def doubled(levels: int):
    """Sum, Product, Max and Min in turn, `levels` deep over b(s0) + 0.7,
    each level with the level below as both of its operands."""
    expr = Difference(BeliefVar(0, "s0"), Constant(-0.7))
    for k in range(levels):
        expr = (Sum, Product, Max, Min)[k % 4]((expr, expr))
    return expr


def test_every_walker_visits_a_shared_subtree_once(monkeypatch):
    expr = doubled(16)
    atom = BeliefPred("doubled", expr)
    phi = atom
    for k in range(16):
        phi = (And, Or)[k % 2](phi, phi)
    calls = []
    real = ldtl.children
    monkeypatch.setattr(ldtl, "children", lambda node: calls.append(node) or real(node))
    # Each distinct node is looked at no more than twice, where walking
    # every path would take 2 ** 16 steps. The expression has 19: its 16
    # levels, the difference, its entry and its constant; the formula 17.
    f = compile_expr(expr)
    assert len(calls) <= 2 * 19
    calls.clear()
    leaf_table([expr, expr])
    assert len(calls) <= 2 * 19
    calls.clear()
    assert belief_atoms(phi) == [atom]
    assert len(calls) <= 2 * 17
    assert _bits(f(B5.probs.tolist())) == _bits(evaluate_expr(expr, B5))


@pytest.mark.parametrize("name", ['a"b', "a'b", "b)", "line\nbreak", "p[0]) + 1 #"])
def test_a_state_name_never_enters_the_generated_code(name):
    expr = Difference(BeliefVar(3, name), Constant(0.5))
    assert _bits(compile_expr(expr)(B5.probs.tolist())) == _bits(evaluate_expr(expr, B5))


@pytest.mark.parametrize("index", [1.0, "1", "0] + 1 #", None])
def test_compiled_expr_rejects_a_non_integer_index(index):
    with pytest.raises(TypeError):
        compile_expr(Sum((Constant(1.0), BeliefVar(index, "s1"))))


# --------------------------------------------------------------------------
# The oracle over columns

N_WORD = 3
_WORD_ENTRY = st.integers(0, N_WORD - 1).map(lambda q: BeliefVar(q, f"s{q}"))
_ATOM_EXPRS = st.recursive(
    _WORD_ENTRY
    | st.lists(_WORD_ENTRY, min_size=1, max_size=4).map(lambda c: Sum(tuple(c)))
    | st.floats(-1.0, 1.0).map(Constant),
    _nodes, max_leaves=6)
_ATOMS = st.one_of(
    st.builds(lambda q, negated: StateSet(tuple(q), tuple(f"s{i}" for i in q), negated),
              st.lists(st.integers(0, N_WORD - 1), unique=True, max_size=N_WORD),
              st.booleans()),
    st.builds(lambda expr, negated: BeliefPred("p", expr, negated), _ATOM_EXPRS, st.booleans()),
)
FORMULAS = st.recursive(_ATOMS, lambda kids: st.one_of(
    st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(*cs)),
    st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
    kids.map(Next), kids.map(Eventually), kids.map(Always),
    st.builds(Until, kids, kids),
), max_leaves=8)
_WORD_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan]) | st.floats(0.0, 1.0)
WORDS = st.lists(st.tuples(st.integers(0, N_WORD - 1),
                           st.lists(_WORD_VALUES, min_size=N_WORD, max_size=N_WORD)),
                 min_size=1, max_size=6)
_SHARED = Or(IN1, Next(HIGH1))


@settings(max_examples=300, deadline=None)
@given(FORMULAS, WORDS)
@example(Next(IN0), [(0, [0.25, 0.75, 0.0])])
@example(Until(And(NOT0, Or(IN1, HIGH1)), Always(Or(IN0, Next(IN1)))),
         [(1, [0.25, 0.75, 0.0]), (2, [0.5, 0.5, 0.0]), (0, [1.0, 0.0, 0.0]),
          (1, [0.0, 1.0, 0.0])])
@example(And(_SHARED, Eventually(_SHARED)), [(0, B2 + [0.0]), (1, [0.75, 0.25, 0.0])])
def test_the_column_oracle_is_the_oracle_at_every_position(phi, word):
    letters = tuple(Letter(q, entries) for q, entries in word)
    states = np.array([q for q, _ in word])
    beliefs = np.array([entries for _, entries in word])
    got = oracle_columns(phi, states, beliefs)
    assert got.dtype == bool
    assert got.tolist() == [oracle_satisfies(phi, letters, i) for i in range(len(word))]


@settings(max_examples=300, deadline=None)
@given(FORMULAS, st.lists(WORDS, min_size=1, max_size=5))
@example(Next(IN0), [[(0, [0.25, 0.75, 0.0])], [(0, [0.25, 0.75, 0.0])]])
@example(Until(IN0, IN1), [[(0, B2 + [0.0]), (0, B2 + [0.0])], [(1, B2 + [0.0])]])
@example(Always(IN0), [[(0, B2 + [0.0])], [(1, B2 + [0.0]), (0, B2 + [0.0])]])
@example(Eventually(HIGH1), [[(0, [0.0, 0.0, 0.0])], [(0, B2 + [0.0])]])
def test_the_segmented_oracle_reads_each_word_alone(phi, words):
    # Words laid end to end, each column read up to its own word's end:
    # X is false at each word's last position, and F, G and U look no
    # further than its end.
    letters = [letter for word in words for letter in word]
    ends = np.cumsum([len(word) for word in words])
    got = oracle_columns(phi, np.array([q for q, _ in letters]),
                         np.array([entries for _, entries in letters]), ends)
    assert got.dtype == bool and len(got) == len(letters)
    for word, start, end in zip(words, [0, *ends[:-1]], ends):
        alone = oracle_columns(phi, np.array([q for q, _ in word]),
                               np.array([entries for _, entries in word]))
        word_letters = tuple(Letter(q, entries) for q, entries in word)
        assert got[start:end].tolist() == alone.tolist() == [
            oracle_satisfies(phi, word_letters, i) for i in range(len(word))]
