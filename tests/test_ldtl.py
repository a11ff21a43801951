"""Finite-trace semantics, expression evaluation, and printing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshield.ldtl import (
    Always, And, BeliefPred, BeliefVar, Constant, Difference, Eventually,
    Letter, Max, Min, NegBeliefPred, NegStateSet, Next, Or, Product, StateSet,
    Sum, Until, compile_expr, describe, expr_text,
    is_propositional, oracle_satisfies, pretty_print,
)
from beliefshield.model import Belief

from conftest import evaluate_expr

B2 = Belief(np.array([0.25, 0.75]))


def letters(*states: int) -> tuple[Letter, ...]:
    return tuple(Letter(q, B2) for q in states)


IN0 = StateSet((0,), ("s0",))
IN1 = StateSet((1,), ("s1",))
NOT0 = NegStateSet((0,), ("s0",))

# Satisfied iff b(s1) > 0.5; B2 satisfies it.
HIGH1 = BeliefPred("high1", Difference(Constant(0.5), BeliefVar(1, "s1")))
TRUE = NegBeliefPred("always_true", Constant(1.0))


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
    assert oracle_satisfies(NegStateSet((1,), ("s1",)), word)
    assert oracle_satisfies(HIGH1, word)  # 0.5 - 0.75 < 0
    assert not oracle_satisfies(NegBeliefPred("high1", HIGH1.expr), word)
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
    neg_f = NegBeliefPred(f.name, f.expr)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        word = tuple(
            Letter(0, Belief(np.array([p, 1.0 - p])))
            for p in rng.uniform(0.0, 1.0, size=n)
        )
        assert oracle_satisfies(Always(f), word) != \
            oracle_satisfies(Eventually(neg_f), word)


def test_belief_atom_at_zero_is_false_and_its_negation_true():
    # f(b) = b(s0) - 0.25 is exactly 0 at B2: f < 0 fails, f >= 0 holds.
    f = Difference(BeliefVar(0, "s0"), Constant(0.25))
    word = letters(0)
    assert not oracle_satisfies(BeliefPred("f", f), word)
    assert oracle_satisfies(NegBeliefPred("f", f), word)


def test_is_propositional():
    assert is_propositional(And(IN0, Or(IN1, HIGH1)))
    assert not is_propositional(And(IN0, Next(IN1)))
    assert not is_propositional(Always(IN0))


def test_pretty_print_golden():
    assert pretty_print(Always(And(NegBeliefPred("a", Constant(0.0)),
                                   NegBeliefPred("b", Constant(0.0))))) == \
        "G (!a & !b)"
    assert pretty_print(And(Always(IN0), Eventually(HIGH1))) == \
        "G in({s0}) & F high1"
    assert pretty_print(Until(IN0, IN1)) == "in({s0}) U in({s1})"
    assert pretty_print(Next(HIGH1)) == "X high1"
    assert pretty_print(Or(IN0, And(IN1, HIGH1))) == "in({s0}) | (in({s1}) & high1)"


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
    # All-variable sums, one child included, take the compiled fast path.
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
    assert _bits(compile_expr(expr)(b.probs.tolist())) == _bits(evaluate_expr(expr, b))


def test_compiled_expr_rejects_non_expressions():
    with pytest.raises(TypeError):
        compile_expr(IN0)
