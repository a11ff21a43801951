"""Formula and belief-expression parsing: golden parses, error reporting,
and print/parse round trips."""

import math
import struct
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import (
    Always,
    And,
    BeliefPred,
    BeliefVar,
    Constant,
    Difference,
    Eventually,
    FormulaSyntaxError,
    Max,
    Min,
    NegationOfCompound,
    Next,
    Or,
    Product,
    StateSet,
    Sum,
    UnknownPredicate,
    UnknownState,
    Until,
    expr_text,
    parse_expr,
    parse_formula,
    pretty_print,
)
from beliefshield import ldtl, parsing
from beliefshield.ldtl import compile_expr, height
from beliefshield.parsing import MAX_NESTING

STATE_INDEX = {"s0": 0, "s1": 1, "s2": 2, "s3": 3}
STATE_NAMES = ("s0", "s1", "s2", "s3")

PRED_EXPRS = {
    "low": Difference(Constant(0.2), BeliefVar(0, "s0")),
    "mid": Sum((BeliefVar(1, "s1"), BeliefVar(2, "s2"))),
    "high": Constant(0.5),
}

LOW = BeliefPred("low", PRED_EXPRS["low"])
MID = BeliefPred("mid", PRED_EXPRS["mid"])
HIGH = BeliefPred("high", PRED_EXPRS["high"])


def parse(text):
    return parse_formula(text, PRED_EXPRS, STATE_INDEX)


# --------------------------------------------------------------------------
# Formula goldens


def test_connectives_share_precedence_and_associate_left():
    assert parse("low & mid | high") == Or(And(LOW, MID), HIGH)
    assert parse("low | mid & high") == And(Or(LOW, MID), HIGH)


def test_each_run_of_one_connective_is_one_node():
    assert parse("low & mid & high | low | mid & high") == \
        And(Or(And(LOW, MID, HIGH), LOW, MID), HIGH)
    assert parse("(low & mid) & high") == parse("low & (mid & high)") == And(LOW, MID, HIGH)
    assert parse("!(low | (mid | high))") == parse("!(low | mid | high)")


def test_parentheses_override_association():
    assert parse("low & (mid | high)") == And(LOW, Or(MID, HIGH))


def test_temporal_prefixes_bind_one_term():
    assert parse("G low & F mid") == And(Always(LOW), Eventually(MID))
    assert parse("X high") == Next(HIGH)
    assert parse("G F low") == Always(Eventually(LOW))
    assert parse("G (low & mid)") == Always(And(LOW, MID))


def test_until_takes_atom_then_term():
    assert parse("low U mid") == Until(LOW, MID)
    assert parse("low U G mid") == Until(LOW, Always(MID))
    assert parse("low U mid U high") == Until(LOW, Until(MID, HIGH))
    assert parse("low U mid & high") == And(Until(LOW, MID), HIGH)


def test_state_sets_sort_by_state_index():
    assert parse("in({s2, s0})") == StateSet((0, 2), ("s0", "s2"))
    assert parse("in({s3})") == StateSet((3,), ("s3",))


def test_negation_of_atoms():
    assert parse("!low") == BeliefPred("low", PRED_EXPRS["low"], negated=True)
    assert parse("!in({s1})") == StateSet((1,), ("s1",), negated=True)


def test_negated_disjunction_normalizes_to_conjunction():
    neg_low = BeliefPred("low", PRED_EXPRS["low"], negated=True)
    neg_mid = BeliefPred("mid", PRED_EXPRS["mid"], negated=True)
    neg_s0 = StateSet((0,), ("s0",), negated=True)
    assert parse("!(low | mid)") == And(neg_low, neg_mid)
    assert parse("!(low | mid | in({s0}))") == And(And(neg_low, neg_mid), neg_s0)
    assert parse("G !(low | mid)") == Always(And(neg_low, neg_mid))


def test_negation_of_compound_is_rejected():
    with pytest.raises(NegationOfCompound):
        parse("!(low & mid)")
    with pytest.raises(NegationOfCompound):
        parse("!(G low)")
    with pytest.raises(NegationOfCompound):
        parse("!(!low)")
    with pytest.raises(NegationOfCompound):
        parse("!(!low | mid)")
    assert issubclass(NegationOfCompound, FormulaSyntaxError)


def test_negated_until_left_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("!low U mid")
    assert "'U'" in str(err.value)


def test_unknown_names_are_reported():
    with pytest.raises(UnknownPredicate) as perr:
        parse("nope")
    assert perr.value.name == "nope"
    with pytest.raises(UnknownState) as serr:
        parse("in({s9})")
    assert serr.value.name == "s9"
    # `G` consumed as a temporal prefix never shadows a predicate lookup.
    with pytest.raises(UnknownPredicate):
        parse("!G low")


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("low &\n& mid")
    assert err.value.line == 2
    assert err.value.column == 1
    assert "predicate name" in err.value.expected
    assert "line 2, column 1" in str(err.value)


def test_empty_and_truncated_input():
    with pytest.raises(FormulaSyntaxError):
        parse("")
    with pytest.raises(FormulaSyntaxError) as err:
        parse("low &")
    assert "end of input" in str(err.value)


def test_trailing_tokens_rejected():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("low mid")
    assert "after formula" in str(err.value)


FORMULA_START = ("G", "F", "X", "!", "(", "predicate name", "in")
FACTOR_START = ("number", "b(", "min(", "max(", "(", "-")


@pytest.mark.parametrize("kind, text, message, expected", [
    # a missing token named by its kind
    ("formula", "in {s0}", "line 1, column 4: unexpected { '{' (expected one of: ()", ("(",)),
    ("formula", "(low", "line 1, column 5: unexpected end of input (expected one of: ))", (")",)),
    ("expr", "b(s0", "line 1, column 5: unexpected end of input (expected one of: ))", (")",)),
    # a missing token named by what it stands for
    ("formula", "in({1})",
     "line 1, column 5: unexpected number '1' (expected one of: state name)", ("state name",)),
    ("expr", "b(1)",
     "line 1, column 3: unexpected number '1' (expected one of: state name)", ("state name",)),
    # no formula term starts here
    ("formula", "&", "line 1, column 1: unexpected & '&' (expected one of: G, F, X, !, (, "
     "predicate name, in)", FORMULA_START),
    ("formula", "low U", "line 1, column 6: unexpected end of input (expected one of: G, F, X, "
     "!, (, predicate name, in)", FORMULA_START),
    # no expression factor starts here
    ("expr", "frac(1)", "line 1, column 1: unexpected ident 'frac' (expected one of: number, "
     "b(, min(, max(, (, -)", FACTOR_START),
    ("expr", "", "line 1, column 1: unexpected end of input (expected one of: number, b(, "
     "min(, max(, (, -)", FACTOR_START),
])
def test_unexpected_token_message_and_expectations(kind, text, message, expected):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text) if kind == "formula" else parse_expr(text, STATE_INDEX)
    assert str(err.value) == message
    assert err.value.expected == expected


def test_unexpected_character():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("low # mid")
    assert "'#'" in str(err.value)
    assert err.value.column == 5


# --------------------------------------------------------------------------
# Expression goldens


def test_expression_precedence_and_flattening():
    one, two, three = Constant(1.0), Constant(2.0), Constant(3.0)
    assert parse_expr("1 + 2 + 3", STATE_INDEX) == Sum((one, two, three))
    assert parse_expr("1 * 2 * 3", STATE_INDEX) == Product((one, two, three))
    assert parse_expr("1 + 2 * 3", STATE_INDEX) == Sum((one, Product((two, three))))
    assert parse_expr("(1 + 2) * 3", STATE_INDEX) == Product((Sum((one, two)), three))
    assert parse_expr("1 - 2 - 3", STATE_INDEX) == Difference(Difference(one, two), three)


def test_expression_number_formats():
    assert parse_expr("1e-3", STATE_INDEX) == Constant(1e-3)
    assert parse_expr("2.5E+1", STATE_INDEX) == Constant(25.0)
    assert parse_expr(".5", STATE_INDEX) == Constant(0.5)


def test_unary_minus_becomes_difference_from_zero():
    assert parse_expr("-b(s0)", STATE_INDEX) == Difference(Constant(0.0), BeliefVar(0, "s0"))
    assert parse_expr("--1", STATE_INDEX) == Difference(Constant(0.0), Constant(-1.0))


def test_minus_before_a_number_is_a_negative_constant():
    assert parse_expr("-0.5", STATE_INDEX) == Constant(-0.5)
    assert parse_expr("b(s0) + -0.5", STATE_INDEX) == Sum((BeliefVar(0, "s0"), Constant(-0.5)))
    # `-0` has always read as 0 - 0, which is +0.0.
    assert math.copysign(1.0, parse_expr("-0", STATE_INDEX).value) == 1.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Each text with the value it had when `-x` always read as `0 - x`.
@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1.0))
@example(0.0, 0.5)
@example(0.5, 0.0)
def test_a_negative_number_keeps_the_value_its_text_had(x, p0):
    def at(text):
        return compile_expr(parse_expr(text, STATE_INDEX))([p0, 0.0, 0.0, 0.0])

    assert _bits(at(f"-{x!r}")) == _bits(0.0 - x)
    assert _bits(at(f"--{x!r}")) == _bits(0.0 - (0.0 - x))
    assert _bits(at(f"b(s0) * -{x!r}")) == _bits(1.0 * p0 * (0.0 - x))
    assert _bits(at(f"b(s0) - -{x!r}")) == _bits(p0 - (0.0 - x))


def test_belief_vars_and_min_max():
    got = parse_expr("min(b(s0), 0.5, max(b(s1), b(s2)))", STATE_INDEX)
    assert got == Min((
        BeliefVar(0, "s0"),
        Constant(0.5),
        Max((BeliefVar(1, "s1"), BeliefVar(2, "s2"))),
    ))


def test_expression_errors():
    with pytest.raises(UnknownState):
        parse_expr("b(zz)", STATE_INDEX)
    with pytest.raises(FormulaSyntaxError) as err:
        parse_expr("1 2", STATE_INDEX)
    assert "after expression" in str(err.value)
    with pytest.raises(FormulaSyntaxError):
        parse_expr("1 / 2", STATE_INDEX)
    with pytest.raises(FormulaSyntaxError):
        parse_expr("frac(1)", STATE_INDEX)
    with pytest.raises(FormulaSyntaxError):
        parse_expr("min()", STATE_INDEX)


def test_a_number_that_overflows_is_a_located_syntax_error():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_expr("0.5 -\n  1e400", STATE_INDEX)
    assert (err.value.line, err.value.column) == (2, 3)
    assert "number '1e400' is not finite" in str(err.value)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("min(", ")"), ("-", "")])
def test_deep_expression_nesting_is_a_located_syntax_error(opener, closer):
    # The parser would exhaust the interpreter's recursion limit first.
    with pytest.raises(FormulaSyntaxError) as err:
        parse_expr(opener * 500 + "b(s0)" + closer * 500, STATE_INDEX)
    assert (err.value.line, err.value.column) == (1, len(opener) * MAX_NESTING + 1)
    assert f"nested deeper than {MAX_NESTING} levels" in str(err.value)
    inside = MAX_NESTING - 1
    parse_expr(opener * inside + "b(s0)" + closer * inside, STATE_INDEX)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("G ", ""), ("!(", ")"),
                                            ("low U ", "")])
def test_deep_formula_nesting_is_a_located_syntax_error(opener, closer):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(opener * 500 + "low" + closer * 500)
    assert (err.value.line, err.value.column) == (1, len(opener) * MAX_NESTING + 1)
    assert f"nested deeper than {MAX_NESTING} levels" in str(err.value)
    if opener != "!(":  # a negated compound is rejected at any depth
        inside = MAX_NESTING - 1
        parse(opener * inside + "low" + closer * inside)


def test_a_chain_parses_at_any_length():
    # A chain costs the parser no level. A run of one operator is one
    # node; a `-` chain, or one whose operators alternate, builds a tree
    # as tall as it is long, which the scenario bounds by its height.
    phi = parse(" & ".join(["low"] * 1000))
    assert isinstance(phi, And) and phi.children == (LOW,) * 1000
    assert height(phi) == 2
    alternating = parse("low" + " & low | low" * 500)
    assert height(alternating) == 1001
    assert height(parse_expr(" - ".join(["b(s0)"] * 1000), STATE_INDEX)) == 1000
    negated = parse("G !(" + " | ".join(["low"] * 1000) + ")")
    assert height(negated) == 3
    assert negated.child.children == (replace(LOW, negated=True),) * 1000


# --------------------------------------------------------------------------
# Print/parse round trips

pred_atoms = st.sampled_from(sorted(PRED_EXPRS)).map(lambda n: BeliefPred(n, PRED_EXPRS[n]))
state_atoms = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True
).map(lambda idx: StateSet(tuple(sorted(idx)), tuple(STATE_NAMES[i] for i in sorted(idx))))
pos_atoms = pred_atoms | state_atoms
atoms = st.one_of(
    pos_atoms,
    pred_atoms.map(lambda a: replace(a, negated=True)),
    state_atoms.map(lambda a: replace(a, negated=True)),
)


def extend_formula(children):
    return st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Always, children),
        st.builds(Eventually, children),
        st.builds(Next, children),
        st.builds(Until, pos_atoms, children),
    )


formulas = st.recursive(atoms, extend_formula, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_formula_print_parse_round_trip(phi):
    assert parse(pretty_print(phi)) == phi


constants = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(Constant)
belief_vars = st.integers(min_value=0, max_value=3).map(
    lambda i: BeliefVar(i, STATE_NAMES[i])
)


def extend_expr(children):
    # The parser flattens a +/* chain into one Sum/Product, so one of
    # these holds its own kind only after its first child, where the
    # text puts it in parentheses.
    def chain(kind):
        first = children.filter(lambda e: not isinstance(e, kind))
        rest = st.lists(children, min_size=1, max_size=3)
        return st.builds(lambda head, tail: kind((head, *tail)), first, rest)

    return st.one_of(
        chain(Sum),
        chain(Product),
        st.builds(Difference, children, children),
        st.lists(children, min_size=1, max_size=3).map(tuple).map(Min),
        st.lists(children, min_size=1, max_size=3).map(tuple).map(Max),
    )


exprs = st.recursive(constants | belief_vars, extend_expr, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(exprs)
@example(Product((Constant(0.3), Product((Constant(0.7), BeliefVar(1, STATE_NAMES[1]))))))
@example(Sum((Constant(0.3), Sum((Constant(0.7), BeliefVar(1, STATE_NAMES[1]))))))
@example(Sum((BeliefVar(0, STATE_NAMES[0]), Constant(-0.5))))
@example(Difference(Constant(0.0), Constant(0.5)))
@example(Difference(Constant(0.0), Constant(-0.5)))
def test_expr_print_parse_round_trip(expr):
    assert parse_expr(expr_text(expr), STATE_INDEX) == expr


# --------------------------------------------------------------------------
# Height of trees and the parser's levels


def levels_parsed(parse_text, text: str, tree_height: int) -> int:
    """The fewest levels under which parse_text accepts text: the levels
    the parser counts in it. Tries up to tree_height + 1 levels, and
    fails naming text when none of them parses it."""
    for levels in range(1, tree_height + 2):
        with patch.object(parsing, "MAX_NESTING", levels):
            try:
                parse_text(text)
                return levels
            except FormulaSyntaxError as exc:
                assert "nested deeper than" in str(exc)
    pytest.fail(f"{text!r} does not parse within {tree_height + 1} levels")


# A tree at most MAX_NESTING tall prints as text the parser accepts, so a
# scenario's check that its predicates read back never hits the parser's
# limit first.
@settings(max_examples=300, deadline=None)
@given(formulas)
def test_a_printed_formula_parses_within_its_height(phi):
    assert levels_parsed(parse, pretty_print(phi), height(phi)) <= height(phi)


@settings(max_examples=300, deadline=None)
@given(exprs)
@example(Difference(Constant(0.0), BeliefVar(0, "s0")))
@example(Product((BeliefVar(0, "s0"), Difference(Constant(0.0), BeliefVar(0, "s0")))))
@example(Difference(Constant(0.0), Difference(Constant(0.0), BeliefVar(0, "s0"))))
def test_a_printed_expr_parses_within_its_height(expr):
    assert levels_parsed(lambda text: parse_expr(text, STATE_INDEX),
                         expr_text(expr), height(expr)) <= height(expr)


def test_a_shared_subtree_is_measured_once(monkeypatch):
    # And over Or over And ..., so that no operand splices into its
    # parent: each node has the one node below it as both operands.
    phi = LOW
    for k in range(200):
        phi = (And, Or)[k % 2](phi, phi)
    calls = []
    real = ldtl.children
    monkeypatch.setattr(ldtl, "children", lambda node: calls.append(node) or real(node))
    assert height(phi) == 201
    # Each of the 201 distinct nodes is looked at no more than twice,
    # where walking every path would take 2 ** 200 steps.
    assert len(calls) <= 2 * 201
