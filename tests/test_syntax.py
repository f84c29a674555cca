"""Term/formula language: substitution, free variables, do-detection, and the
print/parse round trip."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from regbel import (
    And, App, Atom, Cond, Exists, FALSE, Fluent, Not, Num, Or, S0, Situation,
    TRUE, Var, fold, free_vars, mentions_do, pretty, substitute,
)
from regbel.parser import parse_formula, parse_term
from regbel.syntax import ActionTerm, attach_situation, fresh_name, num

FWD1 = ActionTerm("fwd", (num(1),))
DO_FWD1 = Situation((FWD1,))


def test_attach_situation_moves_now_to_s0():
    phi = parse_formula("h <= 9", fluents={"h"})
    grounded = attach_situation(phi, S0)
    assert grounded == Atom("<=", Fluent("h", S0), num(9))


def test_substitute_absent_variable_is_identity():
    t = parse_term("x + 1")
    assert substitute(t, "y", num(5)) == t


def test_substitute_skips_bound_occurrences():
    phi = Exists("x", Atom("=", Var("x"), Fluent("h", None)))
    assert substitute(phi, "x", num(3)) == phi


def test_substitute_renames_to_avoid_capture():
    # substituting y := x into exists x (x = y) must not capture x
    phi = Exists("x", Atom("=", Var("x"), Var("y")))
    out = substitute(phi, "y", Var("x"))
    assert isinstance(out, Exists)
    assert out.var != "x"
    assert free_vars(out) == frozenset({"x"})


def test_free_vars_of_error_expression():
    err = parse_term("if abs(u1 - u2) <= 1 then 1/3 else 0")
    assert free_vars(err) == frozenset({"u1", "u2"})


def test_free_vars_ground_atom_empty():
    assert free_vars(Atom("=", Fluent("h", S0), num(4))) == frozenset()


def test_free_vars_existential_binds():
    phi = Exists("u", And((Atom("=", Fluent("h", None), Var("u")),
                           Atom("<=", Var("u"), num(9)))))
    assert free_vars(phi) == frozenset()


def test_mentions_do():
    assert mentions_do(Fluent("h", DO_FWD1))
    assert not mentions_do(Fluent("h", S0))
    regressed = Atom("=", App("max", (num(0), App("-", (Fluent("h", S0), num(1))))),
                     num(11))
    assert not mentions_do(regressed)


def test_action_term_equality_is_unique_names():
    assert ActionTerm("fwd", (num(1),)) == ActionTerm("fwd", (num(1),))
    assert ActionTerm("fwd", (num(1),)) != ActionTerm("fwd", (num(2),))
    assert ActionTerm("fwd", (num(1),)) != ActionTerm("sonar", (num(1),))


def test_num_helper_keeps_rationals_exact():
    assert num(3).value == Fraction(3)
    assert isinstance(num(3).value, Fraction)
    assert isinstance(num(0.5).value, float)


def test_pretty_cond_round_trip():
    t = parse_term("if 2 <= h and h <= 12 then 1/10 else 0", fluents={"h"})
    assert parse_term(pretty(t), fluents={"h"}) == t


def test_pretty_nested_cond_round_trip():
    t = parse_term("if x <= 0 then if y <= 0 then 1 else 2 else 3")
    assert parse_term(pretty(t)) == t


def test_pi_parses_as_float_literal():
    assert parse_term("pi") == Num(math.pi)


def test_fresh_name_avoids_taken():
    assert fresh_name("u", set()) == "u"
    assert fresh_name("u", {"u"}) == "u_1"
    assert fresh_name("u", {"u", "u_1"}) == "u_2"


# ---------------------------------------------------------------------------
# fuzzed round trip

_int_nums = st.integers(-9, 9).map(num)
_rat_nums = st.builds(lambda n, d: num(Fraction(n, d)),
                      st.integers(-9, 9), st.integers(1, 9))
_leaves = st.one_of(_int_nums, _rat_nums,
                    st.sampled_from(["x", "y", "z"]).map(Var),
                    st.just(Fluent("h", None)))


def _mk_binary(op, a, b):
    if op == "/" and isinstance(a, Num) and isinstance(b, Num):
        # a quotient of literals prints as a rational literal; use + instead
        return App("+", (a, b))
    return App(op, (a, b))


def _mk_unary(op, a):
    if op == "neg" and isinstance(a, Num):
        return App("abs", (a,))  # -literal prints as a signed literal
    return App(op, (a,))


def _extend_terms(t):
    binary = st.builds(_mk_binary,
                       st.sampled_from(["+", "-", "*", "/", "min", "max", "pow"]),
                       t, t)
    unary = st.builds(_mk_unary, st.sampled_from(["neg", "abs"]), t)
    gauss = st.builds(lambda a, b, c: App("gauss", (a, b, c)), t, t, t)
    return st.one_of(binary, unary, gauss)


terms = st.recursive(_leaves, _extend_terms, max_leaves=8)

_atoms = st.builds(Atom, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                   terms, terms)


def _extend_formulas(f):
    return st.one_of(
        st.builds(lambda a, b: And((a, b)), f, f),
        st.builds(lambda a, b: Or((a, b)), f, f),
        st.builds(Not, f),
        st.builds(Exists, st.sampled_from(["u", "w"]), f),
    )


formulas = st.recursive(st.one_of(st.just(TRUE), st.just(FALSE), _atoms),
                        _extend_formulas, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_term_print_parse_round_trip(t):
    assert parse_term(pretty(t), fluents={"h"}) == t


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_formula_print_parse_round_trip(f):
    assert parse_formula(pretty(f), fluents={"h"}) == f


@settings(max_examples=200, deadline=None)
@given(terms, st.sampled_from(["x", "y", "z"]))
def test_substitution_removes_free_variable(t, v):
    assert v not in free_vars(substitute(t, v, num(2)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(terms, formulas))
# splitting the abs bound repeats the first disjunct
@example(Or((Atom(">=", Var("x"), Var("y")), Atom(">=", App("abs", (Var("x"),)), Var("y")))))
def test_fold_is_idempotent(e):
    once = fold(e)
    assert fold(once) == once
