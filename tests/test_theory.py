"""Theory lookups: successor-state right-hand sides, likelihoods,
preconditions, value variables, and validation of the bundled theories."""

from fractions import Fraction

import pytest

from regbel import Atom, Fluent, Num, TheoryError, Var, parse_theory
from regbel.evaluate import eval_term_at
from regbel.parser import parse_formula, parse_term
from regbel.syntax import ActionTerm, Const, num

from conftest import THREE_INT


def test_ssa_rhs_fwd_binds_argument(discrete):
    rhs = discrete.ssa_rhs("h", ActionTerm("fwd", (num(1),)))
    assert rhs == parse_term("max(0, h - 1)", fluents={"h"})


def test_ssa_rhs_frame_case_is_the_fluent(discrete):
    rhs = discrete.ssa_rhs("h", ActionTerm("grasp", (Const("obj5"),)))
    assert rhs == Fluent("h", None)


def test_ssa_rhs_sensing_never_changes_the_world(discrete):
    rhs = discrete.ssa_rhs("h", ActionTerm("sonar", (num(5),)))
    assert rhs == Fluent("h", None)


def test_ssa_rhs_fwd_zero_is_identity_on_the_domain(discrete):
    rhs = discrete.ssa_rhs("h", ActionTerm("fwd", (num(0),)))
    for v in range(0, 21):
        assert eval_term_at(rhs, {}, {"h": Fraction(v)}) == Fraction(v)


def test_likelihood_of_discrete_sonar(discrete):
    got = discrete.likelihood_of(ActionTerm("sonar", (num(5),)))
    assert got == parse_term("if abs(x_h - 5) <= 1 then 1/3 else 0")


def test_likelihood_of_physical_action_is_one(discrete):
    assert discrete.likelihood_of(ActionTerm("fwd", (num(2),))) == Num(Fraction(1))


def test_likelihood_of_continuous_sonar(continuous):
    got = continuous.likelihood_of(ActionTerm("sonar", (num(5),)))
    assert got == parse_term("if 5 >= 0 then gauss(5 - x_h, 0, 4) else 0")


def test_precondition_defaults_to_true_and_binds_params(discrete):
    from regbel import TRUE
    assert discrete.precondition_of(ActionTerm("fwd", (num(3),))) == TRUE
    from regbel import parse_theory
    guarded = parse_theory("""
fluent h : real in [0, 10]
action back(z: real) requires h >= z { h := h - z }
prior { if 1 <= h <= 9 then 1/8 else 0 }
""")
    assert guarded.precondition_of(ActionTerm("back", (num(3),))) == Atom(
        ">=", Fluent("h", None), num(3))


def test_arity_and_sort_checks(discrete):
    with pytest.raises(TheoryError):
        discrete.ssa_rhs("h", ActionTerm("fwd", ()))
    with pytest.raises(TheoryError):
        discrete.ssa_rhs("h", ActionTerm("grasp", (num(1),)))
    with pytest.raises(TheoryError):
        discrete.ssa_rhs("h", ActionTerm("fwd", (Const("obj5"),)))
    with pytest.raises(TheoryError):
        discrete.ssa_rhs("g", ActionTerm("fwd", (num(1),)))


def test_value_vars_avoid_clashes(discrete):
    assert discrete.value_vars() == {"h": "x_h"}
    assert discrete.value_vars(frozenset({"x_h"})) == {"h": "x_h_1"}


def test_bundled_theories_validate_cleanly(discrete, continuous):
    assert discrete.diagnostics == []
    assert continuous.diagnostics == []


def test_bundled_priors_are_normalized(discrete, continuous):
    assert discrete.prior_mass == Fraction(1)
    assert abs(continuous.prior_mass - 1.0) <= 1e-6


def test_three_fluent_prior_mass_is_exact():
    # sum over a, b of (2 if a <= b else 1), times the 31 values of c
    theory = parse_theory(THREE_INT)
    assert theory.diagnostics == []
    assert theory.prior_mass == 45167


def test_negative_likelihood_on_one_of_three_fluents_is_diagnosed():
    source = THREE_INT.replace("else 0 }", "else (if a = 30 then 0 - 1 else 0) }")
    assert source != THREE_INT
    theory = parse_theory(source)
    assert any(d.startswith("sensor sa likelihood negative")
               for d in theory.diagnostics), theory.diagnostics


def test_public_names_resolve_and_include_the_loaders():
    import regbel
    assert len(set(regbel.__all__)) == len(regbel.__all__)
    for name in regbel.__all__:
        assert getattr(regbel, name) is not None, name
    assert {"load_theory", "bundled_theory"} <= set(regbel.__all__)
    submodules = {"evaluate", "parser", "regression", "simplify", "syntax", "theory"}
    assert not submodules & set(regbel.__all__)
    namespace = {}
    exec("from regbel import *", namespace)
    assert namespace["bundled_theory"] is regbel.bundled_theory
