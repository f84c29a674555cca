"""Regression operators: term and formula regression, the per-prefix fluent
terms, preconditions, and full belief regression with its trace."""

import random
from fractions import Fraction

import pytest

from regbel import (
    App, Atom, Fluent, RegressionError, S0, Situation, TheoryError, TRUE, Var,
    fold, mentions_do, regress_belief, regress_formula,
    regress_projection, regress_term,
)
from regbel.evaluate import eval_formula_at, eval_term_at
from regbel.parser import parse_action_sequence, parse_formula, parse_term
from regbel.syntax import ActionTerm, attach_situation, num

from conftest import belief, regressed

FWD = lambda k: ActionTerm("fwd", (num(k),))
SONAR = lambda k: ActionTerm("sonar", (num(k),))


def test_regress_term_single_physical_action(discrete):
    t = Fluent("h", Situation((FWD(1),)))
    want = App("max", (num(0), App("-", (Fluent("h", S0), num(1)))))
    assert regress_term(discrete, t) == want


def test_regress_term_fixes_situation_independent_terms(discrete):
    t = parse_term("pow(pi, 2/3)")
    assert regress_term(discrete, t) == t


def test_regress_term_two_actions_composes_effects(discrete):
    t = Fluent("h", Situation((FWD(4), FWD(-4))))
    want = App("max", (num(0),
                       App("-", (App("max", (num(0),
                                             App("-", (Fluent("h", S0), num(4))))),
                                 num(-4)))))
    assert regress_term(discrete, t) == want
    # oracle: forward simulation of the two effects on sampled initial values
    for h0 in range(0, 21):
        after = max(0, max(0, h0 - 4) + 4)
        assert eval_term_at(regress_term(discrete, t), {}, {"h": Fraction(h0)}) == after


def test_regress_term_through_sensing_is_frame(continuous):
    t = Fluent("h", Situation((SONAR(5),)))
    assert regress_term(continuous, t) == Fluent("h", S0)


def test_regress_formula_example(discrete):
    phi = attach_situation(parse_formula("h = 11", fluents={"h"}),
                           Situation((FWD(1),)))
    got = regress_formula(discrete, phi)
    assert got == Atom("=", App("max", (num(0), App("-", (Fluent("h", S0), num(1))))),
                       num(11))
    assert not mentions_do(got)


def test_regress_formula_no_do_is_identity(discrete):
    phi = Atom("<=", Fluent("h", S0), num(9))
    assert regress_formula(discrete, phi) == phi


def test_regress_projection_trivia(discrete):
    assert regress_projection(discrete, TRUE, parse_action_sequence("fwd(2)")) == TRUE
    got = regress_projection(discrete, parse_formula("h = 7", fluents={"h"}),
                             S0)
    assert got == Atom("=", Fluent("h", S0), num(7))


def test_regress_projection_matches_forward_simulation(discrete):
    phi = parse_formula("h <= 5", fluents={"h"})
    got = regress_projection(discrete, phi, parse_action_sequence("fwd(2)"))
    assert not mentions_do(got)
    for h0 in range(0, 21):
        want = max(0, h0 - 2) <= 5
        assert eval_formula_at(got, {}, {"h": Fraction(h0)}) == want


def test_sensing_factor_is_the_likelihood_at_the_prefix_term(continuous):
    expr, _ = regressed(continuous, "h <= 5", "fwd(3); sonar(5)")
    at_sensing = parse_term("max(0, x_h - 3)")
    assert expr.factors == (fold(continuous.likelihood_of(SONAR(5), {"h": at_sensing})),)
    assert expr.factors[0] == parse_term("gauss(5 - max(0, x_h - 3), 0, 4)")
    assert expr.condition == parse_formula("x_h <= 8")
    assert expr.gamma_condition == TRUE


def test_physical_action_rewrites_the_condition_without_a_factor(continuous):
    expr, _ = regressed(continuous, "h = 0", "fwd(4)")
    assert expr.factors == ()
    assert expr.condition == parse_formula("max(0, x_h - 4) = 0")
    assert expr.gamma_condition == TRUE
    for k in range(0, 81):
        x = Fraction(k, 4)
        assert eval_formula_at(expr.condition, {"x_h": x}) == (x <= 4)


def test_history_with_an_undeclared_or_misapplied_action_fails(continuous):
    phi = parse_formula("h <= 5", fluents={"h"})
    with pytest.raises(TheoryError):
        regress_belief(continuous, phi, Situation((ActionTerm("jump", (num(1),)),)))
    with pytest.raises(TheoryError):
        regress_belief(continuous, phi, Situation((ActionTerm("fwd", ()),)))
    with pytest.raises(TheoryError):
        regress_projection(continuous, phi, Situation((ActionTerm("jump", (num(1),)),)))


def _subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)


def test_each_prefix_term_holds_the_one_before_it(discrete):
    _, trace = regressed(discrete, "h <= 5", "fwd(1); fwd(-2); sonar(4); fwd(3)")
    terms = [step["h"] for step in trace.terms]
    assert terms[0] == Var("x_h")
    for prev, nxt in zip(terms, terms[1:]):
        assert any(sub is prev for sub in _subterms(nxt))
    assert terms[3] is terms[2]                   # sensing changes nothing
    assert "steps" not in vars(trace)             # the derivation is not printed yet
    assert [s.rule for s in trace.steps][:4] == ["physical", "sensing", "physical",
                                                 "physical"]


def test_exists_query_still_evaluates(discrete, continuous):
    assert belief(discrete, "exists y (y = h and y <= 5)", "fwd(1); sonar(4)").value \
        == belief(discrete, "h <= 5", "fwd(1); sonar(4)").value
    expr, _ = regressed(continuous, "exists y (y = h and 4 <= y and y <= 6)", "sonar(5)")
    assert expr.condition == parse_formula("4 <= x_h and x_h <= 6")
    assert belief(continuous, "exists y (y = h and 4 <= y and y <= 6)", "sonar(5)").value \
        == belief(continuous, "4 <= h <= 6", "sonar(5)").value
    # an existential in a precondition reaches both conditions
    from regbel import parse_theory
    wall = parse_theory(WALL_REQUIRES.format(bound="5").replace(
        "h >= 5", "exists y (y = h and y >= 5)"))
    assert regressed(wall, "h <= 5", "fwd(1)")[0].gamma_condition == parse_formula("x_h >= 5")
    assert belief(wall, "h <= 5", "fwd(1)").value == Fraction(2, 7)


def test_repeated_sensing_squares_the_factor(continuous):
    expr, _ = regressed(continuous, "4 <= h <= 6", "sonar(5); sonar(5)")
    assert len(expr.factors) == 2
    assert expr.factors[0] == expr.factors[1]
    assert expr.factors[0] == parse_term("gauss(5 - x_h, 0, 4)")


def test_empty_sequence_keeps_condition_over_value_variables(discrete):
    expr, _ = regressed(discrete, "h <= 5")
    assert expr.factors == ()
    assert expr.condition == parse_formula("x_h <= 5")
    assert expr.gamma_condition == TRUE
    assert [v.name for v in expr.vars] == ["x_h"]


def test_sensing_factor_reflects_prior_physical_motion(continuous):
    # moving back by 2 then reading 8 is the same evidence as reading 6 at S0
    expr, _ = regressed(continuous, "h <= 5", "fwd(-2); sonar(8)")
    assert expr.condition == parse_formula("x_h <= 3")
    assert len(expr.factors) == 1
    want = parse_term("gauss(6 - x_h, 0, 4)")
    for k in range(0, 81):
        x = Fraction(k, 4)
        assert abs(eval_term_at(expr.factors[0], {"x_h": x})
                   - eval_term_at(want, {"x_h": x})) <= 1e-15


def test_order_sensitive_conditions(continuous):
    collapse, _ = regressed(continuous, "h = 4", "fwd(4); fwd(-4)")
    keep, _ = regressed(continuous, "h = 4", "fwd(-4); fwd(4)")
    rng = random.Random(3)
    for _ in range(2000):
        x = Fraction(rng.randint(0, 400), 20)
        assert eval_formula_at(collapse.condition, {"x_h": x}) == (x <= 4)
        assert eval_formula_at(keep.condition, {"x_h": x}) == (x == 4)


def test_noop_action_regresses_to_the_prior_query(continuous):
    for b in (3, 7, 10):
        with_grasp, _ = regressed(continuous, f"h <= {b}", "grasp(obj5)")
        without, _ = regressed(continuous, f"h <= {b}")
        assert with_grasp == without


def test_outputs_are_do_free(discrete, continuous):
    cases = [(discrete, "h <= 5", "sonar(5); fwd(2)"),
             (continuous, "4 <= h <= 6", "fwd(1); sonar(5); fwd(-3)"),
             (continuous, "h = 0", "fwd(4)")]
    for theory, q, a in cases:
        expr, _ = regressed(theory, q, a)
        for field in (expr.condition, expr.gamma_condition, expr.prior, *expr.factors):
            assert not mentions_do(field)


def test_trace_steps_chain(continuous):
    _, trace = regressed(continuous, "h <= 5", "fwd(-2); sonar(8)")
    peels = [s for s in trace.steps if s.rule in ("physical", "sensing")]
    assert [s.rule for s in peels] == ["sensing", "physical"]  # back to front
    for a, b in zip(peels, peels[1:]):
        assert a.after == b.before
    rendered = trace.render()
    assert "(i)" in rendered and "(ii)" in rendered
    doc = trace.to_dict()
    assert len(doc["steps"]) == len(trace.steps)


def test_query_with_situation_terms_is_rejected(discrete):
    bad = Atom("=", Fluent("h", Situation((FWD(1),))), num(3))
    with pytest.raises(RegressionError):
        regress_belief(discrete, bad, S0)


def test_query_with_undeclared_fluent_is_rejected(discrete):
    with pytest.raises(TheoryError):
        regress_belief(discrete, parse_formula("g <= 5", fluents={"g"}), S0)


def test_projection_belief_coherence(discrete):
    # belief equals the likelihood-weighted fraction of initial worlds where
    # the projected formula holds, brute-forced over the finite domain
    from regbel import eval_belief
    cases = [("h <= 5", "fwd(2)"), ("h = 5", "sonar(5)"),
             ("4 <= h <= 6", "sonar(5); fwd(1)")]
    for q, a in cases:
        phi = parse_formula(q, fluents={"h"})
        sit = parse_action_sequence(a)
        expr, _ = regress_belief(discrete, phi, sit)
        got = eval_belief(discrete, expr).value

        proj = regress_projection(discrete, phi, sit)
        numerator = Fraction(0)
        gamma = Fraction(0)
        for h0 in range(0, 21):
            val = {"h": Fraction(h0)}
            weight = eval_term_at(discrete.prior, {}, val)
            h = Fraction(h0)
            for action in sit.actions:
                if discrete.is_sensor(action.name):
                    err = discrete.likelihood_of(action)
                    weight *= eval_term_at(err, {"x_h": h})
                else:
                    h = eval_term_at(discrete.ssa_rhs("h", action), {}, {"h": h})
            gamma += weight
            if eval_formula_at(proj, {}, val):
                numerator += weight
        assert got == numerator / gamma


# ---------------------------------------------------------------------------
# preconditions: a world where an action is impossible gets weight 0

CHARGE = """
fluent n : int in [0, 3]
fluent x : real in [0, 2]
action mv(d: real) requires n >= 1 { x := max(0, x - d); n := n - 1 }
sensor sx(z: real) on x { gauss(z - x, 0, 1/2) }
sensor sn(z: int) on n { if n = z then 1 else 1/4 }
prior { if 1/2 <= x <= 3/2 then 1/4 else 0 }
"""

WALL_REQUIRES = """
fluent h : int in [0, 20]
action fwd(z: int) requires h >= {bound} {{ h := max(0, h - z) }}
sensor sonar(z: int) on h {{ if abs(h - z) <= 1 then 1/3 else 0 }}
prior {{ if 2 <= h <= 11 then 1/10 else 0 }}
"""


def test_failed_precondition_gives_zero_weight():
    from regbel import parse_theory
    charge = parse_theory(CHARGE)
    # mv needs n >= 1, so n = 0 after it means n = 1 before, one of three
    tol = 1e-6
    assert abs(belief(charge, "n = 0", "mv(0.49)", tol=tol).value - 1 / 3) <= tol
    wall = parse_theory(WALL_REQUIRES.format(bound="5"))
    # h in 5..11 before the move, 4..10 after it
    assert belief(wall, "h <= 5", "fwd(1)").value == Fraction(2, 7)
    expr, _ = regressed(wall, "h <= 5", "fwd(1)")
    assert expr.gamma_condition == parse_formula("x_h >= 5")


def test_precondition_then_sensing_agrees_with_the_oracle():
    from regbel import mc_oracle, parse_theory
    charge = parse_theory(CHARGE)
    got = belief(charge, "x <= 0.51", "mv(0.21); sx(0.4)").value
    est = mc_oracle(charge, parse_formula("x <= 0.51", fluents=charge.fluent_names),
                    parse_action_sequence("mv(0.21); sx(0.4)"), 200000, seed=5)
    assert abs(got - est.estimate) <= 3 * est.stderr


def _simulated_belief(theory, phi, sit):
    """Belief by forward simulation of every initial world in exact rationals."""
    numerator = gamma = Fraction(0)
    for h0 in range(0, 21):
        h = Fraction(h0)
        weight = eval_term_at(theory.prior, {}, {"h": h})
        for action in sit.actions:
            if not eval_formula_at(theory.precondition_of(action), {}, {"h": h}):
                weight = Fraction(0)
            elif theory.is_sensor(action.name):
                weight *= eval_term_at(theory.likelihood_of(action), {"x_h": h})
            else:
                h = eval_term_at(theory.ssa_rhs("h", action), {}, {"h": h})
        gamma += weight
        if eval_formula_at(phi, {}, {"h": h}):
            numerator += weight
    return numerator / gamma


@pytest.mark.parametrize("bound", [None, "z"])
def test_long_history_matches_forward_simulation(discrete, bound):
    from regbel import eval_belief, parse_theory
    theory = discrete if bound is None else parse_theory(WALL_REQUIRES.format(bound=bound))
    rng = random.Random(256)
    h = rng.randint(2, 11)
    actions = []
    for i in range(256):
        if i % 2:
            actions.append(f"sonar({h + rng.choice((-1, 0, 1))})")
        else:
            # the true world keeps h >= z, so it satisfies every precondition
            z = rng.choice((1, 2)) if h > 14 else rng.choice((-2, -1)) if h < 4 \
                else rng.choice((-2, -1, 1, 2))
            h = max(0, h - z)
            actions.append(f"fwd({z})")
    sit = parse_action_sequence("; ".join(actions))
    for q in ("4 <= h <= 9", "h = 7"):
        phi = parse_formula(q, fluents={"h"})
        expr, _ = regress_belief(theory, phi, sit)
        assert eval_belief(theory, expr).value == _simulated_belief(theory, phi, sit)
