"""Numeric evaluation: exact discrete summation, breakpoint-aware quadrature,
the Monte Carlo oracle, and density profiles."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from regbel import (
    FALSE, And, Situation, TRUE, UndefinedBeliefError, density_profile, eval_belief,
    eval_belief_continuous, eval_belief_discrete, eval_formula_at,
    eval_term_at, fold, free_vars, mc_oracle, parse_theory, profile_csv,
)
from regbel.evaluate import (
    EvalError, NoSupportError, UnsupportedExistentialError, compile_formula,
    compile_term,
)
from regbel.parser import parse_action_sequence, parse_formula, parse_term

from conftest import THREE_INT, belief, regressed


# ---------------------------------------------------------------------------
# pointwise evaluation

def test_eval_formula_at_examples():
    assert eval_formula_at(parse_formula("max(0, x - 2) <= 5"), {"x": Fraction(6)})
    assert eval_formula_at(parse_formula("h = 7", fluents={"h"}), {},
                           {"h": Fraction(7)})
    assert eval_formula_at(TRUE, {}, {})
    assert not eval_formula_at(FALSE, {}, {})


def test_eval_term_exact_rational_arithmetic():
    v = eval_term_at(parse_term("(1/3 + 1/6) * 2"), {})
    assert v == Fraction(1) and isinstance(v, Fraction)


def test_eval_division_by_zero_raises():
    with pytest.raises(EvalError):
        eval_term_at(parse_term("1 / (x - x)"), {"x": Fraction(3)})


def test_huge_exact_power_is_refused_and_left_unfolded():
    tower = parse_term("pow(9, pow(9, 8))")
    with pytest.raises(EvalError):
        eval_term_at(tower, {})
    assert fold(tower) == parse_term("pow(9, 43046721)")
    assert eval_term_at(parse_term("pow(2/3, 100) * pow(-1, 1000000000)"), {}) \
        == Fraction(2, 3) ** 100


def test_eval_residual_existential_raises():
    with pytest.raises(UnsupportedExistentialError):
        eval_formula_at(parse_formula("exists u (u < x)"), {"x": Fraction(0)})


def test_eval_unbound_variable_raises():
    with pytest.raises(EvalError):
        eval_term_at(parse_term("x + 1"), {})


# ---------------------------------------------------------------------------
# discrete evaluation

def test_discrete_prior_queries(discrete):
    assert belief(discrete, "h = 10 or h = 11").value == Fraction(1, 5)
    assert belief(discrete, "h <= 9").value == Fraction(4, 5)


def test_discrete_sonar_update(discrete):
    r = belief(discrete, "h <= 5", "sonar(5)")
    assert r.value == Fraction(2, 3)
    assert r.gamma == Fraction(3, 30)
    assert r.error == 0.0


def test_discrete_false_query_is_zero(discrete):
    assert belief(discrete, "false").value == 0


def test_discrete_impossible_evidence_is_undefined(discrete):
    # a reading of 20 is incompatible with every world the prior supports
    with pytest.raises(UndefinedBeliefError):
        belief(discrete, "h <= 5", "sonar(20)")


def test_discrete_requires_finite_domains(discrete, continuous):
    expr, _ = regressed(continuous, "h <= 5")
    with pytest.raises(EvalError):
        eval_belief_discrete(continuous, expr)


# ---------------------------------------------------------------------------
# factored enumeration against the full product

def _full_product(theory, e):
    """Numerator and gamma by enumerating every valuation of every variable."""
    axes = [[(v.name, x) for x in theory.fluent(v.fluent).domain.values()]
            for v in e.vars]
    numerator = gamma = Fraction(0)
    for combo in itertools.product(*axes):
        env = dict(combo)
        weight = eval_term_at(e.prior, env)
        for f in e.factors:
            weight *= eval_term_at(f, env)
        if weight and eval_formula_at(e.gamma_condition, env):
            gamma += weight
            if eval_formula_at(e.condition, env):
                numerator += weight
    return numerator, gamma


def _assert_matches_full_product(theory, e):
    numerator, gamma = _full_product(theory, e)
    if gamma == 0:
        with pytest.raises(UndefinedBeliefError):
            eval_belief_discrete(theory, e)
        return None
    r = eval_belief_discrete(theory, e)
    assert isinstance(r.value, Fraction)
    assert (r.numerator, r.gamma, r.value) == (numerator, gamma, numerator / gamma)
    return r


def _fuzz_discrete(seed: int):
    """A seeded 2- or 3-fluent integer theory, with queries and histories."""
    rng = random.Random(seed)
    names = ["a", "b", "c"][:rng.randint(2, 3)]
    hi = {n: rng.randint(2, 5) for n in names}
    if rng.random() < 0.5:
        prior = f"(if a <= b then {rng.randint(1, 4)} else {rng.randint(1, 4)})"
    else:
        prior = (f"(if a <= {rng.randint(0, hi['a'])} then 2 else 1) * "
                 f"(if b >= {rng.randint(0, hi['b'])} then 1/3 else 1)")
    if "c" in names and rng.random() < 0.5:
        prior += f" * (if c = {rng.randint(0, hi['c'])} then 3 else 1)"
    effects = f"b := min({hi['b']}, b + k)" + ("; c := max(0, c - k)" if "c" in names else "")
    width = rng.randint(0, 1)
    theory = parse_theory("\n".join(
        [f"fluent {n} : int in [0, {hi[n]}]" for n in names]
        + [f"action shift(k: int) {{ {effects} }}",
           f"sensor sa(z: int) on a {{ if abs(a - z) <= {width} then 1/{2 * width + 1} else 0 }}",
           "sensor sb(z: int) on b { if abs(b - z) <= 1 then 1/3 else 1/9 }",
           f"prior {{ {prior} }}"]))
    assert theory.diagnostics == [], theory.diagnostics
    i, j = rng.randint(0, hi["a"]), rng.randint(0, hi["b"])
    queries = ["true", f"a <= {i} and b >= {j}", f"a <= {i} or b >= {j}",
               f"a + b <= {i + j}"]
    if "c" in names:
        k = rng.randint(0, hi["c"])
        queries += [f"a <= {i} and c != {k}", f"a >= {i} or c <= {k}",
                    f"b = {j} and c >= {k}"]
    steps = [rng.choice([f"sa({rng.randint(0, hi['a'])})",
                         f"sb({rng.randint(0, hi['b'])})",
                         f"shift({rng.randint(0, 2)})"])
             for _ in range(rng.randint(0, 3))]
    return theory, queries, "; ".join(steps)


@pytest.mark.parametrize("seed", range(24))
def test_factored_sum_equals_the_full_product(seed):
    theory, queries, after = _fuzz_discrete(seed)
    for q in queries:
        e, _ = regressed(theory, q, after)
        _assert_matches_full_product(theory, e)


def test_factored_sum_skips_a_fluent_mentioned_nowhere():
    theory = parse_theory(THREE_INT.replace("int in [0, 30]", "int in [0, 4]")
                          .replace("min(30,", "min(4,"))
    e, _ = regressed(theory, "a <= 2 and b >= 1", "sa(3); shift(1)")
    parts = (e.prior, *e.factors, e.condition, e.gamma_condition)
    assert not any("x_c" in free_vars(p) for p in parts)
    r = _assert_matches_full_product(theory, e)
    assert r.cells == 5 * 5  # a and b together; c multiplies by its 5 values


def test_factored_sum_splits_conjuncts_and_joins_disjuncts():
    theory = parse_theory(THREE_INT.replace("int in [0, 30]", "int in [0, 5]")
                          .replace("min(30,", "min(5,"))
    split = _assert_matches_full_product(
        theory, regressed(theory, "a <= 2 and c >= 3", "sa(2)")[0])
    joined = _assert_matches_full_product(
        theory, regressed(theory, "a <= 2 or c >= 3", "sa(2)")[0])
    assert split.cells == 6 * 6 + 6  # {a, b} and {c}
    assert joined.cells == 6 ** 3  # the disjunct couples c with a and b


def test_factored_sum_variable_free_false_conjunct():
    theory = parse_theory(THREE_INT.replace("int in [0, 30]", "int in [0, 3]")
                          .replace("min(30,", "min(3,"))
    e, _ = regressed(theory, "a <= 1 and c >= 2", "sa(1)")
    never = dataclasses.replace(e, condition=And((e.condition, FALSE)))
    r = _assert_matches_full_product(theory, never)
    assert r.value == 0 and r.gamma > 0
    undefined = dataclasses.replace(e, gamma_condition=And((FALSE, e.gamma_condition)))
    assert _assert_matches_full_product(theory, undefined) is None


def test_factored_sum_zero_mass_group_is_undefined():
    # no value of a is within 2 of the reading, whatever b and c are
    theory = parse_theory(THREE_INT)
    e, _ = regressed(theory, "b <= 3 and c <= 3", "sa(40)")
    with pytest.raises(UndefinedBeliefError):
        eval_belief_discrete(theory, e)


def test_three_fluent_query_enumerates_each_group_once():
    theory = parse_theory(THREE_INT)
    r = belief(theory, "a <= b and c <= 12", "sa(14); shift(3); sa(15)")
    assert r.value == Fraction(1152, 2945)
    assert r.cells == 31 * 31 + 31


# ---------------------------------------------------------------------------
# continuous evaluation

def test_continuous_prior_queries(continuous):
    assert belief(continuous, "h = 3 or h = 4").value == 0.0
    assert abs(belief(continuous, "4 <= h <= 6").value - 0.2) <= 1e-6


def test_continuous_motion_queries(continuous):
    assert abs(belief(continuous, "h >= 11", "fwd(1)").value - 0.0) <= 1e-6
    assert abs(belief(continuous, "h = 0", "fwd(4)").value - 0.2) <= 1e-6


def test_continuous_order_sensitivity(continuous):
    assert abs(belief(continuous, "h = 4", "fwd(4); fwd(-4)").value - 0.2) <= 1e-6
    assert abs(belief(continuous, "h = 4", "fwd(-4); fwd(4)").value - 0.0) <= 1e-6


def test_continuous_true_query_is_exactly_one(continuous):
    r = belief(continuous, "true", "sonar(5)")
    assert r.value == 1.0 and r.error == 0.0


def test_continuous_gamma_near_zero_is_undefined(continuous):
    # both sonar readings in wildly different places crush the posterior mass
    with pytest.raises(UndefinedBeliefError):
        belief(continuous, "h <= 5", "sonar(1000)")


def test_unbounded_domain_window_from_breakpoints():
    theory = parse_theory("""
fluent h : real in [-inf, inf]
action fwd(z: real) { h := h - z }
prior { if 2 <= h <= 12 then 1/10 else 0 }
""")
    assert theory.diagnostics == []
    assert abs(belief(theory, "h <= 5").value - 0.3) <= 1e-6
    assert abs(belief(theory, "h <= 5", "fwd(-2)").value - 0.1) <= 1e-6


def test_mixed_domain_sums_and_integrates():
    theory = parse_theory("""
fluent mode : int in [0, 1]
fluent h : real in [0, 20]
prior { (if mode = 0 then 3/4 else 1/4) * (if 2 <= h <= 12 then 1/10 else 0) }
""")
    assert theory.diagnostics == []
    assert abs(belief(theory, "mode = 0").value - 0.75) <= 1e-6
    assert abs(belief(theory, "mode = 0 and h <= 7").value - 0.375) <= 1e-6


def test_quadrature_skips_a_finite_fluent_mentioned_nowhere():
    from importlib import resources
    wall = resources.files("regbel").joinpath("theories", "wall_continuous.bel").read_text()
    plain = belief(parse_theory(wall), "h <= 5", "sonar(5)")
    padded = belief(parse_theory(wall + "fluent k : int in [0, 30]\n"), "h <= 5", "sonar(5)")
    assert (plain.cells, padded.cells) == (21, 21)
    assert padded.value == pytest.approx(plain.value, rel=1e-12)
    assert padded.gamma == pytest.approx(31 * plain.gamma, rel=1e-12)


def test_additivity_and_monotonicity(discrete, continuous):
    pairs = [("h <= 5", "4 <= h <= 9"), ("h <= 7", "h >= 3"),
             ("h = 5", "h <= 5")]
    for theory, tol in ((discrete, 0), (continuous, 5e-6)):
        for a, b in pairs:
            for after in ("", "sonar(5)", "fwd(1); sonar(5)"):
                pa = belief(theory, a, after).value
                pb = belief(theory, b, after).value
                por = belief(theory, f"({a}) or ({b})", after).value
                pand = belief(theory, f"({a}) and ({b})", after).value
                assert abs((por + pand) - (pa + pb)) <= 2 * tol + 1e-12
                assert pand <= pb + tol + 1e-12


# ---------------------------------------------------------------------------
# oracle

def test_oracle_trivial_query_is_one(continuous):
    sit = parse_action_sequence("sonar(5)")
    est = mc_oracle(continuous, TRUE, sit, 1000, seed=5)
    assert est.estimate == 1.0


def test_oracle_matches_discrete_engine(discrete):
    phi = parse_formula("h <= 5", fluents={"h"})
    sit = parse_action_sequence("sonar(5)")
    est = mc_oracle(discrete, phi, sit, 200000, seed=9)
    assert abs(est.estimate - 2 / 3) <= 3 * est.stderr + 1e-6


def test_oracle_matches_continuous_engine(continuous):
    phi = parse_formula("4 <= h <= 6", fluents={"h"})
    sit = parse_action_sequence("sonar(5); sonar(5)")
    est = mc_oracle(continuous, phi, sit, 200000, seed=10)
    want = belief(continuous, "4 <= h <= 6", "sonar(5); sonar(5)").value
    assert abs(est.estimate - want) <= 3 * est.stderr + 1e-6


def test_oracle_is_deterministic_given_seed(continuous):
    phi = parse_formula("h <= 5", fluents={"h"})
    sit = parse_action_sequence("fwd(2)")
    a = mc_oracle(continuous, phi, sit, 5000, seed=42)
    b = mc_oracle(continuous, phi, sit, 5000, seed=42)
    assert a == b


def test_oracle_memory_is_bounded_by_its_block(continuous):
    import tracemalloc
    phi = parse_formula("4 <= h <= 6", fluents={"h"})
    sit = parse_action_sequence("fwd(1); sonar(5)")
    tracemalloc.start()
    try:
        mc_oracle(continuous, phi, sit, 10 ** 6, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_oracle_with_a_partial_last_block(continuous):
    phi = parse_formula("4 <= h <= 6", fluents={"h"})
    sit = parse_action_sequence("fwd(1); sonar(5)")
    est = mc_oracle(continuous, phi, sit, 10001, seed=4)
    assert est.samples == 10001
    want = belief(continuous, "4 <= h <= 6", "fwd(1); sonar(5)").value
    assert abs(est.estimate - want) <= 3 * est.stderr + 1e-6


def test_oracle_no_support(discrete):
    phi = parse_formula("h <= 5", fluents={"h"})
    sit = parse_action_sequence("sonar(20)")
    with pytest.raises(NoSupportError):
        mc_oracle(discrete, phi, sit, 1000, seed=0)


def test_compiled_terms_match_scalar_evaluation(continuous):
    exprs = ["max(0, x - 4) + min(x, 2)", "abs(x - 3) * (x / 4 + 1)",
             "if 2 <= x and x <= 12 then 1/10 else 0",
             "gauss(5 - x, 0, 4)"]
    xs = np.linspace(-5.0, 15.0, 101)
    for src in exprs:
        t = parse_term(src)
        compiled = compile_term(t)({"x": xs})
        for x, got in zip(xs, np.atleast_1d(compiled * np.ones_like(xs))):
            want = float(eval_term_at(t, {"x": float(x)}))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_compiled_formulas_match_scalar_evaluation():
    phi = parse_formula("max(0, x - 4) <= 3 and not x < 0")
    xs = np.linspace(-5.0, 15.0, 101)
    mask = compile_formula(phi)({"x": xs})
    for x, got in zip(xs, mask):
        assert bool(got) == eval_formula_at(phi, {"x": float(x)})


# ---------------------------------------------------------------------------
# cross-engine properties

def test_uninformative_sensor_leaves_belief_unchanged():
    theory = parse_theory("""
fluent h : real in [0, 20]
action fwd(z: real) { h := max(0, h - z) }
sensor sonar(z: real) on h { if z >= 0 then gauss(z - h, 0, 4) else 0 }
sensor flat(z: real) on h { 1/2 }
prior { if 2 <= h <= 12 then 1/10 else 0 }
""")
    assert theory.diagnostics == []
    for q, after in (("h <= 5", ""), ("4 <= h <= 6", "sonar(5)"),
                     ("h <= 7", "fwd(2)")):
        plain = belief(theory, q, after).value
        with_flat = belief(theory, q, (after + "; " if after else "") + "flat(1)").value
        assert abs(plain - with_flat) <= 1e-6


def test_discretized_uniform_prior_tracks_the_continuous_engine(continuous):
    step = Fraction(1, 10)
    members = ", ".join(str(Fraction(2) + k * step) for k in range(101))
    discretized = parse_theory(f"""
fluent h : set {{{members}}}
action fwd(z: int) {{ h := max(0, h - z) }}
sensor sonar(z: int) on h {{ gauss(z - h, 0, 4) }}
prior {{ 1/101 }}
""")
    assert discretized.diagnostics == []
    for q, after in (("4 <= h <= 6", "sonar(5)"), ("h <= 7", "fwd(1)")):
        fine = float(belief(discretized, q, after).value)
        cont = belief(continuous, q, after).value
        assert abs(fine - cont) <= 2 * float(step)


# ---------------------------------------------------------------------------
# density profiles

def test_profile_of_the_prior(continuous):
    rows = density_profile(continuous, Situation(), "h", [3.0, 7.0, 13.0])
    assert rows == [(3.0, 0.1), (7.0, 0.1), (13.0, 0.0)]


def test_profile_after_sensing(continuous):
    sit = parse_action_sequence("sonar(5)")
    [(v, d)] = density_profile(continuous, sit, "h", [5.0])
    want = 0.1 * math.exp(0.0) / math.sqrt(2 * math.pi * 4)
    assert abs(d - want) <= 1e-12


def test_profile_after_motion_shifts_the_support(continuous):
    sit = parse_action_sequence("fwd(1)")
    rows = dict(density_profile(continuous, sit, "h", [0.5, 6.0, 10.5, 11.5]))
    assert rows[0.5] == 0.0
    assert abs(rows[6.0] - 0.1) <= 1e-9
    assert abs(rows[10.5] - 0.1) <= 1e-9
    assert rows[11.5] == 0.0


def _gauss(x, var):
    return math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)


@pytest.mark.parametrize("seed", range(3))
def test_profile_after_shift_clamps_and_reading(continuous, seed):
    # h0 -> max(0, h0 + s) -> max(0, h - c) -> max(0, h - k) -> h + k, then a
    # reading z.  Every final value v > k has the one preimage h0 = v + c - s
    # with slope 1; v = k is the atom the clamps pile up.
    rng = random.Random(seed)
    s, c, k = (f"{rng.uniform(0.5, 3.0):.2f}" for _ in range(3))
    z = f"{rng.uniform(2.0, 12.0):.2f}"
    sit = parse_action_sequence(f"fwd(-{s}); fwd({c}); fwd({k}); fwd(-{k}); sonar({z})")
    offset = rng.uniform(0.0, 0.1)
    grid = [round(offset + i * 0.099, 9) for i in range(201)]
    for v, d in density_profile(continuous, sit, "h", grid):
        x0 = Fraction(v) + Fraction(c) - Fraction(s)
        want = 0.0
        if Fraction(v) > Fraction(k) and 2 <= x0 <= 12:
            want = 0.1 * _gauss(float(Fraction(z) - Fraction(v)), 4.0)
        assert abs(d - want) <= 1e-12, v


def test_profile_through_a_curved_motion():
    # h -> h*h/10 maps the uniform prior on [2, 12] onto [0.4, 14.4], with
    # density 0.1 * dh/dv = 0.1 * sqrt(10) / (2 sqrt(v))
    theory = parse_theory("""
fluent h : real in [0, 20]
action sq() { h := h * h / 10 }
prior { if 2 <= h <= 12 then 1/10 else 0 }
""")
    grid = [0.3, 0.45, 1.0, 3.7, 8.0, 14.3, 14.5, 19.0]
    for v, d in density_profile(theory, parse_action_sequence("sq()"), "h", grid):
        want = 0.1 * math.sqrt(10) / (2 * math.sqrt(v)) if 0.4 < v < 14.4 else 0.0
        assert abs(d - want) <= 1e-8, v


def test_profile_omits_the_clamp_atom(continuous):
    sit = parse_action_sequence("fwd(3)")
    rows = density_profile(continuous, sit, "h", [0.0, 1.0])
    assert rows == [(0.0, 0.0), (1.0, 0.1)]


def test_profile_requires_real_fluent(discrete):
    with pytest.raises(EvalError):
        density_profile(discrete, Situation(), "h", [5.0])


def test_profile_csv_single_row(continuous):
    rows = density_profile(continuous, Situation(), "h", [7.0])
    csv = profile_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "value,density"
    assert len(lines) == 2


def test_import_does_not_load_numpy():
    import os
    import subprocess
    import sys

    import regbel
    src = os.path.dirname(os.path.dirname(regbel.__file__))
    code = "import sys, regbel, regbel.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
