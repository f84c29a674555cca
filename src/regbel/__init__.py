"""Belief regression for action theories: reduce degree-of-belief queries
after acting and sensing to expressions over the initial state, then evaluate
them exactly (finite domains) or by quadrature (real and mixed domains)."""

from .evaluate import (
    EvalError, EvalResult, NoSupportError, OracleEstimate,
    UndefinedBeliefError, UnsupportedExistentialError, density_profile,
    eval_belief, eval_belief_continuous, eval_belief_discrete,
    eval_formula_at, eval_term_at, mc_oracle, profile_csv,
)
from .parser import (
    ParseError, parse_action_sequence, parse_formula, parse_term,
)
from .regression import (
    InitialBeliefExpr, RegressionError, RegressionTrace, regress_belief,
    regress_formula, regress_projection, regress_term,
)
from .simplify import (
    PiecewiseTerm, fold, normalize_fluent_atoms, one_point_elim, to_piecewise,
)
from .syntax import (
    ActionTerm, And, App, Atom, Cond, Const, Exists, FALSE, Fluent, Lit, Not,
    Num, Or, S0, Situation, TRUE, Var, free_vars, mentions_do, pretty,
    substitute,
)
from .theory import (
    ActionDecl, ActionTheory, FiniteIntRange, FiniteSet, FluentDecl, Param,
    RealInterval, SensorDecl, TheoryError, parse_theory, validate_theory,
)

__all__ = [
    # evaluation
    "EvalError", "EvalResult", "NoSupportError", "OracleEstimate",
    "UndefinedBeliefError", "UnsupportedExistentialError", "density_profile",
    "eval_belief", "eval_belief_continuous", "eval_belief_discrete",
    "eval_formula_at", "eval_term_at", "mc_oracle", "profile_csv",
    # parsing
    "ParseError", "parse_action_sequence", "parse_formula", "parse_term",
    # regression
    "InitialBeliefExpr", "RegressionError", "RegressionTrace", "regress_belief",
    "regress_formula", "regress_projection", "regress_term",
    # simplification
    "PiecewiseTerm", "fold", "normalize_fluent_atoms", "one_point_elim",
    "to_piecewise",
    # syntax
    "ActionTerm", "And", "App", "Atom", "Cond", "Const", "Exists", "FALSE",
    "Fluent", "Lit", "Not", "Num", "Or", "S0", "Situation", "TRUE", "Var",
    "free_vars", "mentions_do", "pretty", "substitute",
    # theories
    "ActionDecl", "ActionTheory", "FiniteIntRange", "FiniteSet", "FluentDecl",
    "Param", "RealInterval", "SensorDecl", "TheoryError", "parse_theory",
    "validate_theory", "load_theory", "bundled_theory",
]
__version__ = "0.1.0"


def load_theory(path) -> "ActionTheory":
    """Read, parse and validate a theory file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def bundled_theory(name: str) -> "ActionTheory":
    """Load one of the shipped example theories: ``wall-discrete`` or
    ``wall-continuous``."""
    import importlib.resources
    fname = name.replace("-", "_") + ".bel"
    text = importlib.resources.files(__name__).joinpath("theories", fname).read_text()
    return parse_theory(text)
