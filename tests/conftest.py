"""Shared fixtures and helpers for the test suite."""

import pytest

from regbel import (
    bundled_theory, eval_belief, parse_action_sequence, parse_formula,
    regress_belief,
)


@pytest.fixture(scope="session")
def discrete():
    return bundled_theory("wall-discrete")


@pytest.fixture(scope="session")
def continuous():
    return bundled_theory("wall-continuous")


def belief(theory, query: str, after: str = "", tol: float = 1e-6):
    """Parse, regress and evaluate a belief query; returns an EvalResult."""
    phi = parse_formula(query, fluents=theory.fluent_names)
    situation = parse_action_sequence(after)
    expr, _ = regress_belief(theory, phi, situation)
    return eval_belief(theory, expr, tol=tol)


def regressed(theory, query: str, after: str = ""):
    phi = parse_formula(query, fluents=theory.fluent_names)
    situation = parse_action_sequence(after)
    return regress_belief(theory, phi, situation)


# Three integer fluents of 31 values each; only a is sensed, the prior couples
# a with b, and c is coupled with nothing.
THREE_INT = """
fluent a : int in [0, 30]
fluent b : int in [0, 30]
fluent c : int in [0, 30]
action shift(k: int) { b := min(30, b + k); c := max(0, c - k) }
sensor sa(z: int) on a { if abs(a - z) <= 2 then 1/5 else 0 }
prior { if a <= b then 2 else 1 }
"""
