"""Reduction of belief and projection queries over an action history to
expressions about the initial state only."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .simplify import fold, one_point_elim
from .syntax import (
    ActionTerm, And, App, Atom, Cond, Exists, Fluent, Formula, Lit, Not, Num,
    Or, S0, Situation, TRUE, Term, Var, conj, fluent_names, free_vars,
    mentions_do, pretty, substitute_fluents,
)
from .theory import ActionTheory, TheoryError


class RegressionError(Exception):
    pass


@dataclass(frozen=True)
class BeliefVar:
    """A value variable standing for one fluent's initial value."""

    fluent: str
    name: str
    discrete: bool


@dataclass(frozen=True)
class InitialBeliefExpr:
    """The regressed form of a belief query: likelihood factors (one per
    sensing action, the last one first) times the prior over initial fluent
    values, restricted to the regressed condition (the query and every
    action's precondition), normalized over the worlds where every
    precondition holds (``gamma_condition``)."""

    vars: tuple[BeliefVar, ...]
    factors: tuple[Term, ...]
    prior: Term
    condition: Formula
    gamma_condition: Formula

    def __str__(self) -> str:
        factors = " * ".join(pretty(f) for f in self.factors) or "1"
        return (f"vars: {', '.join(v.name for v in self.vars)}\n"
                f"likelihood: {factors}\n"
                f"prior: {pretty(self.prior)}\n"
                f"condition: {pretty(self.condition)}\n"
                f"gamma condition: {pretty(self.gamma_condition)}")


@dataclass(frozen=True)
class TraceStep:
    rule: str
    action: ActionTerm | None
    before: str
    after: str
    factor: str | None = None


class RegressionTrace:
    """How a belief query was regressed.  ``terms[k]`` maps each fluent to
    its value after the first k actions, as a term over the value variables.
    The derivation ``steps`` read the history back to front, one step per
    action; they are derived and printed on first use only."""

    def __init__(self, theory: ActionTheory, query: Formula, situation: Situation,
                 terms: list[dict[str, Term]], factors: tuple[Term, ...],
                 condition: Formula):
        self.theory = theory
        self.query = query
        self.situation = situation
        self.terms = terms
        self.factors = factors
        self.condition = condition

    @cached_property
    def steps(self) -> list[TraceStep]:
        theory = self.theory
        factors = iter(self.factors)
        cond = self.query
        out = []
        for action in reversed(self.situation.actions):
            before = pretty(cond)
            if theory.is_sensor(action.name):
                out.append(TraceStep("sensing", action, before, before,
                                     pretty(next(factors))))
                continue
            effects = {f: theory.ssa_rhs(f, action) for f in theory.fluent_names}
            cond = conj([p for p in (theory.precondition_of(action),
                                     substitute_fluents(cond, effects)) if p != TRUE])
            out.append(TraceStep("physical", action, before, pretty(cond)))
        initial = substitute_fluents(cond, self.terms[0])
        out.append(TraceStep("initial-values", None, pretty(cond), pretty(initial)))
        out.append(TraceStep("simplify", None, pretty(initial), pretty(self.condition)))
        return out

    def render(self) -> str:
        lines = []
        for i, s in enumerate(self.steps, start=1):
            roman = f"({_roman(i)})"
            what = f" [{s.action}]" if s.action else ""
            lines.append(f"{roman} {s.rule}{what}: {s.before}")
            if s.factor:
                lines.append(f"      factor {s.factor}")
            lines.append(f"      => {s.after}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"steps": [{"rule": s.rule,
                           "action": str(s.action) if s.action else None,
                           "before": s.before, "after": s.after,
                           "factor": s.factor} for s in self.steps]}


def _roman(n: int) -> str:
    pairs = [(10, "x"), (9, "ix"), (5, "v"), (4, "iv"), (1, "i")]
    out = ""
    for v, sym in pairs:
        while n >= v:
            out += sym
            n -= v
    return out


# ---------------------------------------------------------------------------
# the forward core

def prefix_terms(theory: ActionTheory, situation: Situation,
                 initial: dict[str, Term]) -> list[dict[str, Term]]:
    """Per-prefix fluent terms, built front to back: entry k maps each fluent
    to its value after the first k actions, as a term over the initial terms.
    Entry k is the successor-state right-hand sides with the fluents replaced
    by entry k - 1, which it holds by identity, so no prefix is regressed
    twice and the cost is linear in the history length."""
    out = [initial]
    for action in situation.actions:
        prev = out[-1]
        out.append({f: substitute_fluents(theory.ssa_rhs(f, action), prev) for f in prev})
    return out


def _initial_fluents(theory: ActionTheory) -> dict[str, Term]:
    return {f: Fluent(f, S0) for f in theory.fluent_names}


# ---------------------------------------------------------------------------
# term and formula regression

def regress_term(theory: ActionTheory, t: Term) -> Term:
    """Eliminate do-symbols from a term: a fluent in a situation becomes its
    prefix term over the initial fluent values."""
    match t:
        case Num() | Var():
            return t
        case Fluent(name, sit):
            if sit is None or sit.is_initial:
                return t
            theory.fluent(name)               # an undeclared fluent raises
            return prefix_terms(theory, sit, _initial_fluents(theory))[-1][name]
        case App(op, args):
            return App(op, tuple(regress_term(theory, a) for a in args))
        case Cond(g, t1, t2):
            return Cond(regress_formula(theory, g),
                        regress_term(theory, t1), regress_term(theory, t2))
        case _:
            raise RegressionError(f"cannot regress term {t!r}")


def regress_formula(theory: ActionTheory, phi: Formula) -> Formula:
    match phi:
        case Lit():
            return phi
        case Atom(rel, l, r):
            return Atom(rel, regress_term(theory, l), regress_term(theory, r))
        case And(items):
            return And(tuple(regress_formula(theory, f) for f in items))
        case Or(items):
            return Or(tuple(regress_formula(theory, f) for f in items))
        case Not(b):
            return Not(regress_formula(theory, b))
        case Exists(v, b):
            return Exists(v, regress_formula(theory, b))
    raise TypeError(f"not a formula: {phi!r}")


def regress_projection(theory: ActionTheory, phi: Formula, sit: Situation) -> Formula:
    """Reduce a situation-suppressed formula after the action sequence to a
    do-free formula about the initial situation."""
    _check_query(theory, phi)
    terms = prefix_terms(theory, sit, _initial_fluents(theory))[-1]
    return fold(substitute_fluents(phi, terms))


# ---------------------------------------------------------------------------
# belief regression

def regress_belief(theory: ActionTheory, phi: Formula,
                   situation: Situation | None = None):
    """Reduce a belief query over the action history to an expression about
    initial fluent values only.  Returns ``(InitialBeliefExpr, trace)``.

    Following Bacchus, Halpern and Levesque, a world in which some action's
    precondition fails gets weight 0: the condition is the regressed query
    and every action's regressed precondition, and the normalization
    condition is the preconditions alone.  Each sensing action contributes
    its likelihood with the target fluent at its prefix term."""
    sit = situation if situation is not None else S0
    _check_query(theory, phi)
    value_vars = theory.value_vars(free_vars(phi) | _theory_names(theory))
    terms = prefix_terms(theory, sit, {f: Var(v) for f, v in value_vars.items()})

    factors, poss = [], []
    for action, before in zip(sit.actions, terms):
        if theory.is_sensor(action.name):
            factors.append(fold(theory.likelihood_of(action, before)))
        else:
            poss.append(substitute_fluents(theory.precondition_of(action), before))
    gamma = _simplified(conj(poss))
    cond = fold(conj([_simplified(substitute_fluents(phi, terms[-1])), gamma]))

    expr = InitialBeliefExpr(
        vars=tuple(BeliefVar(f, v, theory.fluent(f).domain.is_finite)
                   for f, v in value_vars.items()),
        factors=tuple(reversed(factors)),
        prior=fold(substitute_fluents(theory.prior, terms[0])),
        condition=cond, gamma_condition=gamma)
    return expr, RegressionTrace(theory, phi, sit, terms, expr.factors, cond)


def _simplified(phi: Formula) -> Formula:
    """Fold, eliminating each definitional existential (``exists y (y = t
    and …)``) of a query or precondition, which the evaluator cannot decide
    at a point."""
    return fold(one_point_elim(fold(phi)))


def _check_query(theory: ActionTheory, phi: Formula):
    if mentions_do(phi):
        raise RegressionError("query must be situation-suppressed")
    bad = fluent_names(phi) - set(theory.fluent_names)
    if bad:
        raise TheoryError(f"query mentions undeclared fluents {sorted(bad)}")


def _theory_names(theory: ActionTheory) -> frozenset[str]:
    out = set(theory.fluent_names)
    out |= free_vars(theory.prior)
    for s in theory.sensors.values():
        out |= free_vars(s.error)
    return frozenset(out)
