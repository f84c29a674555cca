"""Action theories: fluent/action/sensor declarations, the initial prior, and
the lookups used by regression (successor-state right-hand sides and action
likelihoods)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .syntax import (
    ActionTerm, Const, Fluent, Formula, Lit, Num, Term, TRUE, Var,
    fluent_names, free_vars, substitute_many,
)


class TheoryError(Exception):
    """A query or lookup against a theory that cannot be satisfied."""


@dataclass(frozen=True)
class FiniteIntRange:
    lo: int
    hi: int

    def values(self):
        return [Fraction(v) for v in range(self.lo, self.hi + 1)]

    @property
    def is_finite(self) -> bool:
        return True

    def contains(self, v) -> bool:
        return v == int(v) and self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"int in [{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class FiniteSet:
    members: tuple[Fraction, ...]

    def values(self):
        return list(self.members)

    @property
    def is_finite(self) -> bool:
        return True

    def contains(self, v) -> bool:
        return v in self.members

    def __str__(self) -> str:
        return "set {" + ", ".join(str(Num(m)) for m in self.members) + "}"


@dataclass(frozen=True)
class RealInterval:
    lo: float
    hi: float

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def is_bounded(self) -> bool:
        import math
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"real in [{self.lo}, {self.hi}]"


Domain = FiniteIntRange | FiniteSet | RealInterval


@dataclass(frozen=True)
class FluentDecl:
    name: str
    domain: Domain


@dataclass(frozen=True)
class Param:
    name: str
    sort: str  # "real" | "int" | "obj"


@dataclass(frozen=True)
class ActionDecl:
    name: str
    params: tuple[Param, ...]
    effects: dict[str, Term]  # fluent name -> effect over `now` fluents and params
    precondition: Formula = TRUE

    def __hash__(self):
        return hash((self.name, self.params))


@dataclass(frozen=True)
class SensorDecl:
    name: str
    param: Param
    target: str  # fluent being measured
    error: Term  # over the reading param and the target fluent at `now`


@dataclass
class ActionTheory:
    fluents: list[FluentDecl]
    actions: dict[str, ActionDecl]
    sensors: dict[str, SensorDecl]
    prior: Term  # weight/density over fluents at `now`
    diagnostics: list[str] = field(default_factory=list)
    prior_mass: Fraction | float | None = None

    def fluent(self, name: str) -> FluentDecl:
        for f in self.fluents:
            if f.name == name:
                return f
        raise TheoryError(f"undeclared fluent {name!r}")

    @property
    def fluent_names(self) -> list[str]:
        return [f.name for f in self.fluents]

    @property
    def all_discrete(self) -> bool:
        return all(f.domain.is_finite for f in self.fluents)

    def is_sensor(self, name: str) -> bool:
        return name in self.sensors

    def declared(self, name: str) -> bool:
        return name in self.actions or name in self.sensors

    def _check_args(self, action: ActionTerm, params: tuple[Param, ...]):
        if len(action.args) != len(params):
            raise TheoryError(
                f"{action.name} takes {len(params)} arguments, got {len(action.args)}")
        for p, a in zip(params, action.args):
            if p.sort == "obj":
                if not isinstance(a, Const):
                    raise TheoryError(
                        f"argument {p.name} of {action.name} must be an object constant")
            elif not isinstance(a, Num):
                raise TheoryError(
                    f"argument {p.name} of {action.name} must be a numeral, got {a}")

    def ssa_rhs(self, fluent: str, action: ActionTerm) -> Term:
        """Effect expression for the fluent under the given ground action, with
        parameters bound; the frame case yields the fluent itself."""
        self.fluent(fluent)
        if action.name in self.sensors:
            decl = self.sensors[action.name]
            self._check_args(action, (decl.param,))
            return Fluent(fluent, None)  # sensing never changes the world
        if action.name not in self.actions:
            raise TheoryError(f"undeclared action {action.name!r}")
        decl = self.actions[action.name]
        self._check_args(action, decl.params)
        effect = decl.effects.get(fluent)
        if effect is None:
            return Fluent(fluent, None)
        binding = {p.name: a for p, a in zip(decl.params, action.args)}
        return substitute_many(effect, binding)

    def likelihood_of(self, action: ActionTerm, value_vars: dict[str, str] | None = None) -> Term:
        """Likelihood term of a ground action: the sensor error expression with
        the reading substituted (over the target fluent's value variable), or
        the constant 1 for physical actions."""
        if action.name in self.sensors:
            decl = self.sensors[action.name]
            self._check_args(action, (decl.param,))
            value_vars = value_vars or self.value_vars()
            err = substitute_many(decl.error, {decl.param.name: action.args[0]})
            from .syntax import substitute_fluents
            return substitute_fluents(err, {decl.target: Var(value_vars[decl.target])})
        if action.name in self.actions:
            decl = self.actions[action.name]
            self._check_args(action, decl.params)
            return Num(Fraction(1))
        raise TheoryError(f"undeclared action {action.name!r}")

    def precondition_of(self, action: ActionTerm) -> Formula:
        """Instantiated precondition formula over fluents at ``now``."""
        if action.name in self.sensors:
            return TRUE
        if action.name not in self.actions:
            raise TheoryError(f"undeclared action {action.name!r}")
        decl = self.actions[action.name]
        self._check_args(action, decl.params)
        binding = {p.name: a for p, a in zip(decl.params, action.args)}
        return substitute_many(decl.precondition, binding)

    def value_vars(self, avoid: frozenset[str] = frozenset()) -> dict[str, str]:
        """One value variable per fluent, in declaration order, avoiding clashes
        with the given names."""
        from .syntax import fresh_name
        taken = set(avoid)
        out = {}
        for f in self.fluents:
            name = fresh_name(f"x_{f.name}", taken)
            taken.add(name)
            out[f.name] = name
        return out


def parse_theory(text: str) -> ActionTheory:
    """Parse and validate theory source; diagnostics land on the result."""
    from .parser import parse_theory_source
    theory = parse_theory_source(text)
    validate_theory(theory)
    return theory


def validate_theory(theory: ActionTheory) -> list[str]:
    """Structural and numeric sanity checks; appends to and returns the
    theory's diagnostics list.  Nonnegativity is checked on a sampled grid of
    the fluents each term mentions, and the prior's total mass is computed
    (and must be finite and positive)."""
    diags = theory.diagnostics
    names = theory.fluent_names
    if len(set(names)) != len(names):
        diags.append("duplicate fluent declaration")
    declared = set(names)

    for f in theory.fluents:
        d = f.domain
        if isinstance(d, FiniteIntRange) and d.lo > d.hi:
            diags.append(f"fluent {f.name}: empty range")
        if isinstance(d, FiniteSet) and not d.members:
            diags.append(f"fluent {f.name}: empty set domain")
        if isinstance(d, RealInterval) and not d.lo <= d.hi:
            diags.append(f"fluent {f.name}: empty interval")

    for a in theory.actions.values():
        pnames = {p.name for p in a.params}
        for fl, eff in a.effects.items():
            if fl not in declared:
                diags.append(f"action {a.name}: effect on undeclared fluent {fl!r}")
            extra = free_vars(eff) - pnames
            if extra:
                diags.append(f"action {a.name}: effect mentions unknown names {sorted(extra)}")
            bad = fluent_names(eff) - declared
            if bad:
                diags.append(f"action {a.name}: effect mentions undeclared fluents {sorted(bad)}")
        extra = free_vars(a.precondition) - pnames
        if extra:
            diags.append(f"action {a.name}: precondition mentions unknown names {sorted(extra)}")

    for s in theory.sensors.values():
        if s.target not in declared:
            diags.append(f"sensor {s.name}: undeclared target fluent {s.target!r}")
            continue
        extra = free_vars(s.error) - {s.param.name}
        if extra:
            diags.append(f"sensor {s.name}: likelihood mentions unknown names {sorted(extra)}")
        others = fluent_names(s.error) - {s.target}
        if others:
            diags.append(f"sensor {s.name}: likelihood depends on extra fluent {sorted(others)}")
        _check_nonnegative(theory, s.error, f"sensor {s.name} likelihood",
                           extra_var=s.param.name)

    bad = fluent_names(theory.prior) - declared
    if bad:
        diags.append(f"prior mentions undeclared fluents {sorted(bad)}")
    if free_vars(theory.prior):
        diags.append(f"prior mentions unknown names {sorted(free_vars(theory.prior))}")

    if not diags:
        _check_nonnegative(theory, theory.prior, "prior")
        try:
            theory.prior_mass = _prior_mass(theory)
        except Exception as exc:  # noqa: BLE001 - reported as a diagnostic
            diags.append(f"prior mass could not be computed: {exc}")
        else:
            if not theory.prior_mass > 0:
                diags.append("prior has zero total mass; belief undefined")
            import math
            if isinstance(theory.prior_mass, float) and not math.isfinite(theory.prior_mass):
                diags.append("prior mass is not finite")
    return diags


def _sample_grid(theory: ActionTheory, names, per_dim: int = 13):
    """Cartesian grid of valuations of the named declared fluents over their
    domains (clipped for unbounded intervals)."""
    import itertools
    axes = []
    for f in theory.fluents:
        if f.name not in names:
            continue
        d = f.domain
        if d.is_finite:
            axes.append([(f.name, v) for v in d.values()])
        else:
            lo = d.lo if d.lo > float("-inf") else -100.0
            hi = d.hi if d.hi < float("inf") else 100.0
            step = (hi - lo) / (per_dim - 1) if per_dim > 1 else 0.0
            axes.append([(f.name, lo + i * step) for i in range(per_dim)])
    for combo in itertools.product(*axes):
        yield dict(combo)


def _check_nonnegative(theory: ActionTheory, expr: Term, what: str, extra_var: str | None = None):
    from .evaluate import EvalError, eval_term_at
    # the value of expr depends only on the fluents it mentions
    for val in _sample_grid(theory, fluent_names(expr)):
        extras = [Fraction(0)]
        if extra_var is not None:
            extras = [Fraction(k) for k in range(-12, 25, 3)]
        for z in extras:
            env = {extra_var: z} if extra_var else {}
            try:
                v = eval_term_at(expr, env, val)
            except EvalError:
                continue
            if v < 0:
                theory.diagnostics.append(f"{what} negative at sample {val}")
                return


def _prior_mass(theory: ActionTheory):
    """Total prior weight (discrete) or integral (otherwise)."""
    from .evaluate import eval_belief_continuous, eval_belief_discrete
    from .regression import regress_belief
    expr, _ = regress_belief(theory, TRUE, situation=None)
    if theory.all_discrete:
        return eval_belief_discrete(theory, expr).gamma
    return eval_belief_continuous(theory, expr).gamma
