"""Core term/formula language: situations, fluents, arithmetic terms and
first-order conditions, plus substitution, free-variable analysis and a
canonical textual form that round-trips through the parser."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[Fraction, float]


class SortError(Exception):
    """Raised when a substitution or construction mixes incompatible sorts."""


# ---------------------------------------------------------------------------
# situations

@dataclass(frozen=True)
class Situation:
    """A ground action history; the empty sequence is the initial situation."""

    actions: tuple["ActionTerm", ...] = ()

    def then(self, action: "ActionTerm") -> "Situation":
        return Situation(self.actions + (action,))

    @property
    def is_initial(self) -> bool:
        return not self.actions

    def __str__(self) -> str:
        if not self.actions:
            return "S0"
        inner = "S0"
        for a in self.actions:
            inner = f"do({a}, {inner})"
        return inner


S0 = Situation(())

# ---------------------------------------------------------------------------
# terms

BUILTIN_OPS = {
    "+": 2, "-": 2, "*": 2, "/": 2, "neg": 1,
    "min": 2, "max": 2, "abs": 1, "exp": 1, "pow": 2, "gauss": 3,
}


@dataclass(frozen=True)
class Num:
    """Numeric literal; exact when a Fraction, approximate when a float."""

    value: Number

    def __str__(self) -> str:
        if isinstance(self.value, Fraction):
            if self.value.denominator == 1:
                return str(self.value.numerator)
            return f"{self.value.numerator}/{self.value.denominator}"
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """Uninterpreted constant (an object name); only legal as an action argument."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fluent:
    """A fluent reference.  ``sit is None`` means the distinguished variable
    ``now``; otherwise a concrete ground situation."""

    name: str
    sit: Situation | None = None

    def __str__(self) -> str:
        if self.sit is None or self.sit.is_initial:
            return self.name
        return f"{self.name}[{self.sit}]"


@dataclass(frozen=True)
class ActionTerm:
    name: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"{self.name}()"
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class App:
    """Builtin operator application."""

    op: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if self.op not in BUILTIN_OPS:
            raise SortError(f"unknown operator {self.op!r}")
        if len(self.args) != BUILTIN_OPS[self.op]:
            raise SortError(
                f"{self.op} takes {BUILTIN_OPS[self.op]} arguments, got {len(self.args)}")

    def __str__(self) -> str:
        return _print_term(self, 0)


@dataclass(frozen=True)
class Cond:
    """IF guard THEN then ELSE other, as a term."""

    guard: "Formula"
    then: "Term"
    other: "Term"

    def __str__(self) -> str:
        return f"if {self.guard} then {_print_term(self.then, 0)} else {_print_term(self.other, 0)}"


Term = Union[Num, Var, Const, Fluent, ActionTerm, App, Cond]

# ---------------------------------------------------------------------------
# formulas

# relation name -> comparison on evaluated operands
REL_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Atom:
    rel: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.rel not in REL_OPS:
            raise SortError(f"unknown relation {self.rel!r}")

    def __str__(self) -> str:
        return f"{_print_term(self.lhs, 1)} {self.rel} {_print_term(self.rhs, 1)}"


@dataclass(frozen=True)
class And:
    items: tuple["Formula", ...]

    def __str__(self) -> str:
        return " and ".join(_print_formula(f, 2) for f in self.items)


@dataclass(frozen=True)
class Or:
    items: tuple["Formula", ...]

    def __str__(self) -> str:
        return " or ".join(_print_formula(f, 1) for f in self.items)


@dataclass(frozen=True)
class Not:
    body: "Formula"

    def __str__(self) -> str:
        return f"not {_print_formula(self.body, 3)}"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return f"exists {self.var} ({self.body})"


@dataclass(frozen=True)
class Lit:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Lit(True)
FALSE = Lit(False)

Formula = Union[Atom, And, Or, Not, Exists, Lit]
Expr = Union[Term, Formula]


def conj(items) -> Formula:
    items = tuple(items)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items) -> Formula:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    if antecedent == TRUE:
        return consequent
    return Or((Not(antecedent), consequent))


# ---------------------------------------------------------------------------
# pretty-printing with minimal parentheses
#
# term precedence: 0 additive, 1 multiplicative, 2 unary, 3 atomic
# formula precedence: 0 or, 1 and-context, 2 needs-parens-below-and, 3 atomic

def _print_term(t: Term, prec: int) -> str:
    match t:
        case Num(value) if isinstance(value, Fraction) and value.denominator != 1:
            # a rational literal reads as a quotient, so it binds like one
            s, p = str(t), 1
        case Num() | Var() | Const() | Fluent():
            s, p = str(t), 3
        case App("+" | "-" as op, (a, b)):
            s, p = f"{_print_term(a, 0)} {op} {_print_term(b, 1)}", 0
        case App("*" | "/" as op, (a, b)):
            s, p = f"{_print_term(a, 1)} {op} {_print_term(b, 2)}", 1
        case App("neg", (a,)):
            s, p = f"-{_print_term(a, 2)}", 2
        case App(op, args):
            s, p = f"{op}({', '.join(_print_term(a, 0) for a in args)})", 3
        case Cond():
            s, p = str(t), 0
        case ActionTerm():
            s, p = str(t), 3
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({s})" if p < prec else s


def _print_formula(f: Formula, prec: int) -> str:
    match f:
        case Lit() | Atom():
            s, p = str(f), 3
        case Exists():
            s, p = str(f), 3
        case Not():
            s, p = str(f), 2
        case And():
            s, p = str(f), 1
        case Or():
            s, p = str(f), 0
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if p < prec else s


def pretty(e: Expr) -> str:
    if isinstance(e, (Atom, And, Or, Not, Exists, Lit)):
        return _print_formula(e, 0)
    return _print_term(e, 0)


# ---------------------------------------------------------------------------
# traversal helpers

def free_vars(e: Expr) -> frozenset[str]:
    """Free numeric variables of a term or formula; situations contribute none."""
    match e:
        case Var(name):
            return frozenset((name,))
        case Num() | Const() | Fluent() | Lit():
            return frozenset()
        case ActionTerm(_, args) | App(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case Cond(g, t1, t2):
            return free_vars(g) | free_vars(t1) | free_vars(t2)
        case Atom(_, l, r):
            return free_vars(l) | free_vars(r)
        case And(items) | Or(items):
            out = frozenset()
            for f in items:
                out |= free_vars(f)
            return out
        case Not(b):
            return free_vars(b)
        case Exists(v, b):
            return free_vars(b) - {v}
    raise TypeError(f"not an expression: {e!r}")


def fluent_names(e: Expr) -> frozenset[str]:
    """Names of all fluents referenced anywhere in the expression."""
    match e:
        case Fluent(name, _):
            return frozenset((name,))
        case Num() | Var() | Const() | Lit():
            return frozenset()
        case ActionTerm(_, args) | App(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= fluent_names(a)
            return out
        case Cond(g, t1, t2):
            return fluent_names(g) | fluent_names(t1) | fluent_names(t2)
        case Atom(_, l, r):
            return fluent_names(l) | fluent_names(r)
        case And(items) | Or(items):
            out = frozenset()
            for f in items:
                out |= fluent_names(f)
            return out
        case Not(b):
            return fluent_names(b)
        case Exists(_, b):
            return fluent_names(b)
    raise TypeError(f"not an expression: {e!r}")


def mentions_do(e: Expr) -> bool:
    """True iff some fluent reference sits in a non-initial situation."""
    match e:
        case Fluent(_, sit):
            return sit is not None and not sit.is_initial
        case Num() | Var() | Const() | Lit():
            return False
        case ActionTerm(_, args) | App(_, args):
            return any(mentions_do(a) for a in args)
        case Cond(g, t1, t2):
            return mentions_do(g) or mentions_do(t1) or mentions_do(t2)
        case Atom(_, l, r):
            return mentions_do(l) or mentions_do(r)
        case And(items) | Or(items):
            return any(mentions_do(f) for f in items)
        case Not(b):
            return mentions_do(b)
        case Exists(_, b):
            return mentions_do(b)
    raise TypeError(f"not an expression: {e!r}")


def fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def substitute(e: Expr, var: str, replacement: Term):
    """Capture-avoiding substitution of a numeric variable."""
    match e:
        case Var(name):
            return replacement if name == var else e
        case Num() | Const() | Fluent() | Lit():
            return e
        case ActionTerm(name, args):
            return ActionTerm(name, tuple(substitute(a, var, replacement) for a in args))
        case App(op, args):
            return App(op, tuple(substitute(a, var, replacement) for a in args))
        case Cond(g, t1, t2):
            return Cond(substitute(g, var, replacement),
                        substitute(t1, var, replacement),
                        substitute(t2, var, replacement))
        case Atom(rel, l, r):
            return Atom(rel, substitute(l, var, replacement), substitute(r, var, replacement))
        case And(items):
            return And(tuple(substitute(f, var, replacement) for f in items))
        case Or(items):
            return Or(tuple(substitute(f, var, replacement) for f in items))
        case Not(b):
            return Not(substitute(b, var, replacement))
        case Exists(v, b):
            if v == var:
                return e
            if v in free_vars(replacement):
                v2 = fresh_name(v, free_vars(b) | free_vars(replacement))
                b = substitute(b, v, Var(v2))
                v = v2
            return Exists(v, substitute(b, var, replacement))
    raise TypeError(f"not an expression: {e!r}")


def substitute_many(e: Expr, mapping: dict[str, Term]):
    """Simultaneous substitution of several variables."""
    if not mapping:
        return e
    match e:
        case Var(name):
            return mapping.get(name, e)
        case Num() | Const() | Fluent() | Lit():
            return e
        case ActionTerm(name, args):
            return ActionTerm(name, tuple(substitute_many(a, mapping) for a in args))
        case App(op, args):
            return App(op, tuple(substitute_many(a, mapping) for a in args))
        case Cond(g, t1, t2):
            return Cond(substitute_many(g, mapping),
                        substitute_many(t1, mapping),
                        substitute_many(t2, mapping))
        case Atom(rel, l, r):
            return Atom(rel, substitute_many(l, mapping), substitute_many(r, mapping))
        case And(items):
            return And(tuple(substitute_many(f, mapping) for f in items))
        case Or(items):
            return Or(tuple(substitute_many(f, mapping) for f in items))
        case Not(b):
            return Not(substitute_many(b, mapping))
        case Exists(v, b):
            inner = {k: t for k, t in mapping.items() if k != v}
            captured = set().union(*(free_vars(t) for t in inner.values())) if inner else set()
            if v in captured:
                v2 = fresh_name(v, free_vars(b) | frozenset(captured))
                b = substitute(b, v, Var(v2))
                v = v2
            return Exists(v, substitute_many(b, inner))
    raise TypeError(f"not an expression: {e!r}")


def substitute_fluents(e: Expr, mapping: dict[str, Term], only_now: bool = True):
    """Simultaneously replace fluent references by terms.

    With ``only_now`` the replacement is limited to fluents at ``now``; set it
    false to also rewrite fluents at the initial situation (used when turning a
    regressed condition into one over value variables)."""
    match e:
        case Fluent(name, sit):
            eligible = sit is None if only_now else (sit is None or sit.is_initial)
            if eligible and name in mapping:
                return mapping[name]
            return e
        case Num() | Var() | Const() | Lit():
            return e
        case ActionTerm(name, args):
            return ActionTerm(name, tuple(substitute_fluents(a, mapping, only_now) for a in args))
        case App(op, args):
            return App(op, tuple(substitute_fluents(a, mapping, only_now) for a in args))
        case Cond(g, t1, t2):
            return Cond(substitute_fluents(g, mapping, only_now),
                        substitute_fluents(t1, mapping, only_now),
                        substitute_fluents(t2, mapping, only_now))
        case Atom(rel, l, r):
            return Atom(rel, substitute_fluents(l, mapping, only_now),
                        substitute_fluents(r, mapping, only_now))
        case And(items):
            return And(tuple(substitute_fluents(f, mapping, only_now) for f in items))
        case Or(items):
            return Or(tuple(substitute_fluents(f, mapping, only_now) for f in items))
        case Not(b):
            return Not(substitute_fluents(b, mapping, only_now))
        case Exists(v, b):
            return Exists(v, substitute_fluents(b, mapping, only_now))
    raise TypeError(f"not an expression: {e!r}")


def attach_situation(e: Expr, sit: Situation):
    """Replace every ``now`` situation slot with a concrete situation."""
    match e:
        case Fluent(name, s):
            return Fluent(name, sit) if s is None else e
        case Num() | Var() | Const() | Lit():
            return e
        case ActionTerm(name, args):
            return ActionTerm(name, tuple(attach_situation(a, sit) for a in args))
        case App(op, args):
            return App(op, tuple(attach_situation(a, sit) for a in args))
        case Cond(g, t1, t2):
            return Cond(attach_situation(g, sit), attach_situation(t1, sit),
                        attach_situation(t2, sit))
        case Atom(rel, l, r):
            return Atom(rel, attach_situation(l, sit), attach_situation(r, sit))
        case And(items):
            return And(tuple(attach_situation(f, sit) for f in items))
        case Or(items):
            return Or(tuple(attach_situation(f, sit) for f in items))
        case Not(b):
            return Not(attach_situation(b, sit))
        case Exists(v, b):
            return Exists(v, attach_situation(b, sit))
    raise TypeError(f"not an expression: {e!r}")


PI = Num(math.pi)
ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def num(x) -> Num:
    """Wrap a Python number, keeping ints/Fractions exact."""
    if isinstance(x, bool):
        raise SortError("booleans are not numeric terms")
    if isinstance(x, int):
        return Num(Fraction(x))
    if isinstance(x, Fraction):
        return Num(x)
    return Num(float(x))
