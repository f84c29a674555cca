"""Formula and term normalization: the fluents-only-in-equalities entry form,
definitional existential elimination, exact constant folding, and conversion of
min/max/abs/if-then-else structure into guarded arithmetic pieces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    And, App, Atom, Cond, Exists, FALSE, Fluent, Formula, Lit, Not, Num, Or,
    REL_OPS, TRUE, Term, Var, conj, disj, fluent_names, free_vars, fresh_name,
    substitute, substitute_fluents,
)


@dataclass(frozen=True)
class PiecewiseTerm:
    """Guard-free arithmetic bodies under pairwise-exclusive, jointly
    exhaustive guards."""

    pieces: tuple[tuple[Formula, Term], ...]


# ---------------------------------------------------------------------------
# entry normal form

def normalize_fluent_atoms(phi: Formula) -> Formula:
    """Rewrite so fluent references occur only as a bare side of an equality,
    introducing one definitional existential per hoisted fluent."""
    match phi:
        case Lit():
            return phi
        case Atom(rel, lhs, rhs):
            if rel == "=":
                if isinstance(lhs, Fluent) and not fluent_names(rhs):
                    return phi
                if isinstance(rhs, Fluent) and not fluent_names(lhs):
                    return phi
            names = sorted(fluent_names(phi))
            if not names:
                return phi
            taken = set(free_vars(phi)) | set(names)
            out: Formula = phi
            binders: list[tuple[str, str]] = []
            for f in names:
                u = fresh_name("u", taken)
                taken.add(u)
                out = substitute_fluents(out, {f: Var(u)})
                binders.append((f, u))
            out = conj([Atom("=", Fluent(f, None), Var(u)) for f, u in binders] + [out])
            for _, u in reversed(binders):
                out = Exists(u, out)
            return out
        case And(items):
            return And(tuple(normalize_fluent_atoms(f) for f in items))
        case Or(items):
            return Or(tuple(normalize_fluent_atoms(f) for f in items))
        case Not(b):
            return Not(normalize_fluent_atoms(b))
        case Exists(v, b):
            return Exists(v, normalize_fluent_atoms(b))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# one-point rule

def _conjuncts(phi: Formula) -> list[Formula]:
    if isinstance(phi, And):
        out = []
        for f in phi.items:
            out.extend(_conjuncts(f))
        return out
    return [phi]


def one_point_elim(phi: Formula) -> Formula:
    """Eliminate every existential carrying a top-level defining conjunct
    ``u = t`` (with u not free in t) by substitution, to fixpoint."""
    match phi:
        case Lit() | Atom():
            return phi
        case And(items):
            return conj([one_point_elim(f) for f in items])
        case Or(items):
            return disj([one_point_elim(f) for f in items])
        case Not(b):
            return Not(one_point_elim(b))
        case Exists(v, b):
            b = one_point_elim(b)
            parts = _conjuncts(b)
            for i, c in enumerate(parts):
                t = _defines(c, v)
                if t is None:
                    continue
                rest = parts[:i] + parts[i + 1:]
                if not rest:
                    return TRUE
                replaced = conj([substitute(f, v, t) for f in rest])
                return one_point_elim(replaced)
            return Exists(v, b)
    raise TypeError(f"not a formula: {phi!r}")


def _defines(c: Formula, v: str) -> Term | None:
    match c:
        case Atom("=", Var(name), t) if name == v and v not in free_vars(t):
            return t
        case Atom("=", t, Var(name)) if name == v and v not in free_vars(t):
            return t
    return None


# ---------------------------------------------------------------------------
# constant folding

def _is_const(t: Term) -> bool:
    return isinstance(t, Num)


def fold(e):
    """Semantics-preserving simplification: exact arithmetic on constant
    subexpressions, boolean units, collapsed conditionals."""
    match e:
        case Num() | Var() | Fluent() | Lit():
            return e
        case App(op, args):
            args = tuple(fold(a) for a in args)
            return _fold_app(op, args)
        case Cond(g, t1, t2):
            g = fold(g)
            t1, t2 = fold(t1), fold(t2)
            if g == TRUE:
                return t1
            if g == FALSE:
                return t2
            if t1 == t2:
                return t1
            return Cond(g, t1, t2)
        case Atom(rel, l, r):
            l, r = fold(l), fold(r)
            if _is_const(l) and _is_const(r):
                return Lit(REL_OPS[rel](l.value, r.value))
            if rel == "=" and l == r:
                return TRUE
            return _atom_simplify(rel, l, r)
        case And(items):
            flat = []
            for f in items:
                f = fold(f)
                if f == FALSE:
                    return FALSE
                if f == TRUE:
                    continue
                if isinstance(f, And):
                    flat.extend(f.items)
                elif f not in flat:
                    flat.append(f)
            return conj(flat)
        case Or(items):
            flat = []
            for f in items:
                f = fold(f)
                if f == TRUE:
                    return TRUE
                if f == FALSE:
                    continue
                if isinstance(f, Or):
                    flat.extend(f.items)
                elif f not in flat:
                    flat.append(f)
            return disj(flat)
        case Not(b):
            b = fold(b)
            if isinstance(b, Lit):
                return Lit(not b.value)
            if isinstance(b, Not):
                return b.body
            return Not(b)
        case Exists(v, b):
            b = fold(b)
            if isinstance(b, Lit):
                return b
            if v not in free_vars(b):
                return b
            return Exists(v, b)
    raise TypeError(f"not an expression: {e!r}")


def _fold_app(op: str, args: tuple[Term, ...]) -> Term:
    consts = all(_is_const(a) for a in args)
    if consts and op not in ("gauss", "exp"):
        try:
            from .evaluate import eval_term_at
            return Num(eval_term_at(App(op, args), {}, {}))
        except Exception:  # noqa: BLE001 - e.g. division by zero stays symbolic
            return App(op, args)
    zero, one = Num(Fraction(0)), Num(Fraction(1))
    match (op, args):
        case ("+", (a, b)) if b == zero:
            return a
        case ("+", (a, b)) if a == zero:
            return b
        case ("-", (a, b)) if b == zero:
            return a
        case ("*", (a, b)) if a == one:
            return b
        case ("*", (a, b)) if b == one:
            return a
        case ("*", (a, b)) if a == zero or b == zero:
            return zero
        case ("/", (a, b)) if b == one:
            return a
        case ("neg", (App("neg", (inner,)),)):
            return inner
        case ("min" | "max", (a, b)) if a == b:
            return a
    return App(op, args)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _atom_simplify(rel: str, l: Term, r: Term) -> Formula:
    """Order-relation rewrites: split min/max/abs bounds into plain atoms and
    move additive constants across a constant side."""
    if rel in _FLIP:
        lower = rel in ("<", "<=")
        match (l, r):
            case (App("max", (a, b)), _):
                parts = (Atom(rel, a, r), Atom(rel, b, r))
                return fold(And(parts) if lower else Or(parts))
            case (App("min", (a, b)), _):
                parts = (Atom(rel, a, r), Atom(rel, b, r))
                return fold(Or(parts) if lower else And(parts))
            case (_, App("max", (a, b))):
                parts = (Atom(rel, l, a), Atom(rel, l, b))
                return fold(Or(parts) if lower else And(parts))
            case (_, App("min", (a, b))):
                parts = (Atom(rel, l, a), Atom(rel, l, b))
                return fold(And(parts) if lower else Or(parts))
            case (App("abs", (a,)), _):
                parts = (Atom(rel, a, r), Atom(rel, App("neg", (a,)), r))
                return fold(And(parts) if lower else Or(parts))
            case (_, App("abs", (a,))):
                parts = (Atom(rel, l, a), Atom(rel, l, App("neg", (a,))))
                return fold(Or(parts) if lower else And(parts))
            case (App("neg", (a,)), Num(c)):
                return fold(Atom(_FLIP[rel], a, Num(-c)))
            case (Num(c), App("neg", (a,))):
                return fold(Atom(_FLIP[rel], Num(-c), a))
    if isinstance(r, Num):
        match l:
            case App("+", (a, Num(c))) | App("+", (Num(c), a)):
                return fold(Atom(rel, a, Num(r.value - c)))
            case App("-", (a, Num(c))):
                return fold(Atom(rel, a, Num(r.value + c)))
    if isinstance(l, Num):
        match r:
            case App("+", (a, Num(c))) | App("+", (Num(c), a)):
                return fold(Atom(rel, Num(l.value - c), a))
            case App("-", (a, Num(c))):
                return fold(Atom(rel, Num(l.value + c), a))
    return Atom(rel, l, r)


# ---------------------------------------------------------------------------
# piecewise conversion

def to_piecewise(t: Term) -> PiecewiseTerm:
    """Hoist min/max/abs and conditionals into guards; bodies are plain
    arithmetic over +, -, *, /, exp, pow, gauss."""
    return PiecewiseTerm(tuple(_pw(fold(t))))


def _pw(t: Term) -> list[tuple[Formula, Term]]:
    match t:
        case Num() | Var() | Fluent():
            return [(TRUE, t)]
        case Cond(g, t1, t2):
            out = [(fold(conj([g, gi])), bi) for gi, bi in _pw(t1)]
            out += [(fold(conj([Not(g), gi])), bi) for gi, bi in _pw(t2)]
            return [(g, b) for g, b in out if g != FALSE]
        case App("min" | "max" as op, (a, b)):
            rel = "<=" if op == "min" else ">="
            out = []
            for ga, ba in _pw(a):
                for gb, bb in _pw(b):
                    both = [ga, gb]
                    out.append((fold(conj(both + [Atom(rel, ba, bb)])), ba))
                    out.append((fold(conj(both + [Not(Atom(rel, ba, bb))])), bb))
            return [(g, b) for g, b in out if g != FALSE]
        case App("abs", (a,)):
            out = []
            zero = Num(Fraction(0))
            for ga, ba in _pw(a):
                out.append((fold(conj([ga, Atom(">=", ba, zero)])), ba))
                out.append((fold(conj([ga, Atom("<", ba, zero)])), App("neg", (ba,))))
            return [(g, b) for g, b in out if g != FALSE]
        case App(op, args):
            parts = [_pw(a) for a in args]
            out: list[tuple[Formula, Term]] = [(TRUE, App(op, ()))] if not args else []
            combos = [([], [])]
            for p in parts:
                combos = [(gs + [g], bs + [b]) for gs, bs in combos for g, b in p]
            for gs, bs in combos:
                g = fold(conj(gs))
                if g != FALSE:
                    out.append((g, fold(App(op, tuple(bs)))))
            return out
        case _:
            raise TypeError(f"cannot convert to piecewise form: {t!r}")
