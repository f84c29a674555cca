"""Formula and term normalization: the fluents-only-in-equalities entry form,
definitional existential elimination, exact constant folding, and conversion of
min/max/abs/if-then-else structure into guarded arithmetic pieces."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And, App, Atom, Cond, Exists, FALSE, Fluent, Formula, Lit, Not, Num, ONE, Or,
    REL_OPS, TRUE, Term, Var, ZERO, conj, disj, fluent_names, free_vars,
    fresh_name, substitute, substitute_fluents,
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

def fold(e):
    """Semantics-preserving simplification: exact arithmetic on constant
    subexpressions, boolean units, collapsed conditionals.  Works bottom-up:
    each node is rebuilt once, by a constructor that takes folded operands."""
    match e:
        case Num() | Var() | Fluent() | Lit():
            return e
        case App(op, args):
            return _fold_app(op, tuple(fold(a) for a in args))
        case Cond(g, t1, t2):
            return _fold_cond(fold(g), fold(t1), fold(t2))
        case Atom(rel, l, r):
            return _fold_atom(rel, fold(l), fold(r))
        case And(items) | Or(items):
            return _fold_junction(type(e), (fold(f) for f in items))
        case Not(b):
            return _fold_not(fold(b))
        case Exists(v, b):
            b = fold(b)
            if isinstance(b, Lit) or v not in free_vars(b):
                return b
            return Exists(v, b)
    raise TypeError(f"not an expression: {e!r}")


# The constructors below assume folded operands and return folded results;
# they never fold an operand again.

def _fold_cond(g: Formula, t1: Term, t2: Term) -> Term:
    if g == TRUE:
        return t1
    if g == FALSE:
        return t2
    if t1 == t2:
        return t1
    return Cond(g, t1, t2)


def _fold_junction(kind, items) -> Formula:
    """``kind`` (And or Or) of folded items: units dropped, an absorbing
    item returned, nested items of the same kind flattened, duplicates
    dropped.  Items are drawn lazily, so an absorbing one stops the rest."""
    absorbing, unit = (FALSE, TRUE) if kind is And else (TRUE, FALSE)
    flat: list[Formula] = []
    for f in items:
        if f == absorbing:
            return absorbing
        if f == unit:
            continue
        for g in (f.items if isinstance(f, kind) else (f,)):
            if g not in flat:
                flat.append(g)
    return conj(flat) if kind is And else disj(flat)


def _fold_not(b: Formula) -> Formula:
    if isinstance(b, Lit):
        return Lit(not b.value)
    if isinstance(b, Not):
        return b.body
    return Not(b)


def _is_const(t: Term) -> bool:
    return isinstance(t, Num)


def _fold_app(op: str, args: tuple[Term, ...]) -> Term:
    consts = all(_is_const(a) for a in args)
    if consts and op not in ("gauss", "exp"):
        try:
            from .evaluate import eval_term_at
            return Num(eval_term_at(App(op, args), {}, {}))
        except Exception:  # noqa: BLE001 - e.g. division by zero stays symbolic
            return App(op, args)
    match (op, args):
        case ("+", (a, b)) if b == ZERO:
            return a
        case ("+", (a, b)) if a == ZERO:
            return b
        case ("-", (a, b)) if b == ZERO:
            return a
        case ("*", (a, b)) if a == ONE:
            return b
        case ("*", (a, b)) if b == ONE:
            return a
        case ("*", (a, b)) if a == ZERO or b == ZERO:
            return ZERO
        case ("/", (a, b)) if b == ONE:
            return a
        case ("neg", (App("neg", (inner,)),)):
            return inner
        case ("min" | "max", (a, b)) if a == b:
            return a
    return App(op, args)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _fold_atom(rel: str, l: Term, r: Term) -> Formula:
    """Order-relation rewrites: split min/max/abs bounds into plain atoms and
    move additive constants across a constant side."""
    if _is_const(l) and _is_const(r):
        return Lit(REL_OPS[rel](l.value, r.value))
    if rel == "=" and l == r:
        return TRUE
    if rel in _FLIP:
        lower = rel in ("<", "<=")
        # (left, right) operand pairs of the two parts, and whether they join
        # by "and"
        match (l, r):
            case (App("max", (a, b)), _):
                pairs, both = ((a, r), (b, r)), lower
            case (App("min", (a, b)), _):
                pairs, both = ((a, r), (b, r)), not lower
            case (_, App("max", (a, b))):
                pairs, both = ((l, a), (l, b)), not lower
            case (_, App("min", (a, b))):
                pairs, both = ((l, a), (l, b)), lower
            case (App("abs", (a,)), _):
                pairs, both = ((a, r), (_fold_app("neg", (a,)), r)), lower
            case (_, App("abs", (a,))):
                pairs, both = ((l, a), (l, _fold_app("neg", (a,)))), not lower
            case (App("neg", (a,)), Num(c)):
                return _fold_atom(_FLIP[rel], a, Num(-c))
            case (Num(c), App("neg", (a,))):
                return _fold_atom(_FLIP[rel], Num(-c), a)
            case _:
                pairs = None
        if pairs is not None:
            return _fold_junction(And if both else Or,
                                  (_fold_atom(rel, x, y) for x, y in pairs))
    if isinstance(r, Num):
        match l:
            case App("+", (a, Num(c))) | App("+", (Num(c), a)):
                return _fold_atom(rel, a, Num(r.value - c))
            case App("-", (a, Num(c))):
                return _fold_atom(rel, a, Num(r.value + c))
    if isinstance(l, Num):
        match r:
            case App("+", (a, Num(c))) | App("+", (Num(c), a)):
                return _fold_atom(rel, Num(l.value - c), a)
            case App("-", (a, Num(c))):
                return _fold_atom(rel, Num(l.value + c), a)
    return Atom(rel, l, r)


# ---------------------------------------------------------------------------
# piecewise conversion

def to_piecewise(t: Term) -> PiecewiseTerm:
    """Hoist min/max/abs and conditionals into guards; bodies are plain
    arithmetic over +, -, *, /, exp, pow, gauss."""
    return PiecewiseTerm(tuple(_pw(fold(t))))


def _pw(t: Term) -> list[tuple[Formula, Term]]:
    """Pieces of a folded term; guards and bodies come out folded."""
    match t:
        case Num() | Var() | Fluent():
            return [(TRUE, t)]
        case Cond(g, t1, t2):
            out = [(_fold_junction(And, (g, gi)), bi) for gi, bi in _pw(t1)]
            out += [(_fold_junction(And, (_fold_not(g), gi)), bi) for gi, bi in _pw(t2)]
            return [(g, b) for g, b in out if g != FALSE]
        case App("min" | "max" as op, (a, b)):
            rel = "<=" if op == "min" else ">="
            out = []
            for ga, ba in _pw(a):
                for gb, bb in _pw(b):
                    split = _fold_atom(rel, ba, bb)
                    out.append((_fold_junction(And, (ga, gb, split)), ba))
                    out.append((_fold_junction(And, (ga, gb, _fold_not(split))), bb))
            return [(g, b) for g, b in out if g != FALSE]
        case App("abs", (a,)):
            out = []
            for ga, ba in _pw(a):
                out.append((_fold_junction(And, (ga, _fold_atom(">=", ba, ZERO))), ba))
                out.append((_fold_junction(And, (ga, _fold_atom("<", ba, ZERO))),
                            _fold_app("neg", (ba,))))
            return [(g, b) for g, b in out if g != FALSE]
        case App(op, args):
            parts = [_pw(a) for a in args]
            out: list[tuple[Formula, Term]] = [(TRUE, App(op, ()))] if not args else []
            combos = [([], [])]
            for p in parts:
                combos = [(gs + [g], bs + [b]) for gs, bs in combos for g, b in p]
            for gs, bs in combos:
                g = _fold_junction(And, gs)
                if g != FALSE:
                    out.append((g, _fold_app(op, tuple(bs))))
            return out
        case _:
            raise TypeError(f"cannot convert to piecewise form: {t!r}")
