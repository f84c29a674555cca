"""Numeric evaluation of regressed belief expressions: exact rational
summation over finite domains, breakpoint-aware adaptive quadrature over real
domains, a Monte Carlo forward-simulation oracle, and pointwise density
profiles."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .regression import InitialBeliefExpr, regress_belief
from .simplify import _conjuncts, fold, to_piecewise
from .syntax import (
    And, App, Atom, Cond, Const, Exists, Fluent, Formula, Lit, Not, Num, Or,
    REL_OPS, S0, Situation, TRUE, Term, Var, free_vars,
)
from .theory import ActionTheory, RealInterval

Valuation = dict


class EvalError(Exception):
    pass


class UndefinedBeliefError(EvalError):
    """Normalization factor is zero (or numerically indistinguishable from it)."""


class UnsupportedExistentialError(EvalError):
    """A residual real-domain existential survived simplification."""


class NoSupportError(EvalError):
    """Every oracle sample received zero weight."""


@dataclass
class EvalResult:
    """A belief value with its numerator and normalization factor.  ``cells``
    is, for an exact sum, the number of valuations enumerated, summed over
    the independent fluent groups; for an integral, the number of quadrature
    subintervals accepted."""

    value: Fraction | float
    numerator: Fraction | float
    gamma: Fraction | float
    error: float = 0.0
    cells: int = 0
    flags: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# pointwise evaluation

# an exact power with more bits than this would take seconds to minutes
# (9 ** 9 ** 8 has 136 million), so it is refused instead
_EXACT_POW_BITS = 1 << 20


def _arith(op: str, args):
    a = args[0]
    if op == "neg":
        return -a
    if op == "abs":
        return abs(a)
    if op == "exp":
        return math.exp(float(a))
    b = args[1] if len(args) > 1 else None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise EvalError("division by zero")
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a / b
        return float(a) / float(b)
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "pow":
        if isinstance(a, Fraction) and isinstance(b, Fraction) and b.denominator == 1:
            if a == 0 and b < 0:
                raise EvalError("zero to a negative power")
            size = max(a.numerator.bit_length(), a.denominator.bit_length())
            if size > 1 and abs(b) * size > _EXACT_POW_BITS:
                raise EvalError("power too large to evaluate exactly")
            return a ** int(b)
        base, ex = float(a), float(b)
        if base < 0 and ex != int(ex):
            raise EvalError("negative base with fractional exponent")
        return base ** ex
    if op == "gauss":
        x, mu, var = (float(v) for v in args)
        if var <= 0:
            raise EvalError("gauss requires positive variance")
        return math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    raise EvalError(f"unknown operator {op!r}")


def eval_term_at(t: Term, env: dict, val: Valuation | None = None):
    match t:
        case Num(value):
            return value
        case Var(name):
            if name not in env:
                raise EvalError(f"unbound variable {name!r}")
            return env[name]
        case Fluent(name, sit):
            if sit is not None and not sit.is_initial:
                raise EvalError(f"fluent {name} not at the initial situation")
            if val is None or name not in val:
                raise EvalError(f"no value for fluent {name!r}")
            return val[name]
        case Const(name):
            raise EvalError(f"object constant {name!r} in numeric position")
        case App(op, args):
            return _arith(op, [eval_term_at(a, env, val) for a in args])
        case Cond(g, t1, t2):
            return eval_term_at(t1 if eval_formula_at(g, env, val) else t2, env, val)
    raise EvalError(f"cannot evaluate term {t!r}")


def eval_formula_at(phi: Formula, env: dict | None = None,
                    val: Valuation | None = None) -> bool:
    env = env or {}
    match phi:
        case Lit(value):
            return value
        case Atom(rel, l, r):
            return REL_OPS[rel](eval_term_at(l, env, val), eval_term_at(r, env, val))
        case And(items):
            return all(eval_formula_at(f, env, val) for f in items)
        case Or(items):
            return any(eval_formula_at(f, env, val) for f in items)
        case Not(b):
            return not eval_formula_at(b, env, val)
        case Exists():
            raise UnsupportedExistentialError(
                f"cannot decide existential {phi} at a point")
    raise EvalError(f"cannot evaluate formula {phi!r}")


# ---------------------------------------------------------------------------
# discrete evaluation

def _factors_of(t: Term) -> list[Term]:
    if isinstance(t, App) and t.op == "*":
        return [p for a in t.args for p in _factors_of(a)]
    return [t]


@dataclass
class _Group:
    """Value variables coupled by some weight factor or conjunct, with the
    parts that mention them."""

    names: list[str]
    weights: list[Term] = field(default_factory=list)
    gamma_parts: list[Formula] = field(default_factory=list)
    cond_parts: list[Formula] = field(default_factory=list)


def _group_parts(names: list[str], weights, gamma_parts, cond_parts):
    """Partition the value variables into groups that no part couples and
    attach each part to its group.  Returns the groups and a group without
    variables that holds the variable-free parts."""
    known = set(names)
    blocks: list[set[str]] = [{n} for n in names]
    for p in (*weights, *gamma_parts, *cond_parts):
        vs = free_vars(p) & known
        if vs:
            joined = [b for b in blocks if b & vs]
            blocks = [b for b in blocks if not b & vs] + [set().union(*joined)]
    groups = [_Group([n for n in names if n in b]) for b in blocks]
    group_of = {n: g for g in groups for n in g.names}
    free = _Group([])

    def home(p) -> _Group:
        vs = free_vars(p) & known
        return group_of[next(iter(vs))] if vs else free

    for p in weights:
        home(p).weights.append(p)
    for p in gamma_parts:
        home(p).gamma_parts.append(p)
    for p in cond_parts:
        home(p).cond_parts.append(p)
    return groups, free


def _masses(g: _Group, domains: dict):
    """Summed weight of the group's valuations that satisfy its gamma
    conjuncts, of those that also satisfy its condition conjuncts, and the
    number of valuations enumerated."""
    gamma = numerator = Fraction(0)
    cells = 0
    for combo in itertools.product(*(domains[n] for n in g.names)):
        env = dict(zip(g.names, combo))
        cells += 1
        weight = Fraction(1)
        for w in g.weights:
            weight = weight * eval_term_at(w, env)
            if weight == 0:
                break
        if weight == 0:
            continue
        if all(eval_formula_at(p, env) for p in g.gamma_parts):
            gamma += weight
            if all(eval_formula_at(p, env) for p in g.cond_parts):
                numerator += weight
    return gamma, numerator, cells


def eval_belief_discrete(theory: ActionTheory, e: InitialBeliefExpr) -> EvalResult:
    """Exact rational sum over the finite domains, factored: the weight is
    split at top-level ``*`` and both conditions at top-level ``and``, value
    variables that share a part form a group, and each group is enumerated
    once for its gamma and numerator masses.  The masses are the products of
    the per-group masses; a variable no part mentions contributes its domain
    size."""
    domains = {}
    for v in e.vars:
        domain = theory.fluent(v.fluent).domain
        if not domain.is_finite:
            raise EvalError(f"fluent {v.fluent} is not finite-domain")
        domains[v.name] = domain.values()
    gamma_parts = _conjuncts(e.gamma_condition)
    # the numerator only counts valuations that already satisfy gamma
    cond_parts = [p for p in _conjuncts(e.condition) if p not in gamma_parts]
    groups, free = _group_parts(list(domains), [*_factors_of(e.prior),
                                                *(p for f in e.factors
                                                  for p in _factors_of(f))],
                                gamma_parts, cond_parts)
    gamma, numerator, _ = _masses(free, domains)
    cells = 0
    for g in groups:
        if gamma == 0:
            break
        if not (g.weights or g.gamma_parts or g.cond_parts):
            size = len(domains[g.names[0]])
            gamma, numerator = gamma * size, numerator * size
            continue
        g_gamma, g_numerator, g_cells = _masses(g, domains)
        gamma, numerator = gamma * g_gamma, numerator * g_numerator
        cells += g_cells
    if gamma == 0:
        raise UndefinedBeliefError("normalization factor is zero")
    return EvalResult(value=numerator / gamma, numerator=numerator,
                      gamma=gamma, error=0.0, cells=cells)


# ---------------------------------------------------------------------------
# breakpoint discovery

def _atom_terms(phi: Formula) -> list[Term]:
    match phi:
        case Lit():
            return []
        case Atom(_, l, r):
            return [fold(App("-", (l, r)))]
        case And(items) | Or(items):
            out = []
            for f in items:
                out.extend(_atom_terms(f))
            return out
        case Not(b) | Exists(_, b):
            return _atom_terms(b)
    raise EvalError(f"cannot analyze formula {phi!r}")


def _smooth_boundaries(d: Term, _depth: int = 0) -> list[Term]:
    """Smooth terms whose zero sets cover every potential discontinuity of the
    (piecewise) term ``d``."""
    if _depth > 12:
        raise EvalError("piecewise nesting too deep")
    out: list[Term] = []
    for guard, body in to_piecewise(d).pieces:
        out.append(body)
        for t in _atom_terms(guard):
            out.extend(_smooth_boundaries(t, _depth + 1))
    return out


def _boundaries_of(e: InitialBeliefExpr) -> list[Term]:
    out: list[Term] = []
    for phi in (e.condition, e.gamma_condition):
        for t in _atom_terms(phi):
            out.extend(_smooth_boundaries(t))
    for t in (e.prior, *e.factors):
        for guard, _ in to_piecewise(t).pieces:
            for a in _atom_terms(guard):
                out.extend(_smooth_boundaries(a))
    seen = set()
    uniq = []
    for t in out:
        if t not in seen and not isinstance(t, Num):
            seen.add(t)
            uniq.append(t)
    return uniq


def _is_linear(t: Term, var: str) -> bool:
    if var not in free_vars(t):
        return True
    match t:
        case Var():
            return True
        case App("+" | "-", (a, b)):
            return _is_linear(a, var) and _is_linear(b, var)
        case App("neg", (a,)):
            return _is_linear(a, var)
        case App("*", (a, b)):
            if var not in free_vars(a):
                return _is_linear(b, var)
            if var not in free_vars(b):
                return _is_linear(a, var)
            return False
        case App("/", (a, b)):
            return var not in free_vars(b) and _is_linear(a, var)
    return False


_SCAN = 257


def _roots(d: Term, var: str, lo: float, hi: float, env: dict) -> list[float]:
    if var not in free_vars(d):
        return []

    def f(x: float) -> float:
        return float(eval_term_at(d, {**env, var: x}))

    try:
        if _is_linear(d, var):
            d0, d1 = f(lo), f(hi)
            if d0 == d1:
                return []
            r = lo - d0 * (hi - lo) / (d1 - d0)
            return [r] if lo < r < hi else []
        step = (hi - lo) / (_SCAN - 1)
        xs = [lo + i * step for i in range(_SCAN - 1)] + [hi]
        vals = []
        for x in xs:
            try:
                vals.append(f(float(x)))
            except EvalError:
                vals.append(math.nan)
        roots = []
        for i in range(_SCAN - 1):
            a, b = vals[i], vals[i + 1]
            if math.isnan(a) or math.isnan(b):
                continue
            if a == 0.0:
                roots.append(float(xs[i]))
            if a * b < 0:
                x0, x1 = float(xs[i]), float(xs[i + 1])
                fa = a
                for _ in range(60):
                    mid = 0.5 * (x0 + x1)
                    fm = f(mid)
                    if fa * fm <= 0:
                        x1 = mid
                    else:
                        x0, fa = mid, fm
                roots.append(0.5 * (x0 + x1))
        return roots
    except EvalError:
        return []


# ---------------------------------------------------------------------------
# adaptive quadrature

def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, 1
    lv, le, lc = _adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
    rv, re, rc = _adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    return lv + rv, le + re, lc + rc


def _integrate_cells(f, lo: float, hi: float, cuts, tol: float):
    """Integrate f over [lo, hi], never straddling a cut point; evaluations at
    cell edges are nudged into the open interior so boundary values of the
    neighbouring piece cannot leak in."""
    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    total, err, cells = 0.0, 0.0, 0
    for a, b in zip(edges, edges[1:]):
        if b - a < 1e-13:
            continue
        delta = (b - a) * 1e-9
        aa, bb = a + delta, b - delta
        m = 0.5 * (aa + bb)
        fa, fm, fb = f(aa), f(m), f(bb)
        whole = _simpson(fa, fm, fb, aa, bb)
        cell_tol = max(tol * (b - a) / max(hi - lo, 1e-300), 1e-16)
        v, e, c = _adaptive(f, aa, bb, fa, fm, fb, whole, cell_tol, 48)
        total += v
        err += e
        cells += c
    return total, err, cells


def _bounds_for(domain: RealInterval, boundaries, var, env) -> tuple[float, float]:
    lo, hi = domain.lo, domain.hi
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    # derive a finite window from linear breakpoints; the integrand is
    # piecewise with bounded support in every theory we accept
    candidates = []
    for d in boundaries:
        if var in free_vars(d) and _is_linear(d, var):
            probe_lo = lo if math.isfinite(lo) else -1e6
            probe_hi = hi if math.isfinite(hi) else 1e6
            candidates.extend(_roots(d, var, probe_lo, probe_hi, env))
    if not candidates:
        raise EvalError(
            f"cannot bound integration over {var}: declare finite domain bounds")
    wlo = min(candidates) - 1.0 if not math.isfinite(lo) else lo
    whi = max(candidates) + 1.0 if not math.isfinite(hi) else hi
    return wlo, whi


def eval_belief_continuous(theory: ActionTheory, e: InitialBeliefExpr,
                           tol: float = 1e-6) -> EvalResult:
    """Region-subdivided adaptive quadrature over the real-valued fluents,
    summing over the finite-domain ones the expression mentions; each other
    finite-domain fluent contributes its domain size."""
    cont = [v for v in e.vars if not v.discrete]
    disc = [v for v in e.vars if v.discrete]
    if not cont:
        raise EvalError("no real-valued fluent; use the discrete evaluator")
    integrand = fold(_product((e.prior, *e.factors)))
    boundaries = _boundaries_of(e)
    flags: list[str] = []

    same = e.condition == e.gamma_condition
    # a finite fluent nothing mentions only multiplies both masses by its
    # domain size; the boundaries derive from these terms, so mention no other
    mentioned = free_vars(integrand) | free_vars(e.condition) | free_vars(e.gamma_condition)
    axes, size = [], 1
    for v in disc:
        values = theory.fluent(v.fluent).domain.values()
        if v.name in mentioned:
            axes.append([(v.name, value) for value in values])
        else:
            size *= len(values)

    def mass(cond: Formula):
        total, err, cells = 0.0, 0.0, 0
        for combo in itertools.product(*axes):
            v, er, c = _integrate_over(cont, 0, dict(combo), cond)
            total += v
            err += er
            cells += c
        return total * size, err * size, cells

    def _integrate_over(vars_left, idx, env, cond):
        if idx == len(vars_left):
            if not eval_formula_at(cond, env):
                return 0.0, 0.0, 0
            return float(eval_term_at(integrand, env)), 0.0, 0
        v = vars_left[idx]
        domain = theory.fluent(v.fluent).domain
        lo, hi = _bounds_for(domain, boundaries, v.name, env)
        cuts: list[float] = []
        for d in boundaries:
            cuts.extend(_roots(d, v.name, lo, hi, env))
        acc_err = [0.0]
        acc_cells = [0]

        def f(x: float) -> float:
            val, er, c = _integrate_over(vars_left, idx + 1, {**env, v.name: x}, cond)
            acc_err[0] += er
            acc_cells[0] += c
            return val

        total, err, cells = _integrate_cells(f, lo, hi, cuts, tol)
        return total, err + acc_err[0], cells + acc_cells[0]

    gamma, gerr, gcells = mass(e.gamma_condition)
    if gamma <= tol:
        raise UndefinedBeliefError(f"normalization factor {gamma!r} is at or below tol")
    if same:
        return EvalResult(value=1.0, numerator=gamma, gamma=gamma,
                          error=0.0, cells=gcells, flags=flags)
    numerator, nerr, ncells = mass(e.condition)
    value = numerator / gamma
    error = (nerr + abs(value) * gerr) / gamma
    return EvalResult(value=value, numerator=numerator, gamma=gamma,
                      error=error, cells=gcells + ncells, flags=flags)


def eval_belief(theory: ActionTheory, e: InitialBeliefExpr,
                tol: float = 1e-6) -> EvalResult:
    if theory.all_discrete:
        return eval_belief_discrete(theory, e)
    return eval_belief_continuous(theory, e, tol)


def _product(terms) -> Term:
    out: Term = Num(Fraction(1))
    for t in terms:
        out = App("*", (out, t))
    return fold(out)


# ---------------------------------------------------------------------------
# vectorized compilation (oracle fast path)

def compile_term(t: Term):
    """Compile a term to a function of a dict of numpy arrays (fluents by name,
    variables by name)."""
    import numpy as np
    match t:
        case Num(value):
            v = float(value)
            return lambda env: v
        case Var(name):
            return lambda env: env[name]
        case Fluent(name, sit):
            if sit is not None and not sit.is_initial:
                raise EvalError("cannot compile a non-initial fluent reference")
            return lambda env: env[name]
        case Const(name):
            raise EvalError(f"object constant {name!r} in numeric position")
        case App(op, args):
            fns = [compile_term(a) for a in args]
            return _compile_app(op, fns)
        case Cond(g, t1, t2):
            fg, f1, f2 = compile_formula(g), compile_term(t1), compile_term(t2)
            return lambda env: np.where(fg(env), f1(env), f2(env))
    raise EvalError(f"cannot compile term {t!r}")


def _compile_app(op: str, fns):
    import numpy as np
    if op == "+":
        return lambda env: fns[0](env) + fns[1](env)
    if op == "-":
        return lambda env: fns[0](env) - fns[1](env)
    if op == "*":
        return lambda env: fns[0](env) * fns[1](env)
    if op == "/":
        def div(env):
            with np.errstate(divide="ignore", invalid="ignore"):
                return fns[0](env) / fns[1](env)
        return div
    if op == "neg":
        return lambda env: -fns[0](env)
    if op == "min":
        return lambda env: np.minimum(fns[0](env), fns[1](env))
    if op == "max":
        return lambda env: np.maximum(fns[0](env), fns[1](env))
    if op == "abs":
        return lambda env: np.abs(fns[0](env))
    if op == "exp":
        return lambda env: np.exp(fns[0](env))
    if op == "pow":
        return lambda env: np.power(fns[0](env), fns[1](env))
    if op == "gauss":
        def gauss(env):
            x, mu, var = fns[0](env), fns[1](env), fns[2](env)
            return np.exp(-((x - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        return gauss
    raise EvalError(f"unknown operator {op!r}")


def compile_formula(phi: Formula):
    import numpy as np
    match phi:
        case Lit(value):
            return (lambda env: np.bool_(True)) if value else (lambda env: np.bool_(False))
        case Atom(rel, l, r):
            fl, fr = compile_term(l), compile_term(r)
            ops = {"=": np.equal, "!=": np.not_equal, "<": np.less,
                   "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}[rel]
            return lambda env: ops(fl(env), fr(env))
        case And(items):
            fns = [compile_formula(f) for f in items]
            return lambda env: np.logical_and.reduce([f(env) for f in fns])
        case Or(items):
            fns = [compile_formula(f) for f in items]
            return lambda env: np.logical_or.reduce([f(env) for f in fns])
        case Not(b):
            fb = compile_formula(b)
            return lambda env: np.logical_not(fb(env))
        case Exists():
            raise UnsupportedExistentialError("cannot compile an existential")
    raise EvalError(f"cannot compile formula {phi!r}")


# ---------------------------------------------------------------------------
# Monte Carlo forward-simulation oracle

def _prior_sampler(theory: ActionTheory, rng):
    """Rejection sampler for the declared prior over the product of domains."""
    import numpy as np
    density = compile_term(theory.prior)
    axes = []
    for f in theory.fluents:
        d = f.domain
        if d.is_finite:
            axes.append((f.name, np.array([float(v) for v in d.values()])))
        else:
            if not d.is_bounded:
                raise EvalError(
                    f"fluent {f.name}: oracle sampling needs finite domain bounds")
            axes.append((f.name, (float(d.lo), float(d.hi))))

    # bound the density on a scan grid for rejection
    grids = []
    for _, spec in axes:
        if isinstance(spec, tuple):
            grids.append(np.linspace(spec[0], spec[1], 301))
        else:
            grids.append(spec)
    mesh = np.meshgrid(*grids, indexing="ij")
    env = {name: m.ravel() for (name, _), m in zip(axes, mesh)}
    dmax = float(np.max(density(env)))
    if not dmax > 0:
        raise NoSupportError("prior is zero on the sampled grid")
    bound = dmax * 1.5

    def draw(n: int):
        out = {name: np.empty(0) for name, _ in axes}
        have = 0
        while have < n:
            proposal = {}
            for name, spec in axes:
                if isinstance(spec, tuple):
                    proposal[name] = rng.uniform(spec[0], spec[1], size=n)
                else:
                    proposal[name] = rng.choice(spec, size=n)
            accept = rng.uniform(0.0, bound, size=n) < density(proposal)
            for name, _ in axes:
                out[name] = np.concatenate([out[name], proposal[name][accept]])
            have = len(out[next(iter(out))])
        return {name: arr[:n] for name, arr in out.items()}

    return draw


def mc_oracle(theory: ActionTheory, phi: Formula, situation: Situation,
              n: int, seed: int = 0) -> OracleEstimate:
    """Sample the prior, push samples forward through the action sequence
    reweighting by sensor likelihoods, and estimate the belief in the query at
    the final situation."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(seed))
    draw = _prior_sampler(theory, rng)
    values = draw(n)
    weights = np.ones(n)

    for action in situation.actions:
        poss = theory.precondition_of(action)
        if poss != TRUE:
            weights = weights * compile_formula(poss)(values).astype(float)
        if theory.is_sensor(action.name):
            sensor = theory.sensors[action.name]
            from .syntax import substitute
            err = substitute(sensor.error, sensor.param.name, action.args[0])
            weights = weights * compile_term(err)(values)
        else:
            updated = {}
            for f in theory.fluents:
                rhs = theory.ssa_rhs(f.name, action)
                updated[f.name] = compile_term(rhs)(values) * np.ones(n)
            values = updated

    total = float(np.sum(weights))
    if total <= 0:
        raise NoSupportError("all oracle sample weights are zero")
    indicator = compile_formula(phi)(values) * np.ones(n)
    estimate = float(np.sum(weights * indicator)) / total
    resid = indicator - estimate
    stderr = math.sqrt(float(np.sum((weights * resid) ** 2))) / total
    return OracleEstimate(estimate=estimate, stderr=stderr, samples=n, seed=seed)


# ---------------------------------------------------------------------------
# density profiles

def density_profile(theory: ActionTheory, situation: Situation, fluent: str,
                    grid) -> list[tuple[float, float]]:
    """Unnormalized posterior density of the fluent's current value at each
    grid point: the regressed likelihood-times-prior transported through the
    physical actions (atoms from collapsed regions are omitted)."""
    decl = theory.fluent(fluent)
    if decl.domain.is_finite:
        raise EvalError(f"fluent {fluent} is not real-valued")
    if len(theory.fluents) != 1:
        raise EvalError("density profiles require a single-fluent theory")
    for v in grid:
        if not decl.domain.contains(float(v)):
            raise EvalError(f"grid point {v} outside the domain of {fluent}")

    e, trace = regress_belief(theory, TRUE, situation)
    xname = e.vars[0].name
    weight = fold(_product((e.prior, *e.factors)))
    current = fold(trace.terms[-1][fluent])

    lo, hi = float(decl.domain.lo), float(decl.domain.hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EvalError("density profiles need finite domain bounds")

    out = []
    for v in grid:
        v = float(v)
        diff = fold(App("-", (current, Num(Fraction(v).limit_denominator(10**12)))))
        roots: list[float] = []
        for d in _smooth_boundaries(diff):
            roots.extend(_roots(d, xname, lo, hi, {}))
        # include endpoints in case the root sits on the boundary
        roots.extend((lo, hi))
        density = 0.0
        seen: list[float] = []
        for x in roots:
            if any(abs(x - s) < 1e-9 for s in seen):
                continue
            gx = float(eval_term_at(current, {xname: x}))
            if abs(gx - v) > 1e-6 * (1.0 + abs(v)):
                continue
            seen.append(x)
            if not eval_formula_at(e.gamma_condition, {xname: x}):
                continue
            h = 1e-7 * (1.0 + abs(x))
            try:
                g1 = float(eval_term_at(current, {xname: min(x + h, hi)}))
                g0 = float(eval_term_at(current, {xname: max(x - h, lo)}))
            except EvalError:
                continue
            slope = (g1 - g0) / (min(x + h, hi) - max(x - h, lo))
            if abs(slope) < 1e-9:
                continue  # collapsed region: a point mass, not a density
            density += float(eval_term_at(weight, {xname: x})) / abs(slope)
        out.append((v, density))
    return out


def profile_csv(rows) -> str:
    lines = ["value,density"]
    for v, d in rows:
        lines.append(f"{v!r},{d!r}")
    return "\n".join(lines) + "\n"
