"""Reference answers for the benchmark's queries, computed without regbel.

Every theory the benchmark uses is modelled here directly in Python, and
each query is answered by forward simulation of the true semantics
(Bacchus-Halpern-Levesque: a world in which an action is impossible gets
weight 0):

- all-discrete theories: an exact forward filter over every world, in
  integers (each action's likelihood is scaled by a constant, which cancels
  in the belief ratio), returned as a ``Fraction``;
- sensing-only queries on one real fluent with Gaussian sensors: the
  product of the likelihoods is itself Gaussian, so the belief is a ratio
  of normal-CDF differences (erf closed form);
- everything else: ``scipy.integrate.quad`` over the initial value of the
  real fluent, split at every breakpoint of the forward-simulated motion map
  ``x -> max(c, x + s)`` and at every jump of a box-noise likelihood, so no
  integration cell straddles a kink or a jump.

The module reads only the query strings (its own tiny parsers below), so an
error in regbel's parser cannot hide in the reference.

Run ``python3 perfbench/reference.py --self-check`` to reproduce the
acceptance goldens; ``--serve`` answers JSON lines on stdin (one list of
queries per line) with JSON lines of references, which is how ``run.py``
uses it in a separate process.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction

from scipy.integrate import quad

# ---------------------------------------------------------------------------
# query and action strings

_ACTION = re.compile(r"\s*([A-Za-z_]\w*)\(\s*(-?[0-9.]+)\s*\)\s*")
_ATOM = re.compile(r"^\s*([A-Za-z_]\w*|-?[0-9.]+)\s*(<=|>=|<|>|=)\s*"
                   r"([A-Za-z_]\w*|-?[0-9.]+)(?:\s*(<=|<)\s*([A-Za-z_]\w*|-?[0-9.]+))?\s*$")


def parse_actions(text: str) -> list[tuple[str, Fraction]]:
    """``"fwd(2); sonar(5.5)"`` -> ``[("fwd", 2), ("sonar", 11/2)]``."""
    out = []
    for part in text.split(";"):
        if not part.strip():
            continue
        m = _ACTION.fullmatch(part)
        if m is None:
            raise ValueError(f"cannot read action {part!r}")
        out.append((m.group(1), Fraction(m.group(2))))
    return out


def _operand(tok: str):
    return tok if re.match(r"[A-Za-z_]", tok) else Fraction(tok)


def parse_query(text: str) -> list[tuple[object, str, object]]:
    """A conjunction of comparisons, with ``lo <= f <= hi`` chains, as a list
    of ``(lhs, rel, rhs)`` atoms; operands are fluent names or Fractions."""
    atoms = []
    for part in text.split(" and "):
        m = _ATOM.match(part)
        if m is None:
            raise ValueError(f"cannot read query atom {part!r}")
        a, rel, b, rel2, c = m.groups()
        atoms.append((_operand(a), rel, _operand(b)))
        if rel2:
            atoms.append((_operand(b), rel2, _operand(c)))
    return atoms


_REL = {"<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
        ">=": lambda a, b: a >= b, ">": lambda a, b: a > b,
        "=": lambda a, b: a == b}


def holds(atoms, state: dict) -> bool:
    def val(o):
        return state[o] if isinstance(o, str) else o
    return all(_REL[rel](val(a), val(b)) for a, rel, b in atoms)


def interval_of(atoms, fluent: str) -> tuple[float, float]:
    """The interval of values of ``fluent`` allowed by the atoms that compare
    it with a constant (strictness is immaterial under a density)."""
    lo, hi = -math.inf, math.inf
    for a, rel, b in atoms:
        if a == fluent and not isinstance(b, str):
            c = float(b)
            if rel in ("<=", "<"):
                hi = min(hi, c)
            elif rel in (">=", ">"):
                lo = max(lo, c)
            else:
                lo, hi = max(lo, c), min(hi, c)
        elif b == fluent and not isinstance(a, str):
            c = float(a)
            if rel in ("<=", "<"):
                lo = max(lo, c)
            elif rel in (">=", ">"):
                hi = min(hi, c)
            else:
                lo, hi = max(lo, c), min(hi, c)
    return lo, hi


def others(atoms, fluent: str):
    """The atoms that do not mention ``fluent``."""
    return [t for t in atoms if fluent not in (t[0], t[2])]


# ---------------------------------------------------------------------------
# exact forward filter for all-discrete theories

class DiscreteModel:
    """A finite theory with integer prior weights and integer-scaled
    likelihoods; ``moves`` maps an action to its effect on a state."""

    def __init__(self, fluents, axes, prior, moves, sensors):
        self.fluents, self.axes, self.prior = fluents, axes, prior
        self.moves, self.sensors = moves, sensors


WALL_DISCRETE = DiscreteModel(
    ("h",), [range(0, 21)],
    prior=lambda s: 1 if 2 <= s[0] <= 11 else 0,              # 1/10
    moves={"fwd": lambda s, z: (max(0, s[0] - z),)},
    sensors={"sonar": lambda s, z: 1 if abs(s[0] - z) <= 1 else 0})  # 1/3

THREE_INT = DiscreteModel(
    ("a", "b", "c"), [range(0, 31)] * 3,
    prior=lambda s: 2 if s[0] <= s[1] else 1,
    moves={"shift": lambda s, k: (s[0], min(30, s[1] + k), max(0, s[2] - k))},
    sensors={"sa": lambda s, z: 1 if abs(s[0] - z) <= 2 else 0})  # 1/5


def discrete_belief(model: DiscreteModel, actions, atoms) -> Fraction:
    weights = {}
    for s in itertools.product(*model.axes):
        w = model.prior(s)
        if w:
            weights[s] = w
    for name, arg in actions:
        if arg.denominator == 1:
            arg = int(arg)
        if name in model.sensors:
            lik = model.sensors[name]
            weights = {s: w * lik(s, arg) for s, w in weights.items() if lik(s, arg)}
        else:
            effect = model.moves[name]
            nxt: dict = {}
            for s, w in weights.items():
                t = effect(s, arg)
                nxt[t] = nxt.get(t, 0) + w
            weights = nxt
    gamma = sum(weights.values())
    if gamma == 0:
        raise ZeroDivisionError("evidence has probability zero")
    num = sum(w for s, w in weights.items()
              if holds(atoms, dict(zip(model.fluents, s))))
    return Fraction(num, gamma)


# ---------------------------------------------------------------------------
# one real fluent moved by x -> max(0, x - d) and sensed with Gaussian noise

def _norm_pdf(x: float, var: float) -> float:
    return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _likelihood(noise: tuple[str, float], d: float) -> float:
    """A sensor's likelihood of reading error ``d``: ``("gauss", variance)``
    or ``("box", half-width)`` for uniform noise."""
    kind, p = noise
    if kind == "gauss":
        return _norm_pdf(d, p)
    return 0.5 / p if abs(d) <= p else 0.0


class Track:
    """The motion map of a real fluent through a history: after each prefix
    the value is ``max(c, x0 + s)`` of the initial value ``x0``; readings are
    kept with the map in force when they were taken."""

    def __init__(self):
        self.c, self.s = -math.inf, 0.0
        self.readings: list[tuple[float, tuple, float, float]] = []  # z, noise, c, s

    def move(self, d: float):
        self.c, self.s = max(0.0, self.c - d), self.s - d

    def sense(self, z: float, var: float, box: float | None = None):
        """A reading with Gaussian noise of variance ``var``, or with uniform
        noise of half-width ``box``."""
        noise = ("box", box) if box is not None else ("gauss", var)
        self.readings.append((z, noise, self.c, self.s))

    @property
    def moved(self) -> bool:
        return self.s != 0.0 or self.c != -math.inf

    def value(self, x0: float) -> float:
        return max(self.c, x0 + self.s)

    def kinks(self) -> list[float]:
        out = [c - s for _, _, c, s in self.readings if c != -math.inf]
        if self.c != -math.inf:
            out.append(self.c - self.s)
        for z, (kind, w), c, s in self.readings:
            if kind == "box":           # where the reading's likelihood jumps
                out += [v - s for v in (z - w, z + w) if v > c]
        return out

    def preimage(self, v: float) -> float | None:
        """The initial value whose final value is ``v`` on the sloped part."""
        return v - self.s if v > self.c else None

    def likelihood(self, x0: float) -> float:
        out = 1.0
        for z, noise, c, s in self.readings:
            out *= _likelihood(noise, z - max(c, x0 + s))
        return out


def track_mass(track: Track, prior_lo: float, prior_hi: float, density: float,
               lo: float = -math.inf, hi: float = math.inf) -> float:
    """The integral over ``x0`` in the prior support of the (constant) prior
    density times the readings' likelihoods, counted only where the final
    value lies in ``[lo, hi]``."""
    if not track.moved and all(noise[0] == "gauss" for _, noise, _, _ in track.readings):
        return _sensing_only_mass(track, prior_lo, prior_hi, density, lo, hi)
    cuts = {prior_lo, prior_hi, *track.kinks()}
    for v in (lo, hi):
        if math.isfinite(v):
            x = track.preimage(v)
            if x is not None:
                cuts.add(x)
    edges = sorted(c for c in cuts if prior_lo <= c <= prior_hi)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        if not lo <= track.value(0.5 * (a + b)) <= hi:
            continue
        total += density * quad(track.likelihood, a, b, epsabs=0.0,
                                epsrel=1e-12, limit=200)[0]
    return total


def _sensing_only_mass(track, prior_lo, prior_hi, density, lo, hi) -> float:
    """Closed form: the product of the Gaussian likelihoods in x0 equals
    ``K * N(x0; mean, var_post)``, so the mass is K times a normal-CDF
    difference."""
    a, b = max(lo, prior_lo), min(hi, prior_hi)
    if not track.readings:
        return density * max(0.0, b - a)
    if b <= a:
        return 0.0
    prec = sum(1.0 / var for _, (_, var), _, _ in track.readings)
    mean = sum(z / var for z, (_, var), _, _ in track.readings) / prec
    var_post = 1.0 / prec
    # log K: product of N(z_i; x, v_i) = K * N(x; mean, var_post)
    log_k = 0.0
    for z, (_, var), _, _ in track.readings:
        log_k += -0.5 * math.log(2.0 * math.pi * var) - z * z / (2.0 * var)
    log_k += 0.5 * math.log(2.0 * math.pi * var_post) + mean * mean / (2.0 * var_post)
    sd = math.sqrt(var_post)
    return density * math.exp(log_k) * (_phi((b - mean) / sd) - _phi((a - mean) / sd))


# ---------------------------------------------------------------------------
# the theories

WALL_VAR = 4.0
WALL_BOX = 2.0                  # theories/wall_box.bel: |z - h| <= 2


def _wall_continuous_track(actions, box: float | None = None) -> Track:
    track = Track()
    for name, arg in actions:
        if name == "fwd":
            track.move(float(arg))
        elif name == "sonar":
            if arg < 0 and box is None:
                raise ZeroDivisionError("negative sonar reading has likelihood 0")
            track.sense(float(arg), WALL_VAR, box)
        else:
            raise ValueError(f"unknown action {name}")
    return track


def wall_continuous_belief(actions, atoms, box: float | None = None) -> float:
    """The wall theory with the Gaussian sonar, or with the box-noise sonar
    of half-width ``box``."""
    track = _wall_continuous_track(actions, box)
    lo, hi = interval_of(atoms, "h")
    gamma = track_mass(track, 2.0, 12.0, 0.1)
    return track_mass(track, 2.0, 12.0, 0.1, lo, hi) / gamma


def wall_continuous_density(actions, grid) -> list[float]:
    """The unnormalized posterior density of the final value at each grid
    point (prior density times likelihood, carried through the motion map),
    without the point masses that clamping piles up."""
    track = _wall_continuous_track(actions)
    out = []
    for v in grid:
        x0 = track.preimage(v)
        if x0 is None or not 2.0 <= x0 <= 12.0:
            out.append(0.0)
        else:
            out.append(0.1 * track.likelihood(x0))
    return out


TWO_REAL_VAR = 0.5


def two_real_belief(actions, atoms) -> float:
    """``x <= y`` in the two-fluent theory: x and y are independent a
    posteriori, so the belief in ``x_final <= y_final`` is a 1-D integral
    over x0 of y's survival function, which is an erf closed form."""
    tx, ty = Track(), Track()
    for name, arg in actions:
        if name == "mv":
            tx.move(float(arg))
        elif name == "sx":
            tx.sense(float(arg), TWO_REAL_VAR)
        elif name == "sy":
            ty.sense(float(arg), TWO_REAL_VAR)
        else:
            raise ValueError(f"unknown action {name}")
    if atoms != [("x", "<=", "y")]:
        raise ValueError("the two-fluent reference answers x <= y only")
    gy = track_mass(ty, 0.5, 1.5, 1.0)

    def survival(v):  # P(y_final >= v)
        return track_mass(ty, 0.5, 1.5, 1.0, lo=v) / gy
    # where x_final crosses the edges of y's support
    cuts = [tx.preimage(0.5), tx.preimage(1.5)]
    edges = sorted({0.5, 1.5, *tx.kinks(), *(c for c in cuts if c is not None)})
    edges = [c for c in edges if 0.5 <= c <= 1.5]
    num = 0.0
    for a, b in zip(edges, edges[1:]):
        num += quad(lambda x0: tx.likelihood(x0) * survival(tx.value(x0)),
                    a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return num / track_mass(tx, 0.5, 1.5, 1.0)


CHARGE_VAR = 0.5


def charge_belief(actions, atoms) -> float:
    """Mixed theory: sum over the initial charge n0 of the (discrete) charge
    path times the integral over the initial position x0."""
    num = gamma = 0.0
    lo, hi = interval_of(atoms, "x")
    rest = others(atoms, "x")
    for n0 in range(0, 4):
        n, w = n0, 1.0                     # prior 1/4 per charge level
        track = Track()
        for name, arg in actions:
            if name == "mv":
                if n < 1:                  # impossible: weight 0
                    w = 0.0
                    break
                n -= 1
                track.move(float(arg))
            elif name == "sx":
                track.sense(float(arg), CHARGE_VAR)
            elif name == "sn":
                w *= 1.0 if n == arg else 0.25
            else:
                raise ValueError(f"unknown action {name}")
        if w == 0.0:
            continue
        gamma += w * track_mass(track, 0.5, 1.5, 1.0)
        if holds(rest, {"n": n}):
            num += w * track_mass(track, 0.5, 1.5, 1.0, lo, hi)
    return num / gamma


def reference(q: dict):
    """The reference answer for one generated query: a Fraction, a float, or
    for a density profile a list of floats."""
    actions = parse_actions(q["actions"])
    theory = q["theory"]
    if q["kind"] == "profile":
        return wall_continuous_density(actions, q["grid"])
    atoms = parse_query(q["phi"])
    if theory == "wall-discrete":
        return discrete_belief(WALL_DISCRETE, actions, atoms)
    if theory == "three_int":
        return discrete_belief(THREE_INT, actions, atoms)
    if theory == "wall-continuous":
        return wall_continuous_belief(actions, atoms)
    if theory == "wall_box":
        return wall_continuous_belief(actions, atoms, WALL_BOX)
    if theory == "two_real":
        return two_real_belief(actions, atoms)
    if theory == "charge":
        return charge_belief(actions, atoms)
    raise ValueError(f"no reference model for theory {theory!r}")


def encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


# ---------------------------------------------------------------------------
# self-check against the acceptance goldens

GOLDENS = [
    ({"theory": "wall-discrete", "kind": "belief", "phi": "h <= 5",
      "actions": "sonar(5)"}, Fraction(2, 3)),
    ({"theory": "wall-continuous", "kind": "belief", "phi": "4 <= h <= 6",
      "actions": "sonar(5)"}, 0.41044080444593467),
    ({"theory": "wall-continuous", "kind": "belief", "phi": "4 <= h <= 6",
      "actions": "sonar(5); sonar(5)"}, 0.5294732842457879),
    ({"theory": "wall-continuous", "kind": "belief", "phi": "h <= 5",
      "actions": "fwd(-2); sonar(8)"}, 0.045145066783604235),
]


def self_check() -> list[str]:
    """Return one line per golden that the reference fails to reproduce."""
    bad = []
    for q, want in GOLDENS:
        got = reference(q)
        ok = got == want if isinstance(want, Fraction) else abs(got - want) <= 1e-12
        if not ok:
            bad.append(f"{q['theory']} {q['phi']} after {q['actions']}: {got!r} != {want!r}")
    return bad


def serve(stdin, stdout):
    stdout.write(json.dumps({"self_check": self_check()}) + "\n")
    stdout.flush()
    for line in stdin:
        out = []
        for q in json.loads(line):
            try:
                out.append(encode(reference(q)))
            except ZeroDivisionError:
                out.append(None)           # belief undefined
        stdout.write(json.dumps(out) + "\n")
        stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve(sys.stdin, sys.stdout)
    elif sys.argv[1:] == ["--self-check"]:
        failures = self_check()
        for line in failures:
            print(line)
        print("reference self-check:", "FAIL" if failures else "ok")
        sys.exit(1 if failures else 0)
    else:
        sys.exit("usage: reference.py --serve | --self-check")
