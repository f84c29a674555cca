"""Seeded input generator for the benchmark's workloads.

Each workload is a fixed list of *slots*; a slot fixes the properties that
set a query's cost (history length, clamp-chain depth, number of readings,
theory, tolerance) and the seed draws everything else.  Every pass of a run
holds each slot once, so runs made with different seeds see the same mix of
costs and differ only in content.  That keeps the latency percentiles steady
across seeds while the inputs themselves are fresh.  Each slot mix puts a
plateau of equal-cost queries around the median and around the 90th
percentile, so a percentile moves along a plateau instead of across a jump
between two cost levels.

Evidence is generated, not invented: the generator draws a true initial
state from the prior, simulates the actions on it and samples every reading
from the sensor model, so the readings are consistent with some world.
regbel receives only the generated strings (``phi``, ``actions``).

Every query of a pass is one the engine answers right: the timed loop holds
no failing query, so ``failed`` is 0 on every run and any failure is a
regression.  The known defects of the engine at the time the benchmark was
written (``KNOWN_DEFECTS``) are exercised by ``PROBES`` instead: a fixed
list of queries per workload, each marked with the defect it shows, run and
checked once per run outside the timed loop and counted per layer, so a
fix shows as a drop in those counts.  The defects decide which inputs a
pass can hold: a reading drawn from a Gaussian sensor makes 0.1 to 12% of
quadrature answers miss their ``tol`` at random (tol-on-mass,
missed-kinks), so no quadrature slot of a pass senses with a Gaussian;
such queries are in the probes.
"""

from __future__ import annotations

import random

WORKLOADS = ("wall-history", "wall-clamp", "multi-fluent", "profile-oracle")

# theory name -> bundled theory name, or None for a file under theories/
THEORIES = {
    "wall-history": {"wall-discrete": "wall-discrete"},
    "wall-clamp": {"wall_box": None, "wall-continuous": "wall-continuous"},
    "multi-fluent": {"two_real": None, "charge": None, "three_int": None},
    "profile-oracle": {"wall-continuous": "wall-continuous"},
}

KNOWN_DEFECTS = {
    "undefined-after-8-readings":
        "wall-continuous after 8 sonar readings: gamma <= tol, so the "
        "belief is reported undefined although it is well-posed",
    "tol-on-mass":
        "tol bounds the error of each integral summed into the unnormalized "
        "mass, not the belief value, so a quadrature answer can miss the "
        "reference by more than tol (by up to 2 * MASS_INTEGRALS * tol / gamma)",
    "missed-kinks":
        "quadrature cells are not always split where the integrand has a "
        "kink (two_real: where the inner integral has one; wall-continuous: "
        "deep clamp chains), so Simpson's error estimate can be fooled and "
        "an answer misses by more than tol allows (up to 5.7e-3 at tol 1e-6 "
        "measured on two_real, 4.4e-4 on wall-clamp)",
    "requires-then-sense":
        "a 'requires' precondition followed by a later sensing action "
        "raises RegressionError (sensed value left under a disjunction)",
    "requires-ignored":
        "worlds where a 'requires' precondition fails keep their weight "
        "instead of getting weight 0",
}

# Per quadrature theory, how many tol-bounded integrals the engine sums into
# one mass: one per value of the finite fluents (charge: n in 0..3), and for
# two_real the inner integrals, each within tol, integrated over an outer
# range of width 2, plus the outer integral's own tol.
MASS_INTEGRALS = {"wall-continuous": 1, "wall_box": 1, "charge": 4, "two_real": 3}

DEFAULT_TOL = 1e-6


def _num(x: float) -> str:
    """A reading or move amount as a two-decimal numeral."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _query(slot: str, theory: str, phi: str, actions: list[str],
           tol: float = DEFAULT_TOL, expect: str = "ok", kind: str = "belief",
           **extra) -> dict:
    return {"slot": slot, "theory": theory, "kind": kind, "phi": phi,
            "actions": "; ".join(actions), "tol": tol, "expect": expect, **extra}


def _interval(rng: random.Random, lo: float, hi: float, width: tuple[float, float],
              integer: bool = False) -> str:
    """A query ``a <= h <= b`` inside ``[lo, hi]``."""
    if integer:
        w = rng.randint(int(width[0]), int(width[1]))
        a = rng.randint(int(lo), int(hi) - w)
        return f"{a} <= h <= {a + w}"
    w = rng.uniform(*width)
    a = rng.uniform(lo, hi - w)
    return f"{_num(a)} <= h <= {_num(a + w)}"


def _gauss_reading(rng: random.Random, true: float, var: float) -> str:
    """A reading drawn from ``gauss(z - true, 0, var)``, resampled while
    negative (a negative sonar reading has likelihood 0)."""
    while True:
        z = rng.gauss(true, var ** 0.5)
        if z >= 0:
            return _num(z)


# ---------------------------------------------------------------------------
# wall-history: regression dominates.  wall-discrete histories of 1-64
# actions alternating fwd and sonar; regression is quadratic in history
# length while the exact evaluation enumerates 21 cells whatever the length.
# The alternation is fixed because where the readings sit moves the cost of
# a history of one length by a factor of 2-3, which would swamp the length.

# lengths 1..64, with five slots at 33 (the median's group) and five at 58
# (the 90th percentile's group): the cost of one length varies by ~10% with
# content, so the percentiles need several samples of one length per pass
HISTORY_LENGTHS = [1, 3, 5, 8, 10, 13, 15, 18, 20, 23, 25, 28, 30, *[33] * 5,
                   37, 41, 44, 48, 52, *[58] * 5, 64]


def _wall_history(rng: random.Random) -> list[dict]:
    out = []
    for n in HISTORY_LENGTHS:
        h = rng.randint(2, 11)
        actions = []
        for i in range(n):
            if i % 2:
                actions.append(f"sonar({h + rng.choice((-1, 0, 1))})")
            else:
                # drift back toward the middle of the range so the true
                # state stays inside the 0..20 domain of the prior
                z = rng.choice((1, 2)) if h > 14 else rng.choice((-2, -1)) if h < 4 \
                    else rng.choice((-2, -1, 1, 2))
                h = max(0, h - z)
                actions.append(f"fwd({z})")
        phi = _interval(rng, 0, 20, (1, 5), integer=True)
        out.append(_query(f"len{n}", "wall-discrete", phi, actions))
    return out


# ---------------------------------------------------------------------------
# wall-clamp: simplify dominates.  The wall theory with (fwd(a); fwd(-a))
# x k, k = 1..16, then a sonar reading, at the default tol: the regressed
# term nests max(0, ...) 2k deep inside the sensor's likelihood, and the
# fold/to_piecewise calls of breakpoint discovery carry the cost.  The
# sonar has box noise (theories/wall_box.bel): with the bundled theory's
# Gaussian sonar 2-5% of the answers miss tol (tol-on-mass, missed-kinks);
# such readings are in the probes.

def _clamp_chain(rng: random.Random, k: int) -> dict:
    a_txt = _num(rng.uniform(0.5, 4.0))
    a = float(a_txt)
    h = max(a, rng.uniform(2, 12))                  # the final distance
    # every world with h < a ends at exactly a, a point mass; an edge of the
    # reading's window or of the query on it makes the answer jump with the
    # last bit of a float, so those edges are kept 0.01 away from a
    while True:
        z = float(_num(h + rng.uniform(-2, 2)))
        if abs(abs(z - a) - 2) >= 0.01:
            break
    while True:
        lo = float(_num(rng.uniform(z - 3, z + 1)))   # overlaps [z - 2, z + 2]
        hi = float(_num(lo + rng.uniform(1, 4)))
        if min(abs(lo - a), abs(hi - a)) >= 0.01:
            break
    actions = [f"fwd({a_txt}); fwd(-{a_txt})"] * k + [f"sonar({_num(z)})"]
    return _query(f"k{k}", "wall_box", f"{_num(lo)} <= h <= {_num(hi)}", actions)


# chain depths, with a plateau at k = 8 (the median) and one at k = 16 (the
# 90th percentile)
CLAMP_DEPTHS = [*range(1, 7)] * 2 + [7] + [8] * 8 + [10, 12, 14] + [16] * 9


def _wall_clamp(rng: random.Random) -> list[dict]:
    return [_clamp_chain(rng, k) for k in CLAMP_DEPTHS]


# ---------------------------------------------------------------------------
# multi-fluent: nested quadrature and enumeration dominate; regression is
# negligible.  Three theories under perfbench/theories cover the fluent-count
# (2 real; 1 int + 1 real; 3 int) and tolerance (1e-4 .. 1e-8) axes.  The
# real fluents are moved and their integer partners sensed, but no real
# fluent is sensed: a Gaussian reading makes 1-12% of these answers miss
# tol (the probes hold such queries).

# Slots per theory and tolerance.  Sorted by cost a pass is 12 charge
# queries (1-D quadrature summed over 4 charge levels), 24 two_real
# (nested quadrature, ~45 ms; the median's plateau) and 8 three_int
# (29 791-cell enumeration, ~0.35 s; the 90th percentile's plateau).
TOLS = {1e-4: 2, 1e-5: 2, 1e-6: 2, 1e-7: 2, 1e-8: 4}
TWO_REAL_SLOTS = 24
TWO_REAL_TOL = 1e-6
THREE_INT_SLOTS = 8


def _charge_sensing(rng: random.Random, tol: float) -> dict:
    """Charge readings (the integer sensor), then a query on charge and
    position."""
    n = rng.randint(0, 3)
    # the sensor model: the right level with likelihood 1, each other with 1/4
    weights = [4 if level == n else 1 for level in range(4)]
    actions = [f"sn({rng.choices(range(4), weights)[0]})" for _ in range(2)]
    c = _num(rng.uniform(0.6, 1.4))
    phi = rng.choice((f"x <= {c}", f"n >= {rng.randint(1, 3)} and x <= {c}",
                      f"n = {rng.randint(0, 3)} and x >= {c}"))
    return _query(f"charge-tol{tol:g}", "charge", phi, actions, tol=tol)


# How many values of a survive both readings sets the cost of a three_int
# query: 5 - |z1 - z2| of them, times 31 x 31 cells.  Every slot draws its
# readings from the sensor model given |z1 - z2| = 1, away from the domain
# edges, and asks one query form, so every three_int query costs about the
# same and the 90th percentile sits on a flat plateau.
READING_PAIRS = [(o, o + d) for o in range(-2, 3) for d in (-1, 1) if -2 <= o + d <= 2]


def _three_int(rng: random.Random) -> dict:
    a = rng.randint(2, 28)
    o1, o2 = rng.choice(READING_PAIRS)
    actions = [f"sa({a + o1})", f"shift({rng.randint(1, 4)})", f"sa({a + o2})"]
    return _query("three-int", "three_int", f"a <= b and c <= {rng.randint(5, 25)}",
                  actions)


def _two_real(rng: random.Random) -> dict:
    """``x <= y`` after two moves of x, each clamped at 0: the inner integral
    over y has a kink wherever the moved x crosses an edge of y's prior."""
    d1, d2 = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
    return _query("two-real", "two_real", "x <= y", [f"mv({d1:.3f})", f"mv({d2:.3f})"],
                  tol=TWO_REAL_TOL)


def _multi_fluent(rng: random.Random) -> list[dict]:
    out = [_charge_sensing(rng, tol) for tol, n in TOLS.items() for _ in range(n)]
    out += [_two_real(rng) for _ in range(TWO_REAL_SLOTS)]
    out += [_three_int(rng) for _ in range(THREE_INT_SLOTS)]
    return out


# ---------------------------------------------------------------------------
# profile-oracle: the pointwise density path and the Monte Carlo oracle
# (the numpy compile_term path), which no other workload reaches.  Every
# prefix shifts, clamps, runs a clamp chain and senses.

GRID_POINTS = 201
ORACLE_SAMPLES = 100000
PROFILE_TOL = 1e-9


def _prefix(rng: random.Random) -> list[str]:
    """A shift (fwd(-s)), a clamp (fwd(s)) and a clamp chain (fwd(s);
    fwd(-s)), then one sonar reading.  Only the amounts vary, so every prefix
    costs about the same."""
    h = rng.uniform(2, 12)
    shift, clamp, chain = (_num(rng.uniform(0.5, 3.0)) for _ in range(3))
    h = max(float(chain), max(0.0, h + float(shift) - float(clamp)))
    return [f"fwd(-{shift})", f"fwd({clamp})", f"fwd({chain}); fwd(-{chain})",
            f"sonar({_gauss_reading(rng, h, 4.0)})"]


def _profile_oracle(rng: random.Random) -> list[dict]:
    # the cheap oracle queries are the median's plateau, the profiles the
    # 90th percentile's
    out = []
    for _ in range(8):
        actions = _prefix(rng)
        # grid points at a random offset, so none sits exactly on a clamp
        # value or a prior edge where the density jumps
        offset = rng.uniform(0.0, 0.1)
        grid = [round(offset + i * 0.099, 9) for i in range(GRID_POINTS)]
        out.append(_query("profile", "wall-continuous", "true", actions,
                          tol=PROFILE_TOL, kind="profile", grid=grid))
    for _ in range(16):
        out.append(_query("oracle", "wall-continuous", _interval(rng, 0, 14, (1, 4)),
                          _prefix(rng), kind="oracle", samples=ORACLE_SAMPLES,
                          oracle_seed=rng.randrange(2 ** 31)))
    return out


# ---------------------------------------------------------------------------
# probes: one query per known defect and theory, fixed, so the counts they
# give repeat on every run and a fix lowers them.  Each workload probes the
# theories it loads.

PROBES = {
    "wall-history": [],
    "wall-clamp": [
        _query("probe-8-readings", "wall-continuous", "4 <= h <= 6", ["sonar(5)"] * 8,
               expect="undefined-after-8-readings"),
        _query("probe-far-reading", "wall-continuous", "7.48 <= h <= 10.94",
               ["fwd(3.07); fwd(-3.07)"] * 3 + ["sonar(15.66)"], expect="tol-on-mass"),
        _query("probe-deep-kink", "wall-continuous", "5.21 <= h <= 8.67",
               ["fwd(3.4); fwd(-3.4)"] * 4 + ["sonar(2.13)"], expect="missed-kinks"),
    ],
    "multi-fluent": [
        _query("probe-mv-sense", "charge", "x <= 0.51", ["mv(0.21)", "sx(0.4)"],
               expect="requires-then-sense"),
        _query("probe-mv", "charge", "n = 0", ["mv(0.49)"], expect="requires-ignored"),
        _query("probe-far-reading", "charge", "x <= 1.1", ["sn(2)", "sx(2.64)"], tol=1e-8,
               expect="tol-on-mass"),
        _query("probe-gauss-pair", "two_real", "x <= y", ["sx(1.3)", "sy(2.05)", "mv(0.23)"],
               expect="tol-on-mass"),
        _query("probe-inner-kink", "two_real", "x <= y", ["sx(1.95)", "sy(1.12)", "mv(0.25)"],
               expect="missed-kinks"),
    ],
    "profile-oracle": [],
}
for _i, _q in enumerate(q for qs in PROBES.values() for q in qs):
    _q["id"] = f"probe.{_i}"


_MAKERS = {"wall-history": _wall_history, "wall-clamp": _wall_clamp,
           "multi-fluent": _multi_fluent, "profile-oracle": _profile_oracle}


def make_pass(workload: str, seed: int, index: int | str) -> list[dict]:
    """The queries of one pass, shuffled; deterministic in its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    queries = _MAKERS[workload](rng)
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = f"{index}.{i}"
    return queries
