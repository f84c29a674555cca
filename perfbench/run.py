"""The regbel benchmark: per-query latency, answer rate and memory on four
workloads, with per-layer timing measured from outside the library.

Usage (from the repository root):

    python3 perfbench/run.py --workload wall-history --seed 1 --seconds 20 --trace 0

It is a single-process closed loop: one client sends the next query only
after the previous one has returned.  A query is the call chain a user makes:
``parse_formula``/``parse_action_sequence`` -> ``regress_belief`` ->
``eval_belief`` (on profile-oracle ``parse_formula``/``parse_action_sequence``
-> ``mc_oracle``, or ``parse_action_sequence`` -> ``density_profile``).
Every answer is checked against a reference computed without regbel, in a
separate process (``reference.py``).  The timed queries are all ones the
engine answers right, so ``failed`` is 0 unless a change breaks one; the
known defects are exercised by the fixed queries of ``workloads.PROBES``,
run and checked once per run outside the timed loop and counted per layer
with ``--trace 1``.

``--trace 0`` prints the end-to-end metrics; no timer sits between layers.
``--trace 1`` runs the same passes traced and prints the per-layer metrics:
spans (name, start, end, parent, query id) recorded around each call into a
layer, counters taken from the returned objects, and the tracing overhead:
each pass runs untraced as well, and the overhead is the traced query time,
less the extra ``to_piecewise`` calls, over the untraced time of the same
queries.  The spans are kept in memory and written to ``perfbench/out/`` when
the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an answer, timed or probe, is wrong, that is when a failure is beyond
what the known defects (``workloads.KNOWN_DEFECTS``) explain (see
``explain``), or when the reference misses the acceptance goldens.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

import workloads

# set-up is sampled at least this many times, and more while the samples
# take less than SETUP_MIN_S in total, since a cold import is short and noisy
SETUP_SAMPLES = 3
SETUP_MIN_S = 3.0
SETUP_MAX_SAMPLES = 25
OUT_DIR = os.path.join("perfbench", "out")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up

def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import + theory loading."""
    samples: list[float] = []
    t0 = time.perf_counter()
    while len(samples) < SETUP_SAMPLES or (
            time.perf_counter() - t0 < SETUP_MIN_S and len(samples) < SETUP_MAX_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def load_theories(regbel, workload: str) -> tuple[dict, list[float]]:
    theories, times = {}, []
    for name, bundled in workloads.THEORIES[workload].items():
        t0 = time.perf_counter()
        if bundled:
            theories[name] = regbel.bundled_theory(bundled)
        else:
            with open(os.path.join("perfbench", "theories", f"{name}.bel"),
                      encoding="utf-8") as fh:
                theories[name] = regbel.parse_theory(fh.read())
        times.append(time.perf_counter() - t0)
        if theories[name].diagnostics:
            fail(f"theory {name}: {theories[name].diagnostics}")
    return theories, times


class ReferenceWorker:
    """The reference generator in its own interpreter, so neither scipy nor
    its memory lands in the measured process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "reference.py"), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.self_check = json.loads(self._read())["self_check"]

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            fail("reference worker exited")
        return line

    def answers(self, queries: list[dict]) -> list:
        """One reference per query: a Fraction (sent as "p/q"), a float, a
        list of floats, or None where the belief is undefined."""
        self.proc.stdin.write(json.dumps(queries) + "\n")
        self.proc.stdin.flush()
        return [Fraction(v) if isinstance(v, str) else v for v in json.loads(self._read())]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# tracing

class Recorder:
    """Spans and counters for traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # name, start, end, parent index, query id
        self.stack: list[int] = []
        self.query_id = None
        self.counts: dict[str, float] = {}
        self.failed_layer = None

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.query_id])
        self.stack.append(idx)
        try:
            yield
        except Exception:
            if self.failed_layer is None:
                self.failed_layer = name
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()


@contextmanager
def _no_span(name):
    yield


def term_nodes(e) -> int:
    """Node count of a regbel expression tree (dataclass nodes, tuples)."""
    if isinstance(e, tuple):
        return sum(term_nodes(x) for x in e)
    if is_dataclass(e):
        return 1 + sum(term_nodes(getattr(e, f.name)) for f in fields(e))
    return 0


def _atom_differences(regbel, phi) -> list:
    """``l - r`` for every comparison atom: the terms whose sign changes
    breakpoint discovery looks for."""
    match phi:
        case regbel.Atom(_, left, right):
            return [regbel.fold(regbel.App("-", (left, right)))]
        case regbel.And(items) | regbel.Or(items):
            return [d for f in items for d in _atom_differences(regbel, f)]
        case regbel.Not(body) | regbel.Exists(_, body):
            return _atom_differences(regbel, body)
    return []


def _pieces_below(regbel, t, depth: int = 0) -> int:
    """``to_piecewise`` on ``t`` and, as breakpoint discovery does, on the
    atom differences of each piece's guard, down to its depth limit of 12."""
    pieces = regbel.to_piecewise(t).pieces
    n = len(pieces)
    if depth < 12:
        for guard, _ in pieces:
            n += sum(_pieces_below(regbel, d, depth + 1)
                     for d in _atom_differences(regbel, guard))
    return n


def piecewise_pieces(regbel, expr) -> int:
    """Call ``to_piecewise`` on the inputs breakpoint discovery hands it: the
    prior, each factor and each condition-atom difference, then the guard
    atoms of the pieces it returns, recursively."""
    # discovery starts its depth count at the guards of prior and factors
    n = sum(_pieces_below(regbel, t, -1) for t in (expr.prior, *expr.factors))
    for phi in (expr.condition, expr.gamma_condition):
        n += sum(_pieces_below(regbel, d) for d in _atom_differences(regbel, phi))
    return n


# ---------------------------------------------------------------------------
# one query

def run_query(regbel, theory, q: dict, rec: Recorder | None = None):
    """The user's call chain for one query; returns the answer to check."""
    span = rec.span if rec else _no_span
    kind = q["kind"]
    with span("parser.parse"):
        sit = regbel.parse_action_sequence(q["actions"])
        phi = None if kind == "profile" else \
            regbel.parse_formula(q["phi"], fluents=theory.fluent_names)
    if kind == "profile":
        with span("evaluate.profile"):
            return [d for _, d in regbel.density_profile(theory, sit, "h", q["grid"])]
    if kind == "oracle":
        with span("evaluate.oracle"):
            return regbel.mc_oracle(theory, phi, sit, q["samples"], seed=q["oracle_seed"])
    with span("regression.regress"):
        expr, _ = regbel.regress_belief(theory, phi, sit)
    if rec:
        rec.counts["regression.term_nodes"] = term_nodes(expr)
        with span("simplify.piecewise"):
            rec.counts["simplify.pieces"] = piecewise_pieces(regbel, expr)
    with span("evaluate.eval"):
        res = regbel.eval_belief(theory, expr, tol=q["tol"])
    if rec:
        rec.counts["evaluate.cells"] = res.cells
        rec.counts["evaluate.reported_error"] = res.error
    return res


# an oracle estimate within this many standard errors of the reference is a
# hit, and beyond it wrong: a correct oracle lands further off about once in
# two million estimates (at 4 standard errors it would be once in 16 000,
# and a set of runs makes thousands).  REF_SLACK covers the reference's own
# quadrature error, which matters when the estimate's standard error is 0
# (every sample on one side of the query).
ORACLE_GATE = 5.0
REF_SLACK = 1e-9


def _oracle_z(est, ref: float) -> float:
    """How far the estimate lies from the reference, in standard errors."""
    miss = abs(est.estimate - ref) - REF_SLACK
    if miss <= 0:
        return 0.0
    return miss / est.stderr if est.stderr > 0 else float("inf")


def check(q: dict, answer, ref) -> float | None:
    """Absolute error of a correct answer, or None if it misses.  An exact
    reference (Fraction) must be met exactly; a float one within the query's
    tol; an oracle estimate within ORACLE_GATE standard errors."""
    if ref is None:
        return None                   # reference says undefined; engine answered
    if q["kind"] == "profile":
        err = max(abs(a - r) for a, r in zip(answer, ref))
        return err if err <= q["tol"] else None
    if q["kind"] == "oracle":
        return abs(answer.estimate - ref) if _oracle_z(answer, ref) <= ORACLE_GATE else None
    value = answer.value
    if isinstance(ref, Fraction):
        return 0.0 if isinstance(value, Fraction) and value == ref else None
    err = abs(float(value) - ref)
    return err if err <= q["tol"] else None


def tol_on_mass_bound(q: dict, res) -> float:
    """The largest value error the engine's tol allows.  tol bounds the error
    of each integral the engine sums into a mass (MASS_INTEGRALS of them), so
    the numerator and gamma are each within e = MASS_INTEGRALS * tol and the
    value numerator/gamma within (e + value * e) / gamma <= 2 e / gamma."""
    e = workloads.MASS_INTEGRALS[q["theory"]] * q["tol"]
    return 2.0 * e / float(res.gamma)


# A quadrature answer further than this from the reference is wrong,
# whatever the missed-kinks defect allows: the largest misses measured are
# 5.7e-3 on two_real at tol 1e-6 (in 3 200 queries, with Gaussian readings)
# and 4.4e-4 on wall-continuous.  And no more than KINKS_SHARE of a run's
# timed answers on one theory may need that allowance; none do today, since
# no timed quadrature query reads a Gaussian sensor.
KINKS_MAX = 5e-2
KINKS_SHARE = 0.25


def explain(q: dict, answer, exc, ref) -> str | None:
    """The known defect that accounts for a failure, or None if none does.
    A probe's failures are its defect's.  A quadrature answer that misses
    its float reference by more than tol is "tol-on-mass" up to
    ``tol_on_mass_bound``, and "missed-kinks" up to KINKS_MAX.  Anything else
    is a wrong answer: an exception outside a probe, an inexact discrete
    answer, a wrong profile, a quadrature answer beyond those allowances, or
    an oracle estimate more than ORACLE_GATE standard errors off."""
    if q["expect"] != "ok":
        return q["expect"]
    if exc is not None or ref is None or q["kind"] in ("profile", "oracle") \
            or isinstance(ref, Fraction):
        return None
    err = abs(float(answer.value) - ref)
    if err <= tol_on_mass_bound(q, answer):
        return "tol-on-mass"
    if err <= KINKS_MAX:
        return "missed-kinks"
    return None


def wrong_answers(outcomes) -> list[str]:
    """Why the run's answers are not correct, one line per reason."""
    out = [f"wrong answer in slot {o.query['slot']} ({o.exc or 'mismatch'}): "
           f"{o.query['phi']} after {o.query['actions']}"
           for o in outcomes if not o.ok and o.defect is None]
    healthy = Counter(o.query["theory"] for o in outcomes if o.query["expect"] == "ok")
    kinks = Counter(o.query["theory"] for o in outcomes
                    if o.defect == "missed-kinks" and o.query["expect"] == "ok")
    for theory, n in kinks.items():
        if n > KINKS_SHARE * healthy[theory]:
            out.append(f"{n} of {healthy[theory]} {theory} answers miss by more than "
                       "tol allows")
    return out


# ---------------------------------------------------------------------------
# the loop

@dataclass(slots=True)
class Outcome:
    query: dict
    seconds: float
    ok: bool
    error: float | None          # |answer - reference| when ok
    exc: str | None              # exception type name when the query raised
    layer: str | None            # span that raised (traced runs)
    counts: dict | None          # counters (traced runs)
    defect: str | None           # the known defect behind a failure, if one is


def run_pass(regbel, theories, queries, refs, rec: Recorder | None) -> list[Outcome]:
    gc.collect()
    out = []
    for q, ref in zip(queries, refs):
        theory = theories[q["theory"]]
        answer, exc = None, None
        if rec:
            rec.query_id, rec.failed_layer, rec.counts = q["id"], None, {}
            root = len(rec.spans)
            with rec.span("query"):
                try:
                    answer = run_query(regbel, theory, q, rec)
                except Exception as e:     # noqa: BLE001 - counted per type below
                    exc = e
            seconds = rec.spans[root][2] - rec.spans[root][1]
        else:
            t0 = time.perf_counter()
            try:
                answer = run_query(regbel, theory, q)
            except Exception as e:         # noqa: BLE001 - counted per type below
                exc = e
            seconds = time.perf_counter() - t0
        error = None if exc is not None else check(q, answer, ref)
        out.append(Outcome(q, seconds, error is not None, error,
                           type(exc).__name__ if exc is not None else None,
                           rec.failed_layer if rec else None,
                           dict(rec.counts) if rec else None,
                           None if error is not None else explain(q, answer, exc, ref)))
    return out


def quantile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between order statistics; failures sort last as
    ``inf``, so a percentile that reaches them is ``inf``."""
    h = (len(sorted_values) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if h == lo:
        return a
    return a + (b - a) * (h - lo) if b != float("inf") else float("inf")


def failure_layer(o: Outcome) -> str:
    if o.exc is None:
        return "reference.mismatch"
    if o.layer == "parser.parse":
        return "parser.failed"
    if o.layer == "regression.regress":
        return "regression.failed"
    if o.layer == "simplify.piecewise":
        return "simplify.failed"
    return "evaluate.undefined" if o.exc == "UndefinedBeliefError" else "evaluate.failed"


def pass_rate(done: list[Outcome]) -> float:
    """Answered queries per second of query time in one pass."""
    return sum(o.ok for o in done) / sum(o.seconds for o in done)


def end_to_end(outcomes: list[Outcome], rates: list[float], setup_s: float) -> dict:
    """``rates`` holds ``pass_rate`` of each pass; every pass holds the same
    mix of slots, so their median is the throughput of a typical pass, and a
    burst of load from outside slows one pass without moving it."""
    times = sorted(o.seconds if o.ok else float("inf") for o in outcomes)
    p50, p90 = quantile(times, 0.5), quantile(times, 0.9)
    if p90 == float("inf"):
        fail(f"{sum(not o.ok for o in outcomes)} of {len(times)} queries failed; "
             "the 90th percentile latency is undefined")
    answered = sum(o.ok for o in outcomes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "query_s_p50": (p50, "s"),
        "query_s_p90": (p90, "s"),
        "queries_per_s": (statistics.median(rates), "1/s"),
        "answered_frac": (answered / len(outcomes), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# the calls an untraced query makes too; the layer shares are taken over
# their total, the chain time
CHAIN = ("parser.parse", "regression.regress", "evaluate.eval", "evaluate.profile",
         "evaluate.oracle")


def per_layer(rec: Recorder, traced: list[Outcome], untraced_s: float,
              counted: list[Outcome], probe: list[Outcome],
              load_times: list[float]) -> dict:
    """Per-layer metrics of the traced passes.  ``untraced_s`` is the query
    time of the same queries run without tracing, for the overhead; the
    counters come from the first pass, ``counted``, and the failure counts
    from it and the probes."""
    per_query: dict[str, dict] = {}          # layer -> query id -> seconds
    for name, start, end, _, qid in rec.spans:
        if name != "query":
            per_query.setdefault(name, {}).setdefault(qid, 0.0)
            per_query[name][qid] += end - start

    def layer_total(name):
        return sum(per_query.get(name, {}).values())

    chain = sum(layer_total(name) for name in CHAIN)

    def layer_s(name):
        vals = list(per_query.get(name, {}).values())
        return statistics.median(vals) if vals else 0.0

    def share(name):
        return layer_total(name) / chain

    def median_count(key):
        vals = [o.counts[key] for o in counted if o.counts and key in o.counts]
        return statistics.median(vals) if vals else 0

    failures = {k: 0 for k in ("parser.failed", "regression.failed", "simplify.failed",
                               "evaluate.undefined", "evaluate.failed",
                               "reference.mismatch")}
    for o in counted + probe:
        if not o.ok:
            failures[failure_layer(o)] += 1
    errors = [o.error for o in counted if o.ok]
    reported = [o.counts.get("evaluate.reported_error", 0.0) for o in counted
                if o.ok and o.counts]
    # traced query time less the extra to_piecewise calls (work, not timing),
    # against the untraced time of the same queries: what spans and counters cost
    traced_s = sum(o.seconds for o in traced) - layer_total("simplify.piecewise")
    overhead = traced_s / untraced_s - 1.0
    m = {
        "theory.load_s": (statistics.median(load_times), "s"),
        "parser.parse_s": (layer_s("parser.parse"), "s"),
        "parser.parse_share": (share("parser.parse"), "frac"),
        "regression.regress_s": (layer_s("regression.regress"), "s"),
        "regression.regress_share": (share("regression.regress"), "frac"),
        "regression.term_nodes": (median_count("regression.term_nodes"), "count"),
        "simplify.piecewise_s": (layer_s("simplify.piecewise"), "s"),
        "simplify.piecewise_share": (share("simplify.piecewise"), "frac"),
        "simplify.pieces": (median_count("simplify.pieces"), "count"),
        "evaluate.eval_s": (layer_s("evaluate.eval"), "s"),
        "evaluate.eval_share": (share("evaluate.eval"), "frac"),
        "evaluate.cells": (median_count("evaluate.cells"), "count"),
        "evaluate.reported_error_max": (max(reported, default=0.0), "abs"),
        "evaluate.profile_share": (share("evaluate.profile"), "frac"),
        "evaluate.oracle_share": (share("evaluate.oracle"), "frac"),
        "reference.abs_err_max": (max(errors, default=0.0), "abs"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    for k, v in failures.items():
        m[k] = (v, "count")
    return m


def warm_up(regbel, theories, workload: str, seed: int, worker: ReferenceWorker):
    """One cheap query of each kind and theory, so lazy imports and first-call
    costs are paid before timing."""
    chosen = {}
    for q in workloads.make_pass(workload, seed, "warmup"):
        key = (q["kind"], q["theory"])
        if key not in chosen or len(q["actions"]) < len(chosen[key]["actions"]):
            chosen[key] = q
    queries = list(chosen.values())
    run_pass(regbel, theories, queries, worker.answers(queries), None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "regbel", "__init__.py")):
        fail("run from the root of a regbel checkout: src/regbel is missing")

    setup_s = None if args.trace else measure_setup(args.workload)
    sys.path.insert(0, "src")
    import regbel
    theories, load_times = load_theories(regbel, args.workload)

    worker = ReferenceWorker()
    try:
        warm_up(regbel, theories, args.workload, args.seed, worker)
        # the known-defect probes, untimed; a recorder of their own names the
        # layer that raised without adding spans to the measured ones
        probes = workloads.PROBES[args.workload]
        probe = run_pass(regbel, theories, probes, worker.answers(probes), Recorder())
        rec = Recorder() if args.trace else None
        outcomes: list[Outcome] = []
        counted: list[Outcome] = []
        rates: list[float] = []
        busy, untraced_s, index = 0.0, 0.0, 0
        while busy < args.seconds:
            queries = workloads.make_pass(args.workload, args.seed, index)
            refs = worker.answers(queries)
            traced_first = rec is not None and index % 2 == 1
            if traced_first:
                done = run_pass(regbel, theories, queries, refs, rec)
            if rec:
                # the same pass untraced as well, for the tracing overhead;
                # which of the two runs first alternates between passes
                bare = sum(o.seconds for o in run_pass(regbel, theories, queries, refs, None))
                untraced_s += bare
                busy += bare
            if not traced_first:
                done = run_pass(regbel, theories, queries, refs, rec)
            counted = counted or done
            outcomes += done
            rates.append(pass_rate(done))
            busy += sum(o.seconds for o in done)
            index += 1
    finally:
        worker.close()

    failures = [o for o in outcomes if not o.ok]
    wrong = wrong_answers(outcomes + probe)
    for line in wrong:
        print(line, file=sys.stderr)
    for line in worker.self_check:
        print(f"reference misses a golden: {line}", file=sys.stderr)
    correct = not wrong and not worker.self_check

    if args.trace:
        metrics = per_layer(rec, outcomes, untraced_s, counted, probe, load_times)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans,
                       "exceptions": Counter(o.exc or "mismatch" for o in failures),
                       "probe_exceptions": Counter(o.exc or "mismatch"
                                                   for o in probe if not o.ok),
                       "metrics": metrics}, fh)
    else:
        metrics = end_to_end(outcomes, rates, setup_s)
    for label, counts in (
            ("failures by slot", Counter(o.query["slot"] for o in failures)),
            ("probe failures by defect", Counter(o.defect for o in probe if not o.ok))):
        print(f"{args.workload:15s} {label:30s} "
              + (", ".join(f"{k} {v}" for k, v in sorted(counts.items())) or "none"))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:30s} {value:.6g} {unit}")
    print(f"{args.workload:15s} {'samples':30s} {len(outcomes)} queries, "
          f"{len(failures)} failed", flush=True)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
