"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench

They check the reference generator against the acceptance goldens, that the
input generator is seeded and stratified, that clearly wrong answers make a
run incorrect, that no timed query fails while every probe shows its
defect, that the counters repeat exactly across two traced runs of one
seed, and that the benchmark refuses to run without the library's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import regbel  # noqa: E402


def test_reference_reproduces_acceptance_goldens():
    assert reference.self_check() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_and_stratified(workload):
    a = workloads.make_pass(workload, 7, 0)
    assert a == workloads.make_pass(workload, 7, 0)
    b = workloads.make_pass(workload, 8, 0)
    assert a != b
    assert sorted(q["slot"] for q in a) == sorted(q["slot"] for q in b)
    assert all(q["expect"] == "ok" for q in a)
    assert all(q["expect"] in workloads.KNOWN_DEFECTS for q in workloads.PROBES[workload])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_answers_every_generated_query(workload):
    for q in workloads.make_pass(workload, 3, 0) + workloads.PROBES[workload]:
        if q["theory"] == "three_int":
            continue                      # exact but slow; covered by the runs
        assert reference.reference(q) is not None


class _Shifted:
    """regbel with every belief value and oracle estimate moved by 0.1."""

    def __getattr__(self, name):
        return getattr(regbel, name)

    @staticmethod
    def eval_belief(*args, **kwargs):
        res = regbel.eval_belief(*args, **kwargs)
        return dataclasses.replace(res, value=float(res.value) + 0.1)

    @staticmethod
    def mc_oracle(*args, **kwargs):
        est = regbel.mc_oracle(*args, **kwargs)
        return dataclasses.replace(est, estimate=est.estimate + 0.1)


@pytest.mark.parametrize("workload", ["wall-clamp", "multi-fluent", "profile-oracle"])
def test_shifted_answers_are_wrong(workload, monkeypatch):
    """Every healthy slot answered 0.1 off is a wrong answer, not a defect;
    answered right, the same queries leave the run correct."""
    monkeypatch.chdir(ROOT)
    theories, _ = run.load_theories(regbel, workload)
    seen, queries = set(), []
    for q in workloads.make_pass(workload, 1, 0):
        if q["expect"] == "ok" and q["kind"] != "profile" and q["slot"] not in seen \
                and q["theory"] != "three_int":
            seen.add(q["slot"])
            queries.append(q)
    queries = queries[:6]
    refs = [reference.reference(q) for q in queries]
    right = run.run_pass(regbel, theories, queries, refs, None)
    assert run.wrong_answers(right) == []
    shifted = run.run_pass(_Shifted(), theories, queries, refs, None)
    assert len(run.wrong_answers(shifted)) == len(queries)


def _outcome(q, ok, defect):
    return run.Outcome(q, 0.1, ok, 0.0 if ok else None, None, None, None, defect)


def test_defect_allowances():
    q = {"expect": "ok", "kind": "belief", "theory": "wall-continuous", "tol": 1e-6}
    res = regbel.EvalResult(value=0.3, numerator=0.06, gamma=0.2)
    # 2 * tol / gamma = 1e-5
    assert run.explain(q, res, None, 0.3 + 5e-6) == "tol-on-mass"
    assert run.explain(q, res, None, 0.3 + 2e-3) == "missed-kinks"
    assert run.explain(q, res, None, 0.4) is None
    assert run.explain(dict(q, expect="requires-ignored"), res, None, 0.9) \
        == "requires-ignored"
    exact = dict(q, theory="wall-discrete")
    assert run.explain(exact, res, None, reference.Fraction(1, 3)) is None
    # an oracle estimate is a hit up to ORACLE_GATE standard errors off
    oracle = dict(q, kind="oracle")
    est = regbel.OracleEstimate(estimate=0.3 + 0.015, stderr=0.003, samples=1, seed=0)
    assert run.check(oracle, est, 0.3) is not None
    est = dataclasses.replace(est, estimate=0.4)
    assert run.check(oracle, est, 0.3) is None
    assert run.explain(oracle, est, None, 0.3) is None
    # a run where too many answers need the missed-kinks allowance
    few = [_outcome(q, True, None)] * 19 + [_outcome(q, False, "missed-kinks")]
    many = [_outcome(q, True, None)] * 6 + [_outcome(q, False, "missed-kinks")] * 4
    assert run.wrong_answers(few) == []
    assert len(run.wrong_answers(many)) == 1


@pytest.mark.parametrize("workload", ["wall-clamp", "multi-fluent"])
def test_every_probe_shows_its_defect(workload, monkeypatch):
    """The probes fail today, each explained by the defect it names; a fix
    makes one answer and lowers the per-layer failure counts."""
    monkeypatch.chdir(ROOT)
    theories, _ = run.load_theories(regbel, workload)
    probes = workloads.PROBES[workload]
    outcomes = run.run_pass(regbel, theories, probes, [reference.reference(q) for q in probes],
                            run.Recorder())
    assert [o.ok for o in outcomes] == [False] * len(probes)
    assert [o.defect for o in outcomes] == [q["expect"] for q in probes]
    assert run.wrong_answers(outcomes) == []


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = _run(workload, 5, 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] and counts[0] == counts[1]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("wall-history", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
