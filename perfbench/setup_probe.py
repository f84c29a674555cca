"""Time one cold set-up of a workload: ``import regbel`` plus loading and
validating its theories.  ``run.py`` starts this in a fresh interpreter
several times per run, because an import is cold only once per process.
The theories load through ``run.load_theories``, the function the measured
runs use, so ``setup_s`` and ``theory.load_s`` time the same code.

Usage: python3 perfbench/setup_probe.py WORKLOAD   (from the repository root)
Prints one JSON object: {"import_s": ..., "load_s": ..., "setup_s": ...}.
"""

import json
import sys
import time

import run

sys.path.insert(0, "src")
t0 = time.perf_counter()
import regbel  # noqa: E402

t1 = time.perf_counter()
run.load_theories(regbel, sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "setup_s": t2 - t0}))
