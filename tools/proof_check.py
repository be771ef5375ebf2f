#!/usr/bin/env python3
"""CI gate for proof-logged compilation.

Compiles a small CNF corpus — handcrafted edge cases plus randomized
3-CNFs — with ``repro compile --proof`` (the real CLI, one subprocess
per instance, exercising the store path: trace sidecar, independent
replay, digest binding, ``.cert`` memoisation) and requires every
verdict to be ``PROVED`` with exit code 0.  A single ``REFUTED``
(exit 5), ``INCOMPLETE`` (exit 3) or property violation (exit 4)
fails the job.

The corpus is compiled once per requested backend value so the job
covers both ``REPRO_BACKEND=codegen`` and ``interp`` deployments; a
second pass over a warm store additionally checks the memoised
verdict still answers ``repro check --proof`` with exit 0, and
``repro query --query count`` on the same store must print the proved
model count: the query runs on the backend's evaluator, so an
instance fails when that evaluator disagrees with the checker.

A child that fails without a verdict (a crash, a usage error) fails
its instance too.  When the first child of a backend does, ``repro``
could not run there at all (it is not importable, say): the run stops
at once, prints that child's stderr tail and exits 2 with
``environment error`` instead of failing every instance alike.

Stdlib + the installed ``repro`` package only — no test framework, so
it can run as a bare CI step.

Usage::

    python tools/proof_check.py [--random 25] [--seed 17]
        [--backends codegen,interp]
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile

#: the child exits that judge an instance: PROVED, REFUTED,
#: INCOMPLETE and a property violation
VERDICT_EXITS = (0, 5, 3, 4)

#: handcrafted shapes the checker's step grammar must close over:
#: tautologies, unsat roots, unit cascades, disjoint components,
#: cache-heavy repetition
EDGE_CASES = [
    "p cnf 3 0\n",
    "p cnf 2 1\n0\n",
    "p cnf 2 2\n1 0\n2 0\n",
    "p cnf 1 2\n1 0\n-1 0\n",
    "p cnf 3 2\n1 -1 0\n2 3 0\n",
    "p cnf 4 2\n1 2 0\n3 4 0\n",
    "p cnf 4 3\n1 2 0\n-2 3 0\n3 -4 0\n",
    "p cnf 4 4\n1 2 0\n3 4 0\n-1 3 4 0\n-2 3 4 0\n",
]


def random_corpus(count: int, seed: int) -> list:
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        num_vars = rng.randint(2, 10)
        lines = []
        clauses = rng.randint(1, 3 * num_vars)
        for _ in range(clauses):
            width = rng.randint(1, 3)
            lits = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(width)]
            lines.append(" ".join(str(l) for l in lits) + " 0")
        corpus.append(f"p cnf {num_vars} {clauses}\n"
                      + "\n".join(lines) + "\n")
    return corpus


def reported(stdout: str, prefix: str) -> "str | None":
    """The rest of the first ``prefix`` line of a child's stdout."""
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def run_cli(args: list, backend: str) -> "subprocess.CompletedProcess":
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=25,
                        help="randomized instances per backend")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--backends", default="codegen,interp",
                        help="comma-separated REPRO_BACKEND values")
    args = parser.parse_args(argv)

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    failures = 0
    for backend in backends:
        corpus = EDGE_CASES + random_corpus(args.random, args.seed)
        with tempfile.TemporaryDirectory(prefix="repro-proof-") as work:
            cache = os.path.join(work, "cache")
            for index, dimacs in enumerate(corpus):
                path = os.path.join(work, f"i{index}.cnf")
                with open(path, "w") as handle:
                    handle.write(dimacs)
                compiled = run_cli(
                    ["compile", path, "--proof", "--cache-dir", cache],
                    backend)
                if index == 0 and compiled.returncode not in VERDICT_EXITS:
                    print(compiled.stderr[-2000:])
                    print(f"proof check stopped: environment error "
                          f"(backend={backend}: the first child exited "
                          f"{compiled.returncode} without a verdict)")
                    return 2
                rechecked = run_cli(
                    ["check", path, "--proof", "--cache-dir", cache],
                    backend)
                queried = run_cli(
                    ["query", path, "--query", "count",
                     "--cache-dir", cache], backend)
                proved_mc = reported(compiled.stdout, "s PROVED mc ")
                query_mc = reported(queried.stdout, "s mc ")
                ok = compiled.returncode == 0 and \
                    rechecked.returncode == 0 and \
                    queried.returncode == 0 and \
                    proved_mc is not None and query_mc == proved_mc
                if not ok:
                    failures += 1
                    print(f"FAIL backend={backend} instance={index} "
                          f"compile_rc={compiled.returncode} "
                          f"check_rc={rechecked.returncode} "
                          f"query_rc={queried.returncode} "
                          f"proved_mc={proved_mc} query_mc={query_mc}")
                    print((compiled.stdout + compiled.stderr +
                           rechecked.stdout + rechecked.stderr +
                           queried.stdout + queried.stderr)[-2000:])
        print(f"backend={backend}: {len(corpus)} instances "
              f"compiled + proof-checked + counted")
    if failures:
        print(f"proof check FAILED: {failures} instance(s) not proved")
        return 1
    print(f"proof check clean: {len(backends)} backend(s), "
          f"zero refutations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
