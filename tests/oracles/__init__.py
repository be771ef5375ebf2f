"""Ground-truth oracles the test suites compare the shipped engines
against: brute-force and second-route computations, and the seed's
walkers (``nnf_walkers``, ``obdd_walkers``, ``sdd_walkers``,
``psdd_walkers``, ``dpll``) that the IR kernel and the watched-literal
solver replaced.  Nothing under ``src/``, ``benchmarks/``, ``tools/``
or ``examples/`` may import them (``tools/lint_invariants.py``,
rule 7)."""
