"""Ground-truth oracles the test suites compare the shipped engines
against.  Nothing under ``src/``, ``benchmarks/``, ``tools/`` or
``examples/`` may import them (``tools/lint_invariants.py``, rule 8)."""
