"""repro — tractable Boolean circuits for computation, learning and
meta-reasoning.

A faithful, self-contained reproduction of the systems surveyed in
Adnan Darwiche, "Three Modern Roles for Logic in AI" (PODS 2020):

* **Role 1 — logic for computation** (:mod:`repro.logic`,
  :mod:`repro.sat`, :mod:`repro.nnf`, :mod:`repro.obdd`,
  :mod:`repro.sdd`, :mod:`repro.compile`, :mod:`repro.bayesnet`,
  :mod:`repro.wmc`, :mod:`repro.solvers`): knowledge compilation into
  tractable circuits and solving NP / PP / NP^PP / PP^PP problems on
  top of them, including Bayesian network inference by reduction to
  weighted model counting.
* **Role 2 — learning from data and knowledge** (:mod:`repro.psdd`,
  :mod:`repro.spaces`, :mod:`repro.condpsdd`): probabilistic SDDs over
  structured spaces (routes, rankings), conditional PSDDs and
  hierarchical maps.
* **Role 3 — meta-reasoning about ML systems**
  (:mod:`repro.classifiers`, :mod:`repro.explain`, :mod:`repro.robust`):
  compiling classifiers into circuits, sufficient/complete reasons,
  bias analysis, robustness and formal property verification.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["bayesnet", "classifiers", "compile", "condpsdd", "explain",
           "logic", "nnf", "obdd", "pcircuits", "psdd", "robust", "sat",
           "sdd", "solvers", "spaces", "vtree", "wmc", "__version__"]


def __getattr__(name: str) -> object:
    """Import a subpackage on first access (PEP 562), so ``import
    repro`` (and every ``repro.<x>`` import) loads only what it uses:
    the role-2/3 packages pull in networkx and numpy."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
