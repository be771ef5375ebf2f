#!/usr/bin/env python3
"""Project-invariant lint: AST checks ruff/mypy cannot express.

Seven rules, each guarding a deliberate architectural boundary:

1. **clock-injection** — budget-governed modules (``repro.limits``,
   ``repro.sat``, ``repro.compile``, ``repro.ir``) must not call
   ``time.time()`` or import ``time.time``: wall-clock reads go
   through the injectable clock (``Budget(clock=...)``), so the
   fault harness (:mod:`repro.limits.faults`) can steer time in
   tests.  ``time.perf_counter`` is fine (pure measurement).

2. **flag-trust** — query-layer modules must not read the IR's
   self-declared property ``flags`` (``FLAG_*`` constants,
   ``.has_flag``, ``.flags``): property requirements are checked by
   the gate (:mod:`repro.analyze.gate`) against *certified* flags.
   Lowering/serialization code legitimately writes flags and is not
   in the query layer.

3. **no-exec** — no bytes become code: no scanned file may call the
   bare builtins ``eval``/``exec``/``compile``, with no exemption.
   Circuit evaluators are built in-process from the IR, so nothing
   read from a store, a request or any other file can reach the
   interpreter.  Method calls like ``re.compile(...)`` or
   ``cnf.compile(...)`` are fine — only the bare builtins are
   flagged.

4. **serve-isolation** — the serving layer (``repro/serve/``) must
   never call engine internals directly: the only sanctioned repro
   imports (module-level *or* lazy) are the service facade
   (``repro.ir.facade``), the store (``repro.ir.store``), the kernel
   (``repro.ir.kernel``), budgets (``repro.limits``), perf counters
   (``repro.perf``), and serve-internal modules.  Compilers, SAT
   engines, circuit walkers etc. change shape freely behind the
   facade; a server reaching around it would freeze them.

5. **rewrite-isolation** — only the sanctioned modules may construct
   a :class:`CircuitIR` (directly or via ``IrBuilder``): the IR core
   itself, the lowerings, the serializers, and the certified pass
   manager (``repro/ir/passes.py``), where every rewrite is
   verification-gated before it can replace a circuit (the gate's
   auto-smoothing included).  An ad-hoc ``IrBuilder`` elsewhere
   would be an unaudited circuit rewrite — exactly the class of bug
   the certification gate exists to catch.

6. **proof-isolation** — the equivalence-proof checker
   (``repro/proof/``) must stay independent of the engine it audits:
   the only sanctioned repro imports (module-level *or* lazy) are the
   proof package itself, the CNF representation (``repro.logic``) and
   budgets (``repro.limits``).  A checker that imported
   ``repro.sat`` or ``repro.compile`` could inherit the very bug
   whose absence it is supposed to certify; this rule is what makes a
   ``PROVED`` verdict worth more than the compiler's own say-so.

7. **oracle-isolation** — no scanned file may import the test package
   (``tests`` or anything under it, ``tests.oracles`` included; lazy
   imports count too).  The oracles there are ground truth for the
   test suites — brute-force and second-route computations — and
   shipped code, benchmarks, tools and examples answer on the one
   production route.

Scanned roots: ``src/repro`` (relative paths like ``ir/store.py``),
plus ``tools/``, ``benchmarks/`` and ``examples/`` under those
prefixes — so the src-keyed rules (clock-injection, flag-trust, ...)
cannot misfire on them, while the everywhere-rules (no-exec,
rewrite-isolation, oracle-isolation) do apply.  Tests are not linted.

Exit status 1 with ``file:line: rule message`` diagnostics on any
violation; 0 on a clean tree.  Stdlib only — runs anywhere.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: budget-governed packages (rule 1), relative to src/repro
CLOCK_GOVERNED = ("limits", "sat", "compile", "ir")

#: query-layer modules (rule 2), relative to src/repro
QUERY_LAYER = (
    "ir/kernel.py",
    "nnf/queries.py",
    "sdd/queries.py",
    "obdd/ops.py",
    "psdd/queries.py",
    "wmc/pipeline.py",
    "wmc/arithmetic_circuit.py",
    "wmc/encoding.py",
    "wmc/sdp.py",
)

Violation = Tuple[Path, int, str, str]  # file, line, rule, message


def check_clock_injection(path: Path, rel: str,
                          tree: ast.Module) -> Iterator[Violation]:
    if not rel.startswith(tuple(p + "/" for p in CLOCK_GOVERNED)):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr == "time" and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "time":
                yield (path, node.lineno, "clock-injection",
                       "time.time() in a budget-governed module "
                       "(inject a clock via Budget(clock=...))")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    yield (path, node.lineno, "clock-injection",
                           "importing time.time in a budget-governed "
                           "module (inject a clock instead)")


def check_flag_trust(path: Path, rel: str,
                     tree: ast.Module) -> Iterator[Violation]:
    if rel not in QUERY_LAYER:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id.startswith("FLAG_"):
            yield (path, node.lineno, "flag-trust",
                   f"query-layer reference to {node.id} (property "
                   f"requirements go through repro.analyze.gate)")
        elif isinstance(node, ast.Attribute) and \
                node.attr in ("has_flag", "flags"):
            yield (path, node.lineno, "flag-trust",
                   f"query-layer read of .{node.attr} (trusting "
                   f"declared flags; go through repro.analyze.gate)")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("FLAG_"):
                    yield (path, node.lineno, "flag-trust",
                           f"query-layer import of {alias.name}")


def check_no_exec(path: Path, rel: str,
                  tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("eval", "exec", "compile"):
            yield (path, node.lineno, "no-exec",
                   f"bare {node.func.id}() — no bytes become code; "
                   f"build evaluators in-process from the IR")


#: repro packages/modules the serving layer may import (rule 4) —
#: the facade, the store/kernel behind it, budgets, and perf
#: counters.  A prefix matches itself and any submodule.
SERVE_ALLOWED_PREFIXES = (
    "repro.serve",
    "repro.ir.facade",
    "repro.ir.store",
    "repro.ir.kernel",
    "repro.limits",
    "repro.perf",
)


def _serve_allowed(module: str) -> bool:
    if not (module == "repro" or module.startswith("repro.")):
        return True  # stdlib / third-party: not this rule's concern
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in SERVE_ALLOWED_PREFIXES)


def check_serve_isolation(path: Path, rel: str,
                          tree: ast.Module) -> Iterator[Violation]:
    parts = Path(rel).parts
    if "serve" not in parts[:-1]:
        return
    # dotted package of this file, rooted at repro (rel is relative
    # to src/repro): serve/app.py lives in package repro.serve
    package = ["repro", *parts[:-1]]
    for node in ast.walk(tree):  # lazy imports count too
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _serve_allowed(alias.name):
                    yield (path, node.lineno, "serve-isolation",
                           f"serving layer imports engine internal "
                           f"{alias.name!r} (go through repro.ir."
                           f"facade / ArtifactStore / Budget)")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - (node.level - 1)]
                module = ".".join(base + ([node.module]
                                          if node.module else []))
            else:
                module = node.module or ""
            if not (module == "repro" or module.startswith("repro.")):
                continue
            for alias in node.names:
                # `from ..ir import facade` binds repro.ir.facade:
                # judge the bound name, not just the source module,
                # so allowed submodules pass and `from repro.ir
                # import compiler_guts` cannot smuggle one through
                candidate = f"{module}.{alias.name}"
                if not (_serve_allowed(module) or
                        _serve_allowed(candidate)):
                    yield (path, node.lineno, "serve-isolation",
                           f"serving layer imports engine internal "
                           f"{candidate!r} (go through repro.ir."
                           f"facade / ArtifactStore / Budget)")


#: repro packages/modules the proof checker may import (rule 6) — the
#: proof package itself, the CNF representation, and budgets.  No
#: engine internals: independence is the checker's whole value.
PROOF_ALLOWED_PREFIXES = (
    "repro.proof",
    "repro.logic",
    "repro.limits",
)


def _proof_allowed(module: str) -> bool:
    if not (module == "repro" or module.startswith("repro.")):
        return True  # stdlib: not this rule's concern
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in PROOF_ALLOWED_PREFIXES)


def check_proof_isolation(path: Path, rel: str,
                          tree: ast.Module) -> Iterator[Violation]:
    parts = Path(rel).parts
    if not parts or parts[0] != "proof" or len(parts) < 2:
        return
    package = ["repro", *parts[:-1]]
    for node in ast.walk(tree):  # lazy imports count too
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _proof_allowed(alias.name):
                    yield (path, node.lineno, "proof-isolation",
                           f"proof checker imports engine module "
                           f"{alias.name!r} (only repro.logic / "
                           f"repro.limits keep the checker "
                           f"independent of what it audits)")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - (node.level - 1)]
                module = ".".join(base + ([node.module]
                                          if node.module else []))
            else:
                module = node.module or ""
            if not (module == "repro" or module.startswith("repro.")):
                continue
            for alias in node.names:
                candidate = f"{module}.{alias.name}"
                if not (_proof_allowed(module) or
                        _proof_allowed(candidate)):
                    yield (path, node.lineno, "proof-isolation",
                           f"proof checker imports engine module "
                           f"{candidate!r} (only repro.logic / "
                           f"repro.limits keep the checker "
                           f"independent of what it audits)")


#: modules allowed to construct CircuitIR/IrBuilder (rule 5),
#: relative to src/repro
REWRITE_ALLOWED = (
    "ir/core.py",
    "ir/lower.py",
    "ir/serialize.py",
    "ir/passes.py",
)


def check_rewrite_isolation(path: Path, rel: str,
                            tree: ast.Module) -> Iterator[Violation]:
    if rel in REWRITE_ALLOWED:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("IrBuilder", "CircuitIR"):
            yield (path, node.lineno, "rewrite-isolation",
                   f"{node.func.id}() outside the sanctioned rewrite "
                   f"modules ({', '.join(REWRITE_ALLOWED)}) — circuit "
                   f"rewrites belong in repro.ir.passes, behind the "
                   f"certification gate")


def _is_test_module(module: str) -> bool:
    return module == "tests" or module.startswith("tests.")


def check_oracle_isolation(path: Path, rel: str,
                           tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):  # lazy imports count too
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            if _is_test_module(module):
                yield (path, node.lineno, "oracle-isolation",
                       f"import of test module {module!r} (test "
                       f"oracles are ground truth for the suites, "
                       f"not a production route)")


def collect_violations(src_root: Path,
                       extra_roots: "List[Tuple[Path, str]]" = []
                       ) -> List[Violation]:
    """Lint ``src_root`` (rel paths rooted at it) plus any ``(root,
    prefix)`` extras, whose rel paths are namespaced under
    ``prefix/`` so src-keyed rules cannot match them by accident."""
    sources: List[Tuple[Path, str]] = []
    for path in sorted(Path(src_root).rglob("*.py")):
        sources.append((path, path.relative_to(src_root).as_posix()))
    for root, prefix in extra_roots:
        for path in sorted(Path(root).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            sources.append((path, f"{prefix}/{rel}"))
    violations: List[Violation] = []
    for path, rel in sources:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as error:
            violations.append((path, error.lineno or 0, "parse",
                               f"syntax error: {error.msg}"))
            continue
        violations.extend(check_clock_injection(path, rel, tree))
        violations.extend(check_flag_trust(path, rel, tree))
        violations.extend(check_no_exec(path, rel, tree))
        violations.extend(check_serve_isolation(path, rel, tree))
        violations.extend(check_rewrite_isolation(path, rel, tree))
        violations.extend(check_proof_isolation(path, rel, tree))
        violations.extend(check_oracle_isolation(path, rel, tree))
    return violations


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[1]) if len(argv) > 1 else repo / "src" / "repro"
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    extras = []
    if len(argv) <= 1:  # default layout: lint the other roots too
        for name in ("tools", "benchmarks", "examples"):
            if (repo / name).is_dir():
                extras.append((repo / name, name))
    violations = collect_violations(root, extras)
    for path, line, rule, message in violations:
        print(f"{path}:{line}: [{rule}] {message}")
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    scanned = ", ".join([str(root)] + [str(r) for r, _ in extras])
    print(f"invariant lint clean: {scanned}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
