#!/usr/bin/env python3
"""Project-invariant lint: AST checks ruff/mypy cannot express.

Seven rules, each guarding a deliberate architectural boundary:

1. **legacy-isolation** — production modules must not import any
   ``*_legacy`` name/module at module level.  The legacy baselines
   are test oracles and benchmark baselines; a function-local import
   keeps them reachable without ever putting them on a production
   import path.  ``*_legacy`` modules are exempt; tests are not
   linted (``tools/`` and ``benchmarks/`` are — see below).

2. **clock-injection** — budget-governed modules (``repro.limits``,
   ``repro.sat``, ``repro.compile``, ``repro.ir``) must not call
   ``time.time()`` or import ``time.time``: wall-clock reads go
   through the injectable clock (``Budget(clock=...)``), so the
   fault harness (:mod:`repro.limits.faults`) can steer time in
   tests.  ``time.perf_counter`` is fine (pure measurement).

3. **flag-trust** — query-layer modules must not read the IR's
   self-declared property ``flags`` (``FLAG_*`` constants,
   ``.has_flag``, ``.flags``): property requirements are checked by
   the gate (:mod:`repro.analyze.gate`) against *certified* flags.
   Lowering/serialization code legitimately writes flags and is not
   in the query layer.

4. **audited-compile** — generated-evaluator sources are artifact
   bytes and must never reach the interpreter except through the one
   sealed entry point: no production module may call the builtin
   ``eval``/``exec``/``compile`` outside ``audited_compile`` in
   ``ir/codegen.py``, which verifies the source's embedded
   self-hash before compiling it with empty builtins.  Method calls
   like ``cnf.compile(...)`` are fine — only the bare builtins are
   flagged.

5. **serve-isolation** — the serving layer (``repro/serve/``) must
   never call engine internals directly: the only sanctioned repro
   imports (module-level *or* lazy) are the service facade
   (``repro.ir.facade``), the store (``repro.ir.store``), the kernel
   (``repro.ir.kernel``), budgets (``repro.limits``), perf counters
   (``repro.perf``), and serve-internal modules.  Compilers, SAT
   engines, circuit walkers etc. change shape freely behind the
   facade; a server reaching around it would freeze them.

6. **rewrite-isolation** — only the sanctioned modules may construct
   a :class:`CircuitIR` (directly or via ``IrBuilder``): the IR core
   itself, the lowerings, the serializers, and the certified pass
   manager (``repro/ir/passes.py``), where every rewrite is
   verification-gated before it can replace a circuit.
   ``analyze/repair.py`` stays on the allowlist as the migration shim
   for the gate's auto-smoothing.  An ad-hoc ``IrBuilder`` elsewhere
   would be an unaudited circuit rewrite — exactly the class of bug
   the certification gate exists to catch.

7. **proof-isolation** — the equivalence-proof checker
   (``repro/proof/``) must stay independent of the engine it audits:
   the only sanctioned repro imports (module-level *or* lazy) are the
   proof package itself, the CNF representation (``repro.logic``) and
   budgets (``repro.limits``).  A checker that imported
   ``repro.sat`` or ``repro.compile`` could inherit the very bug
   whose absence it is supposed to certify; this rule is what makes a
   ``PROVED`` verdict worth more than the compiler's own say-so.

Scanned roots: ``src/repro`` (relative paths like ``ir/store.py``),
plus ``tools/`` and ``benchmarks/`` under those prefixes — so the
src-keyed rules (clock-injection, flag-trust, ...) cannot misfire on
them, while the everywhere-rules (audited-compile, legacy-isolation,
rewrite-isolation) do apply.  Tests are not linted.

Exit status 1 with ``file:line: rule message`` diagnostics on any
violation; 0 on a clean tree.  Stdlib only — runs anywhere.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: budget-governed packages (rule 2), relative to src/repro
CLOCK_GOVERNED = ("limits", "sat", "compile", "ir")

#: query-layer modules (rule 3), relative to src/repro
QUERY_LAYER = (
    "ir/kernel.py",
    "nnf/queries.py",
    "nnf/kernel.py",
    "sdd/queries.py",
    "obdd/ops.py",
    "psdd/queries.py",
    "wmc/pipeline.py",
    "wmc/arithmetic_circuit.py",
    "wmc/encoding.py",
    "wmc/sdp.py",
)

Violation = Tuple[Path, int, str, str]  # file, line, rule, message


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Imports outside any function body (class bodies and
    module-level ``if``/``try`` blocks still count: they execute at
    import time)."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        else:
            for child in ast.iter_child_nodes(node):
                stack.append(child)


def _is_legacy_name(name: str) -> bool:
    return "_legacy" in name


def check_legacy_isolation(path: Path, rel: str,
                           tree: ast.Module) -> Iterator[Violation]:
    if _is_legacy_name(Path(rel).stem):
        return
    for node in _module_level_imports(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _is_legacy_name(module):
                yield (path, node.lineno, "legacy-isolation",
                       f"module-level import of legacy module "
                       f"{module!r}")
                continue
            for alias in node.names:
                if _is_legacy_name(alias.name):
                    yield (path, node.lineno, "legacy-isolation",
                           f"module-level import of legacy name "
                           f"{alias.name!r}")
        else:
            for alias in node.names:
                if _is_legacy_name(alias.name):
                    yield (path, node.lineno, "legacy-isolation",
                           f"module-level import of {alias.name!r}")


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


#: the one function allowed to call compile()/exec() (rule 4)
AUDITED_COMPILE = ("ir/codegen.py", "audited_compile")


def check_audited_compile(path: Path, rel: str,
                          tree: ast.Module) -> Iterator[Violation]:
    allowed_file, allowed_func = AUDITED_COMPILE

    def scan(node: ast.AST, inside_audited: bool) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            here = inside_audited
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                here = rel == allowed_file and \
                    child.name == allowed_func
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id in ("eval", "exec", "compile") and \
                    not here:
                yield (path, child.lineno, "audited-compile",
                       f"bare {child.func.id}() outside "
                       f"{allowed_file}:{allowed_func} — generated "
                       f"sources compile only through the audited, "
                       f"integrity-checked entry point")
            yield from scan(child, here)

    yield from scan(tree, False)


#: repro packages/modules the serving layer may import (rule 5) —
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


#: repro packages/modules the proof checker may import (rule 7) — the
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


#: modules allowed to construct CircuitIR/IrBuilder (rule 6),
#: relative to src/repro
REWRITE_ALLOWED = (
    "ir/core.py",
    "ir/lower.py",
    "ir/serialize.py",
    "ir/passes.py",
    "analyze/repair.py",  # migration shim; delegates to ir/passes
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
        violations.extend(check_legacy_isolation(path, rel, tree))
        violations.extend(check_clock_injection(path, rel, tree))
        violations.extend(check_flag_trust(path, rel, tree))
        violations.extend(check_audited_compile(path, rel, tree))
        violations.extend(check_serve_isolation(path, rel, tree))
        violations.extend(check_rewrite_isolation(path, rel, tree))
        violations.extend(check_proof_isolation(path, rel, tree))
    return violations


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[1]) if len(argv) > 1 else repo / "src" / "repro"
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    extras = []
    if len(argv) <= 1:  # default layout: lint tools + benchmarks too
        for name in ("tools", "benchmarks"):
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
