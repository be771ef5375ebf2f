"""Tests for the codegen backend (:mod:`repro.ir.codegen`): levelized
evaluators agree with the interpreted kernel on every query, fall back
where unsupported, stay fresh across invalidation and EM updates, read
and write no files, and round-trip circuits through the artifact
store's binary CSR sidecars, whose decodes each store handle
remembers."""

import importlib.util
import os
import random
import shutil
import subprocess
import sys

import pytest

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.ir import CodegenUnsupported, facade, ir_kernel, nnf_to_ir
from repro.ir.codegen import resolve_backend
from repro.ir import store as store_module
from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC, IrBuilder
from repro.ir.serialize import ir_from_csr_buffer, ir_to_csr_bytes
from repro.ir.store import DECODE_MEMO_SIZE, ArtifactStore
from repro.limits import Budget, BudgetExceeded
from repro.limits.faults import corrupt_artifact
from repro.logic.cnf import Cnf

np = pytest.importorskip("numpy")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_cnf(rng, max_vars=7):
    n = rng.randint(3, max_vars)
    m = rng.randint(n, 3 * n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in vs))
    return Cnf(clauses, num_vars=n)


def random_weights(rng, variables):
    weights = {}
    for v in variables:
        weights[v] = rng.uniform(0.1, 1.0)
        weights[-v] = rng.uniform(0.1, 1.0)
    return weights


def fresh_kernel(cnf):
    """A kernel over the compiled cnf with no memoised results."""
    ir = nnf_to_ir(DnnfCompiler().compile(cnf))
    kernel = ir_kernel(ir)
    kernel.invalidate()
    return kernel


# -- agreement corpus: codegen vs interpreter --------------------------------

def assert_plan_matches_interpreter(kernel, monkeypatch, weights,
                                    weight_rows, assign, assign_rows):
    """Every query the codegen backend serves (scalar, batch, log-space)
    equals the interpreted kernel's answer on ``kernel``'s circuit."""
    with np.errstate(divide="ignore"):
        log_rows = {lit: np.log(row) for lit, row in weight_rows.items()}
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    kernel.invalidate()
    expected = {
        "count": kernel.model_count(),
        "sat": kernel.sat(),
        "wmc": kernel.wmc(weights),
        "mpe": kernel.mpe(weights),
        "evaluate": kernel.evaluate(assign),
        "wmc_batch": kernel.wmc_batch(weight_rows),
        "wmc_log_batch": kernel.wmc_log_batch(log_rows),
        "evaluate_batch": kernel.evaluate_batch(assign_rows),
    }
    kernel.invalidate()
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    assert kernel.model_count() == expected["count"]
    assert kernel.sat() == expected["sat"]
    assert kernel.wmc(weights) == pytest.approx(expected["wmc"], rel=1e-9)
    value, model = kernel.mpe(weights)
    assert value == pytest.approx(expected["mpe"][0], rel=1e-9)
    assert model == expected["mpe"][1]
    assert kernel.evaluate(assign) == expected["evaluate"]
    assert np.allclose(kernel.wmc_batch(weight_rows),
                       expected["wmc_batch"], rtol=1e-9)
    assert np.allclose(kernel.wmc_log_batch(log_rows),
                       expected["wmc_log_batch"], rtol=1e-9, atol=1e-9)
    assert list(kernel.evaluate_batch(assign_rows)) == \
        list(expected["evaluate_batch"])
    assert kernel._compiled() is not None  # the plan answered


def test_codegen_matches_interpreter_on_random_circuits(monkeypatch):
    """100 random d-DNNFs: every query the codegen backend serves
    (scalar, batch, log-space) equals the interpreted kernel."""
    rng = random.Random(2026)
    for _ in range(100):
        cnf = random_cnf(rng)
        kernel = fresh_kernel(cnf)
        variables = range(1, cnf.num_vars + 1)
        weights = random_weights(rng, variables)
        batch = 3
        weight_rows = {
            lit: np.array([rng.uniform(0.1, 1.0) for _ in range(batch)])
            for v in variables for lit in (v, -v)}
        assign = {v: rng.random() < 0.5 for v in variables}
        assign_rows = {v: np.array([rng.random() < 0.5
                                    for _ in range(batch)])
                       for v in variables}
        assert_plan_matches_interpreter(kernel, monkeypatch, weights,
                                        weight_rows, assign, assign_rows)


# -- or-gap slots -------------------------------------------------------------

#: variables of the hand-made gapped circuits
GAP_VARS = 24


def gapped_circuit(seed):
    """A hand-made circuit whose or-gates leave variables out of their
    edges, all at one level (every or-gate sits over literals and
    and-gates of literals, so at level 2):

    * gates ``or(and(1..k), -(k + 6))`` with gap sets of 1 to 5
      variables;
    * 300 random binary gates ``or(and(x, y), ±z)``: a binary class of
      600 edges, whose one- and two-variable sets recur across gates;
    * stragglers of arity 1 (an or-gate over one child mentions all of
      its variables, so it has no gap), 3 (mixing gapped and ungapped
      edges) and 4, in one mixed run after the binary class's run, so
      the edge band is rewritten between the two."""
    rng = random.Random(seed)
    b = IrBuilder()
    lit = b.literal
    gates = []
    for k in range(1, 6):
        gates.append(b.raw_or((b.raw_and(tuple(map(lit, range(1, k + 1)))),
                               lit(-(k + 6)))))
    binary = set()
    while len(binary) < 300:
        x, y, z = rng.sample(range(1, GAP_VARS + 1), 3)
        binary.add(b.raw_or((b.raw_and((lit(x), lit(-y))),
                             lit(z if rng.random() < 0.5 else -z))))
    gates.extend(sorted(binary))
    gates.append(b.raw_or((b.raw_and((lit(3), lit(4))),)))
    gates.append(b.raw_or((b.raw_and((lit(1), lit(2))),
                           b.raw_and((lit(-1), lit(-2))), lit(1))))
    gates.append(b.raw_or((lit(5), lit(-6), lit(7),
                           b.raw_and((lit(-5), lit(6), lit(-7))))))
    # the root: an or over conjunctions of eight gates each (one
    # conjunction of every gate could underflow)
    groups = [b.raw_and(tuple(gates[i:i + 8]))
              for i in range(0, len(gates), 8)]
    return ir_kernel(b.finish(b.raw_or(tuple(groups))))


def test_gapped_plan_lays_out_sets_and_a_shared_band(monkeypatch):
    """The circuit reaches what it is built to: sets of 1 to 5 gate
    variables, one set on several edges, and two edge and-steps at one
    level writing the same band slots."""
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel = gapped_circuit(1)
    kernel.invalidate()
    plan = kernel._compiled().plan
    edges = [gap for gaps in kernel.or_gap_vars for gap in gaps if gap]
    assert {1, 2, 3, 4, 5} <= {len(gap) for gap in edges}
    assert len(set(edges)) < len(edges)
    band_steps = [run for run in plan.steps if run[1].start >= kernel.n]
    assert len(band_steps) >= 2
    assert len({run[1].start for run in band_steps}) == 1
    assert max(run[1].stop for run in band_steps) == plan.size
    assert plan.size - band_steps[0][1].start < len(edges)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_codegen_matches_interpreter_on_gapped_circuits(seed,
                                                        monkeypatch):
    """Every plan pass agrees with the interpreter across gap slots and
    the shared edge band, also with a gap variable whose literals both
    weigh 0 (a zero slot) and with zero weights in the batches (``-inf``
    log weights)."""
    rng = random.Random(seed)
    kernel = gapped_circuit(seed)
    variables = range(1, GAP_VARS + 1)
    batch = 4
    weight_rows = {lit: np.array([rng.uniform(0.1, 1.0)
                                  if rng.random() > 0.1 else 0.0
                                  for _ in range(batch)])
                   for v in variables for lit in (v, -v)}
    # gap variable 8 weighs nothing in column 0
    weight_rows[8][0] = weight_rows[-8][0] = 0.0
    assign_rows = {v: np.array([rng.random() < 0.5
                                for _ in range(batch)])
                   for v in variables}
    for zero_gap in (False, True):
        weights = random_weights(rng, variables)
        if zero_gap:
            weights[8] = weights[-8] = 0.0
        assign = {v: rng.random() < 0.5 for v in variables}
        assert_plan_matches_interpreter(kernel, monkeypatch, weights,
                                        weight_rows, assign, assign_rows)


def test_gap_set_product_is_taken_before_the_edge(monkeypatch):
    """Across a two-variable gap the plan computes
    ``child * (g1 * g2)``, the interpreter ``(child * g1) * g2``: the
    gap set's slot holds the product of its variables, ascending."""
    builder = IrBuilder()
    lit = builder.literal
    # edge 0: literal 1, gap {2, 3}; edge 1: and(-1, 2, 3), no gap
    root = builder.raw_or((lit(1), builder.raw_and((lit(-1), lit(2),
                                                    lit(3)))))
    kernel = ir_kernel(builder.finish(root))
    assert kernel.or_gap_vars[kernel.n - 1] == ((2, 3), ())
    rng = random.Random(5)
    while True:
        weights = random_weights(rng, (1, 2, 3))
        child = weights[1]
        g1, g2 = weights[2] + weights[-2], weights[3] + weights[-3]
        if child * (g1 * g2) != (child * g1) * g2:
            break
    other = weights[-1] * weights[2] * weights[3]
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel.invalidate()
    assert kernel.wmc(weights) == child * (g1 * g2) + other
    rows = {lit: np.array([w, w]) for lit, w in weights.items()}
    assert list(kernel.wmc_batch(rows)) == [child * (g1 * g2) + other] * 2
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    kernel.invalidate()
    assert kernel.wmc(weights) == (child * g1) * g2 + other


def test_long_gap_sets_keep_the_ufunc_reduction(monkeypatch):
    """A set of three or more variables is filled by the semiring
    product's own ``reduceat``, as the per-edge fold was: numpy's add
    reduction adds a segment's head to the sum of its tail, so a log
    batch across the gap {2, 3, 4} reads ``g2 + (g3 + g4)``, not
    ``(g2 + g3) + g4``."""
    builder = IrBuilder()
    lit = builder.literal
    tail = builder.raw_and((lit(-1), builder.raw_and((
        lit(2), builder.raw_and((lit(3), lit(4)))))))
    kernel = ir_kernel(builder.finish(builder.raw_or((lit(1), tail))))
    assert kernel.or_gap_vars[kernel.n - 1] == ((2, 3, 4), ())
    rng = random.Random(3)
    while True:
        logs = {lit: np.log(np.array([w]))
                for lit, w in random_weights(rng, (1, 2, 3, 4)).items()}
        g2, g3, g4 = (np.logaddexp(logs[v], logs[-v]) for v in (2, 3, 4))
        if g2 + (g3 + g4) != (g2 + g3) + g4:
            break
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel.invalidate()
    assert kernel.wmc_log_batch(logs) == np.logaddexp(
        logs[1] + np.add.reduceat(np.array([g2, g3, g4]), [0])[0],
        logs[-1] + (logs[2] + (logs[3] + logs[4])))


def test_codegen_derivatives_still_interpreted(monkeypatch):
    """Marginal/derivative queries stay on the exact interpreted path
    regardless of backend (memoised bigints; see the fallback table in
    docs/architecture.md)."""
    from repro.nnf.transform import smooth
    root = smooth(DnnfCompiler().compile(Cnf([(1, 2), (-1, 3)],
                                             num_vars=3)))
    kernel = ir_kernel(nnf_to_ir(root))
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    derivs = kernel.derivatives()
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    kernel.invalidate()
    assert kernel.derivatives() == derivs


def test_derivatives_reject_non_smooth_circuits(monkeypatch):
    """The counting pass under derivatives refuses an or-gate whose
    children mention different variables, on either backend."""
    builder = IrBuilder()
    root = builder.disjoin([
        builder.conjoin([builder.literal(1), builder.literal(2)]),
        builder.literal(-1)])
    kernel = ir_kernel(builder.finish(root))
    for backend in ("codegen", "interp"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        kernel.invalidate()
        with pytest.raises(ValueError,
                           match="marginal_counts requires a smooth "
                                 "circuit"):
            kernel.derivatives()


# -- backend selection -------------------------------------------------------

def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == "codegen"
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert resolve_backend() == "interp"
    assert resolve_backend("codegen") == "codegen"  # explicit wins
    with pytest.raises(ValueError):
        resolve_backend("turbo")
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError):
        resolve_backend()


def test_backend_env_validates_on_next_query(monkeypatch):
    """``$REPRO_BACKEND`` is read per query: an unknown value fails
    the next query, and a valid one serves it."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    kernel = fresh_kernel(Cnf([(1, 2)], num_vars=2))
    weights = {1: 0.5, -1: 0.5, 2: 0.5, -2: 0.5}
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError):
        kernel.wmc(weights)
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    assert kernel.wmc(weights) == pytest.approx(0.75)
    assert kernel._codegen is not None


def test_interp_backend_never_compiles(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    kernel = fresh_kernel(Cnf([(1, 2), (-2, 3)], num_vars=3))
    assert kernel.model_count() == 4
    assert kernel._codegen is None


# -- fallback domain ---------------------------------------------------------

def test_param_circuits_fall_back_to_interpreter(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    builder = IrBuilder()
    root = builder.conjoin([builder.literal(1), builder.param()])
    kernel = ir_kernel(builder.finish(root))
    assert kernel.wmc({1: 0.5, -1: 0.5}, params=[2.0]) == \
        pytest.approx(1.0)
    # the unsupported verdict is memoised: no per-query retry
    assert kernel._codegen is not None
    assert not hasattr(kernel._codegen, "wmc")


def test_wide_count_falls_back_exactly(monkeypatch):
    """#SAT beyond 52 variables leaves float64's exact integer range,
    so the generated count refuses and the interpreter's bigint pass
    answers."""
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    n = 60
    builder = IrBuilder()
    root = builder.conjoin([
        builder.disjoin([builder.literal(v), builder.literal(-v)])
        for v in range(1, n + 1)])
    kernel = ir_kernel(builder.finish(root))
    assert kernel.model_count() == 2 ** n
    compiled = kernel._codegen
    assert hasattr(compiled, "model_count")  # compiled, then declined
    with pytest.raises(CodegenUnsupported):
        compiled.model_count()


def test_literal_free_batch_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    builder = IrBuilder()
    kernel = ir_kernel(builder.finish(builder.true()))
    rows = kernel.evaluate_batch({1: np.array([True, False])})
    assert list(rows) == [True, True]


def test_empty_batch_raises_either_backend(monkeypatch):
    kernel = fresh_kernel(Cnf([(1, 2)], num_vars=2))
    for backend in ("codegen", "interp"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        with pytest.raises(ValueError):
            kernel.wmc_batch({})


# -- freshness: invalidation and EM updates ----------------------------------

def test_invalidate_drops_compiled_evaluator(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel = fresh_kernel(Cnf([(1, 2), (-1, 3)], num_vars=3))
    count = kernel.model_count()
    assert kernel._codegen is not None
    kernel.invalidate()
    assert kernel._codegen is None
    assert kernel._model_count is None
    assert kernel.model_count() == count


def test_psdd_em_updates_never_served_stale(monkeypatch):
    """EM parameter updates on PSDDs must reach every query: the
    parameterised circuit is codegen-unsupported, and the fallback
    re-reads θ per query instead of baking it into a compilate
    (extends the PR 3 memo-staleness suite)."""
    from repro.logic import VarMap, parse, to_cnf
    from repro.psdd import learn_parameters, psdd_from_sdd
    from repro.psdd.queries import marginal
    from repro.sdd.compiler import compile_cnf_sdd
    from tests.oracles import psdd_walkers
    vm = VarMap()
    f = parse("(P | L) & (A -> P) & (K -> (A | L))", vm)
    root, _ = compile_cnf_sdd(to_cnf(f))
    psdd = psdd_from_sdd(root)
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    before = marginal(psdd, {1: True})
    data = [({1: True, 2: True, 3: True, 4: True}, 5),
            ({1: True, 2: False, 3: True, 4: False}, 3),
            ({1: False, 2: True, 3: False, 4: False}, 2)]
    learn_parameters(psdd, data)
    after = marginal(psdd, {1: True})
    assert after != pytest.approx(before)
    assert after == pytest.approx(psdd_walkers.marginal(psdd, {1: True}))


# -- no bytes become code ----------------------------------------------------

def test_queries_leave_only_the_circuit_in_the_store(tmp_path,
                                                     monkeypatch):
    """A cold compile plus every facade query kind leaves the circuit,
    its mmap twin and its certificate in the store, and nothing else:
    the evaluator is built in-process, never stored."""
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    rng = random.Random(1601)
    cnf = random_cnf(rng, max_vars=9)
    store = ArtifactStore(tmp_path / "cache")
    ticket = facade.compile_ticket(cnf.to_dimacs())
    facade.compile_to_store(ticket, store)
    weights = random_weights(rng, range(1, ticket.num_vars + 1))
    for query in ("count", "wmc", "mpe", "marginals"):
        reply = facade.query_artifact(
            store, ticket.key, query, num_vars=ticket.num_vars,
            weights=weights if query in ("wmc", "mpe") else None)
        assert reply is not None
    kernel = ir_kernel(store.load_nnf(ticket.key))
    assert kernel._codegen.stats["codegen_compiles"] == 1
    kinds = sorted({path.name.partition(".")[2]
                    for path in (tmp_path / "cache").rglob("*")
                    if path.is_file()})
    assert kinds == ["cert", "csr", "nnf"]


def test_evaluation_writes_nothing_to_the_cache_dir(tmp_path,
                                                    monkeypatch):
    """``$REPRO_CACHE_DIR`` names the compile cache; evaluating an
    in-memory circuit leaves it untouched."""
    from repro.nnf.queries import get_kernel
    from repro.nnf.queries import weighted_model_count
    cnf = random_cnf(random.Random(1602), max_vars=9)
    root = DnnfCompiler().compile(cnf)
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    variables = range(1, cnf.num_vars + 1)
    weighted_model_count(root, random_weights(random.Random(3),
                                              variables), variables)
    assert get_kernel(root)._codegen.stats["codegen_compiles"] == 1
    assert list(cache.rglob("*")) == []


class TestNoExecLint:
    """Lint rule ``no-exec``: no scanned file calls the bare builtins
    ``eval``/``exec``/``compile``; method calls stay legal."""

    @staticmethod
    def _lint():
        path = os.path.join(REPO_ROOT, "tools", "lint_invariants.py")
        spec = importlib.util.spec_from_file_location("lint_inv", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_repo_is_clean(self):
        lint = self._lint()
        violations = [v for v in lint.collect_violations(
            os.path.join(REPO_ROOT, "src", "repro"))
            if v[2] == "no-exec"]
        assert violations == []

    def test_bare_builtins_are_flagged_everywhere(self, tmp_path):
        lint = self._lint()
        package = tmp_path / "ir"
        package.mkdir()
        # the one function the rule used to exempt is no exception
        (package / "codegen.py").write_text(
            "def audited_compile(text, namespace):\n"
            "    exec(text, namespace)\n")
        (package / "evaluate.py").write_text(
            "value = eval('1 + 1')\n"
            "code = compile('x = 1', '<text>', 'exec')\n")
        (package / "fine.py").write_text(
            "import re\n"
            "def f(cnf, compiler):\n"
            "    pattern = re.compile('x')\n"
            "    return compiler.compile(cnf), pattern\n")
        violations = [v for v in lint.collect_violations(str(tmp_path))
                      if v[2] == "no-exec"]
        flagged = sorted((os.path.basename(v[0]), v[1])
                         for v in violations)
        assert flagged == [("codegen.py", 2), ("evaluate.py", 1),
                           ("evaluate.py", 2)]


# -- binary CSR sidecar ------------------------------------------------------

def test_csr_bytes_roundtrip_is_byte_stable():
    rng = random.Random(99)
    for _ in range(25):
        ir = nnf_to_ir(DnnfCompiler().compile(random_cnf(rng)))
        text_hash = "ab" * 32
        blob = ir_to_csr_bytes(ir, text_hash)
        decoded, decoded_hash = ir_from_csr_buffer(blob)
        assert decoded_hash == text_hash
        assert decoded.digest() == ir.digest()
        assert ir_to_csr_bytes(decoded, decoded_hash) == blob


def test_csr_decode_rejects_corruption():
    ir = nnf_to_ir(DnnfCompiler().compile(Cnf([(1, 2)], num_vars=2)))
    blob = ir_to_csr_bytes(ir, "cd" * 32)
    for bad in (blob[:10], b"", b"XXXX" + blob[4:],
                blob[:-1] + bytes([blob[-1] ^ 1])):
        with pytest.raises(ValueError):
            ir_from_csr_buffer(bad)


def test_mmap_load_equals_text_load(tmp_path):
    ir = nnf_to_ir(DnnfCompiler().compile(
        Cnf([(1, 2, 3), (-1, 2), (-2, 3), (1, -3)], num_vars=3)))
    key = ir.digest()
    ArtifactStore(tmp_path / "cache").save_nnf(key, ir)
    mmap_store = ArtifactStore(tmp_path / "cache")
    via_mmap = mmap_store.load_nnf(key)
    assert mmap_store.stats["artifact_mmap_hits"] == 1
    os.unlink(mmap_store.path_for(key, "csr"))
    text_store = ArtifactStore(tmp_path / "cache")
    via_text = text_store.load_nnf(key)
    assert text_store.stats["artifact_mmap_hits"] == 0
    assert via_mmap is not None and via_text is not None
    assert via_mmap.digest() == via_text.digest() == key
    assert ir_kernel(via_mmap).model_count() == \
        ir_kernel(via_text).model_count()


def test_corrupt_csr_quarantined_text_still_serves(tmp_path):
    ir = nnf_to_ir(DnnfCompiler().compile(
        Cnf([(1, 2), (-1, 3)], num_vars=3)))
    key = ir.digest()
    store = ArtifactStore(tmp_path / "cache")
    store.save_nnf(key, ir)
    for mode in ("garbage", "truncate", "empty"):
        corrupt_artifact(store, key, "csr", mode)
        served = store.load_nnf(key)
        assert served is not None
        assert ir_kernel(served).model_count() == \
            ir_kernel(ir).model_count()
        quarantined = store.path_for(key, "csr").with_suffix(
            ".csr.corrupt")
        assert quarantined.exists()
        quarantined.unlink()
        store.save_nnf(key, ir)  # rewrite the sidecar for the next mode
    assert store.stats["artifact_corrupt"] == 3


def test_stale_csr_defers_to_rewritten_text(tmp_path):
    """The .nnf stays authoritative: rewriting it underneath the
    sidecar makes the mmap path step aside silently."""
    ir_a = nnf_to_ir(DnnfCompiler().compile(Cnf([(1, 2)], num_vars=2)))
    ir_b = nnf_to_ir(DnnfCompiler().compile(
        Cnf([(1, 2), (-1, 3), (2, 3)], num_vars=3)))
    store = ArtifactStore(tmp_path / "cache")
    store.save_nnf("k", ir_a)
    # rewrite the text (fresh cert) but resurrect the stale sidecar
    stale = store.path_for("k", "csr").read_bytes()
    store.save_nnf("k", ir_b)
    store.path_for("k", "csr").write_bytes(stale)
    warm = ArtifactStore(tmp_path / "cache")
    served = warm.load_nnf("k")
    assert served is not None
    assert served.digest() == ir_b.digest()
    assert warm.stats["artifact_mmap_hits"] == 0


# -- the per-handle decode memo ----------------------------------------------

#: the properties the memo tests claim on every load
CLAIMED = FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC


def or_of_ands():
    """(x1 ∧ x2) ∨ (¬x1 ∧ x3): 4 models over its 3 variables; its
    ``.nnf`` text holds the line ``L -1``."""
    b = IrBuilder()
    a1 = b.raw_and((b.literal(1), b.literal(2)))
    a2 = b.raw_and((b.literal(-1), b.literal(3)))
    return b.finish(b.raw_or((a1, a2)), flags=CLAIMED)


class TestDecodeMemo:
    """A store handle remembers its ``.csr`` decodes, each bound to
    the hash of the ``.nnf`` text it was decoded from: a reload skips
    the decode, and every check a warm load makes still runs."""

    @staticmethod
    def warm(tmp_path, key="k"):
        """A fresh handle that has loaded a saved artifact once."""
        ArtifactStore(tmp_path / "cache").save_nnf(key, or_of_ands())
        store = ArtifactStore(tmp_path / "cache")
        first = store.load_nnf(key, flags=CLAIMED)
        assert first is not None
        assert store.stats["artifact_mmap_hits"] == 1
        return store, first

    def test_second_load_is_a_memo_hit(self, tmp_path, monkeypatch):
        store, first = self.warm(tmp_path)
        decodes = []

        def decode(buffer):
            decodes.append(len(buffer))
            return ir_from_csr_buffer(buffer)
        monkeypatch.setattr(store_module, "ir_from_csr_buffer", decode)
        assert store.load_nnf("k", flags=CLAIMED) is first
        assert decodes == []
        assert store.stats["artifact_memo_hits"] == 1
        assert store.stats["artifact_hits"] == 2
        assert store.stats["artifact_mmap_hits"] == 2
        assert store.stats["artifact_cert_hits"] == 2
        # a fresh handle decodes
        fresh = ArtifactStore(tmp_path / "cache")
        assert fresh.load_nnf("k", flags=CLAIMED) is first
        assert len(decodes) == 1
        assert fresh.stats["artifact_memo_hits"] == 0

    def test_one_byte_rewrite_is_certified_afresh(self, tmp_path):
        store, _ = self.warm(tmp_path)
        path = store.path_for("k", "nnf")
        # "L -1" -> "L  1" in place: the or-arms now overlap
        path.write_bytes(path.read_bytes().replace(b"L -1", b"L  1"))
        assert store.load_nnf("k", flags=CLAIMED) is None
        assert store.stats["artifact_memo_hits"] == 0
        assert store.stats["artifact_cert_fail"] == 1
        assert path.with_suffix(".nnf.corrupt").exists()

    def test_rewrite_that_keeps_the_claims_serves_the_new_text(
            self, tmp_path):
        store, first = self.warm(tmp_path)
        path = store.path_for("k", "nnf")
        # "L 2" -> "L 3": (x1 ∧ x3) ∨ (¬x1 ∧ x3), still deterministic
        path.write_bytes(path.read_bytes().replace(b"L 2", b"L 3"))
        served = store.load_nnf("k", flags=CLAIMED)
        assert served is not None and served.digest() != first.digest()
        assert ir_kernel(served).model_count() == 2
        assert store.stats["artifact_memo_hits"] == 0
        assert store.stats["artifact_verified"] == 1

    def test_deleted_cert_is_reverified_on_a_memo_hit(self, tmp_path):
        store, first = self.warm(tmp_path)
        store.path_for("k", "cert").unlink()
        assert store.load_nnf("k", flags=CLAIMED) is first
        assert store.stats["artifact_memo_hits"] == 1
        assert store.stats["artifact_verified"] == 1
        assert store.path_for("k", "cert").exists()

    def test_quarantine_refuted_is_a_miss(self, tmp_path):
        store, _ = self.warm(tmp_path)
        store.quarantine_refuted("k")
        assert store.load_nnf("k", flags=CLAIMED) is None
        assert store.stats["artifact_misses"] == 1
        # the same text restored without its sidecar or certificate is
        # served only once certification has judged it afresh
        nnf = store.path_for("k", "nnf")
        os.replace(nnf.with_suffix(".nnf.corrupt"), nnf)
        served = store.load_nnf("k", flags=CLAIMED)
        assert ir_kernel(served).model_count() == 4
        assert store.stats["artifact_verified"] == 1

    def test_falsified_claim_on_a_memo_hit_drops_the_entry(self, tmp_path):
        """A remembered decode whose claim fails re-verification goes
        with its quarantined sidecar: later loads serve the text
        path's certificate instead of re-verifying the claim."""
        b = IrBuilder()
        # (x1 ∧ x2) ∨ (x1 ∧ x3) claimed deterministic: the arms overlap
        a1 = b.raw_and((b.literal(1), b.literal(2)))
        a2 = b.raw_and((b.literal(1), b.literal(3)))
        ArtifactStore(tmp_path / "cache").save_nnf(
            "k", b.finish(b.raw_or((a1, a2)), flags=CLAIMED))
        store = ArtifactStore(tmp_path / "cache")
        # the writer's certificate covers the claim by construction
        assert store.load_nnf("k") is not None
        store.path_for("k", "cert").unlink()
        for _ in range(3):
            served = store.load_nnf("k")
            assert served is not None
            assert not served.flags & FLAG_DETERMINISTIC
        assert store.stats["artifact_cert_fail"] == 1
        assert store.stats["artifact_verified"] == 1
        assert store.stats["artifact_cert_hits"] == 3
        assert store.stats["artifact_memo_hits"] == 0

    def test_sidecar_corrupted_behind_a_filled_memo(self, tmp_path):
        store, _ = self.warm(tmp_path)
        corrupt_artifact(store, "k", "csr", "garbage")
        served = store.load_nnf("k", flags=CLAIMED)
        assert ir_kernel(served).model_count() == 4
        assert store.stats["artifact_memo_hits"] == 1
        assert store.stats["artifact_corrupt"] == 0
        # a fresh handle decodes, quarantines the sidecar, parses text
        fresh = ArtifactStore(tmp_path / "cache")
        again = fresh.load_nnf("k", flags=CLAIMED)
        assert ir_kernel(again).model_count() == 4
        assert fresh.stats["artifact_corrupt"] == 1
        assert store.path_for("k", "csr").with_suffix(
            ".csr.corrupt").exists()

    def test_least_recently_used_key_decodes_again(self, tmp_path):
        store, _ = self.warm(tmp_path, key="key0")
        for index in range(1, DECODE_MEMO_SIZE + 1):
            for ext in ("nnf", "csr", "cert"):
                shutil.copyfile(store.path_for("key0", ext),
                                store.path_for(f"key{index}", ext))
            assert store.load_nnf(f"key{index}", flags=CLAIMED)
        assert store.stats["artifact_memo_hits"] == 0
        assert store.load_nnf(f"key{DECODE_MEMO_SIZE}", flags=CLAIMED)
        assert store.stats["artifact_memo_hits"] == 1
        assert store.load_nnf("key0", flags=CLAIMED)
        assert store.stats["artifact_memo_hits"] == 1
        assert store.stats["artifact_mmap_hits"] == DECODE_MEMO_SIZE + 3

    def test_threads_sharing_a_handle(self, tmp_path):
        """The in-process serve pool (``workers=0``) shares one handle
        between threads: loads, evictions and rewrites interleave with
        no error, and every load serves the stored circuit."""
        import threading
        store, first = self.warm(tmp_path, key="key0")
        keys = [f"key{index}" for index in range(DECODE_MEMO_SIZE + 8)]
        for key in keys[1:]:
            for ext in ("nnf", "csr", "cert"):
                shutil.copyfile(store.path_for("key0", ext),
                                store.path_for(key, ext))
        digest = first.digest()
        errors, wrong = [], []

        def load(offset):
            try:
                for step in range(2 * len(keys)):
                    got = store.load_nnf(keys[(offset + step) % len(keys)],
                                         flags=CLAIMED)
                    if got is None or got.digest() != digest:
                        wrong.append(step)
            except Exception as error:
                errors.append(error)

        def rewrite():
            try:
                for _ in range(10):
                    store.save_nnf("key0", or_of_ands())
            except Exception as error:
                errors.append(error)
        threads = [threading.Thread(target=load, args=(17 * i,))
                   for i in range(4)] + [threading.Thread(target=rewrite)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert store.stats["artifact_memo_hits"] > 0


# -- resource governance through generated code ------------------------------

def test_generated_code_charges_budget(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel = fresh_kernel(Cnf([(1, 2), (-1, 3), (2, -3)], num_vars=3))
    weights = {lit: 0.5 for v in (1, 2, 3) for lit in (v, -v)}
    kernel.wmc(weights)  # compile outside the budget
    kernel.budget = Budget(max_nodes=kernel.n - 1)
    try:
        with pytest.raises(BudgetExceeded) as info:
            kernel.wmc(weights)
        assert info.value.partial.get("operation") == "kernel-pass"
    finally:
        kernel.budget = None


def test_codegen_respects_ambient_budget_scope(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    kernel = fresh_kernel(Cnf([(1, 2), (-2, 3)], num_vars=3))
    kernel.sat()  # compile untimed
    kernel.invalidate()
    with Budget(max_nodes=1).scope():
        with pytest.raises(BudgetExceeded):
            kernel.model_count()


# -- cli / subprocess surfaces ------------------------------------------------

def test_cli_backend_env_and_stats(tmp_path):
    cnf_path = tmp_path / "t.cnf"
    cnf_path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    outputs = {}
    for backend in ("codegen", "interp"):
        env["REPRO_BACKEND"] = backend
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", str(cnf_path),
             "--query", "count", "--stats"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert f"c backend {backend}" in proc.stdout
        outputs[backend] = [line for line in proc.stdout.splitlines()
                            if line.startswith("s ")]
    assert outputs["codegen"] == outputs["interp"] == ["s mc 4"]
    env.pop("REPRO_BACKEND")
    assert "codegen_compiles" in subprocess.run(
        [sys.executable, "-m", "repro", "query", str(cnf_path),
         "--query", "wmc", "--stats"],
        env=env, capture_output=True, text=True, timeout=120).stdout
