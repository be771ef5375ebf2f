"""Proof-logged compilation (`repro.proof` + `repro.analyze.proofs`):

* the compiler's ``proof=True`` trace replays to ``PROVED`` on
  handcrafted edge cases and hundreds of randomized CNFs, with the
  checker's derived model count cross-checked against brute force
  (zero false refutations is the headline acceptance bar);
* the fault matrix: every ``corrupt_artifact`` / ``mutate_artifact``
  / ``mutate_trace`` mode is refuted by ``verify_stored_proof`` — a
  completeness guard fails this file the moment a new fault mode is
  added without a matching checker test;
* store sidecars: ``.proof`` round-trips, the memoised ``.cert``
  verdict demotes (never staleness-serves) when either binding
  changes, refuted artifacts are quarantined, orphan traces are
  garbage-collected;
* the ``proved`` gate mode: unproved circuits are rejected with
  :class:`ProofViolation`, verified compiles answer, and the
  certified smoothing twin inherits the proof;
* the serve and CLI surfaces: ``proof=true`` on ``POST /compile``
  yields ``proved``, and ``repro check --proof`` exits 5 on a
  tampered trace while property violations keep exit 4;
* the ``tools/proof_check.py`` CI sweep counts a refuted, incomplete,
  violating or crashed instance as failed, and stops when ``repro``
  cannot run at all.
"""

import importlib.util
import os
import random
import subprocess
import sys

import pytest

from repro.analyze import (ProofViolation, clear_proved, gate_scope,
                           ir_semantic_digest, is_proved,
                           verify_stored_proof)
from repro.cli import main
from repro.compile.dnnf_compiler import DnnfCompiler
from repro.ir import ArtifactStore, IrBuilder, ir_kernel, nnf_to_ir
from repro.ir.facade import compile_ticket, compile_to_store
from repro.limits import Budget
from repro.limits.faults import (CORRUPT_MODES, MUTATE_MODES,
                                 TRACE_MODES, corrupt_artifact,
                                 mutate_artifact, mutate_trace)
from repro.logic import Cnf
from repro.proof import (INCOMPLETE, PROOF_SCHEMA, PROVED, REFUTED,
                         check_proof, dimacs_digest, parse_header)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = "p cnf 4 3\n1 2 0\n-1 3 0\n2 -3 4 0\n"
SMALL_COUNT = 7  # by brute force

#: contains a tautological clause, so the compiled circuit carries an
#: ``O(1, -1)`` gate — the shape every mutate_artifact mode (including
#: drop-smooth) can hit
TAUT = "p cnf 3 2\n1 -1 0\n2 3 0\n"


def compile_with_trace(cnf):
    compiler = DnnfCompiler(store=None, proof=True)
    node = compiler.compile(cnf)
    assert compiler.last_proof is not None
    return node, compiler.last_proof


def random_cnf(rng):
    num_vars = rng.randint(1, 6)
    clauses = [[rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 3))]
               for _ in range(rng.randint(0, 8))]
    return Cnf(clauses, num_vars)


def proved_store_entry(root, dimacs=TAUT):
    """A store holding one freshly compiled, freshly proved key."""
    clear_proved()
    store = ArtifactStore(root)
    ticket = compile_ticket(dimacs)
    outcome = compile_to_store(ticket, store, proof=True)
    assert outcome.proved is True
    return store, ticket


# -- the emitter + checker loop ----------------------------------------------
class TestCheckerAcceptsCompiler:
    @pytest.mark.parametrize("clauses, num_vars, count", [
        ([], 3, 8),                             # no clauses: tautology
        ([[]], 2, 0),                           # empty clause: unsat
        ([[1], [2]], 2, 1),                     # units only
        ([[1], [-1]], 1, 0),                    # root conflict
        ([[1, -1]], 1, 2),                      # tautological clause
        ([[1, 2], [3, 4]], 4, 9),               # two components
        ([[1, 2], [-2, 3], [-3, 4]], 4, 5),     # chained decisions
        ([[1, 2], [-1, 2], [1, -2]], 2, 1),     # forced after split
    ])
    def test_edge_cases_prove(self, clauses, num_vars, count):
        cnf = Cnf(clauses, num_vars)
        _, trace = compile_with_trace(cnf)
        result = check_proof(cnf.to_dimacs(), trace)
        assert result.verdict == PROVED, result.reason
        assert result.model_count == count

    @pytest.mark.parametrize("backend", ["codegen", "interp"])
    def test_no_false_refutations_randomized(self, backend, monkeypatch):
        # the checker never touches the evaluation backend, but the
        # acceptance bar is explicit: zero false refutations under
        # either REPRO_BACKEND, 250 seeds each (500 total)
        monkeypatch.setenv("REPRO_BACKEND", backend)
        rng = random.Random(20260808 if backend == "codegen" else 7)
        for _ in range(250):
            cnf = random_cnf(rng)
            _, trace = compile_with_trace(cnf)
            result = check_proof(cnf.to_dimacs(), trace)
            assert result.verdict == PROVED, \
                (cnf.clauses, result.line, result.reason)
            assert result.model_count == cnf.model_count(), cnf.clauses

    def test_cache_hits_prove_via_back_references(self):
        # component caching fires on repeated sub-CNFs; the trace must
        # still close via `h` back-references
        clauses = [[1, 2], [3, 4], [-1, 3, 4], [-2, 3, 4]]
        cnf = Cnf(clauses, 4)
        _, trace = compile_with_trace(cnf)
        result = check_proof(cnf.to_dimacs(), trace)
        assert result.verdict == PROVED, result.reason
        assert result.model_count == cnf.model_count()

    def test_trace_digest_matches_stored_ir(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        trace = store.load_proof(ticket.key)
        result = check_proof(ticket.dimacs, trace)
        assert result.verdict == PROVED
        ir = store.load_nnf(ticket.key)
        assert ir_semantic_digest(ir) == result.circuit_digest


class TestTraceFormat:
    def test_header_round_trips(self):
        cnf = Cnf([[1, 2], [-1, 3]], 3)
        _, trace = compile_with_trace(cnf)
        assert trace.splitlines()[0] == PROOF_SCHEMA
        fields, steps, offset = parse_header(trace)
        assert fields["vars"] == "3"
        assert fields["clauses"] == "2"
        assert fields["dimacs"] == dimacs_digest(cnf.to_dimacs())
        assert offset == 5 and steps  # self-delimiting fixed header

    def test_wrong_dimacs_is_refuted(self):
        _, trace = compile_with_trace(Cnf([[1, 2]], 2))
        other = Cnf([[1], [2]], 2)
        result = check_proof(other.to_dimacs(), trace)
        assert result.verdict == REFUTED
        assert "DIMACS" in result.reason

    def test_malformed_trace_is_refuted_not_raised(self):
        for garbage in ("", "not a proof", "repro-proof/1\nbroken"):
            result = check_proof(SMALL, garbage)
            assert result.verdict == REFUTED

    def test_refutation_points_at_first_bad_line(self):
        cnf = Cnf([[1, 2], [-1, 3]], 3)
        _, trace = compile_with_trace(cnf)
        lines = trace.splitlines()
        del lines[6]
        result = check_proof(cnf.to_dimacs(), "\n".join(lines) + "\n")
        assert result.verdict == REFUTED
        assert result.line is not None

    def test_budget_expiry_is_incomplete(self):
        cnf = Cnf([[1, 2], [-2, 3], [-3, 4]], 4)
        _, trace = compile_with_trace(cnf)
        result = check_proof(cnf.to_dimacs(), trace,
                             budget=Budget(max_nodes=1))
        assert result.verdict == INCOMPLETE
        result = check_proof(cnf.to_dimacs(), trace, budget=Budget())
        assert result.verdict == PROVED


# -- the fault matrix ---------------------------------------------------------
def _corrupt(mode):
    def apply(store, ticket):
        corrupt_artifact(store, ticket.key, "nnf", mode=mode)
    return apply


def _mutate(mode):
    def apply(store, ticket):
        mutate_artifact(store, ticket.key, "nnf", mode=mode)
    return apply


def _tamper(mode):
    def apply(store, ticket):
        trace = store.load_proof(ticket.key)
        store.save_proof(ticket.key, mutate_trace(trace, mode))
    return apply


FAULT_APPLIERS = {
    **{mode: _corrupt(mode) for mode in CORRUPT_MODES},
    **{mode: _mutate(mode) for mode in MUTATE_MODES},
    **{mode: _tamper(mode) for mode in TRACE_MODES},
}


class TestFaultMatrix:
    def test_matrix_covers_every_fault_mode(self):
        # adding a fault mode to repro.limits.faults without a row
        # here must fail CI
        assert set(FAULT_APPLIERS) == \
            set(CORRUPT_MODES) | set(MUTATE_MODES) | set(TRACE_MODES)

    @pytest.mark.parametrize("mode", sorted(FAULT_APPLIERS))
    def test_every_fault_is_refuted_and_quarantined(self, mode, tmp_path):
        store, ticket = proved_store_entry(tmp_path)
        FAULT_APPLIERS[mode](store, ticket)
        clear_proved()
        result = verify_stored_proof(store, ticket.key, ticket.dimacs)
        assert result.verdict == REFUTED, \
            f"{mode} slid through: {result.reason}"
        # a refuted proof quarantines the artifact: the key no longer
        # serves, and the memoised verdict is gone with it
        assert store.load_nnf(ticket.key) is None
        assert store.proof_status(ticket.key) != PROVED

    @pytest.mark.parametrize("index", range(4))
    def test_trace_mutations_at_deeper_steps(self, index, tmp_path):
        store, ticket = proved_store_entry(
            tmp_path, "p cnf 4 3\n1 2 0\n-2 3 0\n3 -4 0\n")
        trace = store.load_proof(ticket.key)
        store.save_proof(ticket.key,
                         mutate_trace(trace, "drop-step", index=index))
        clear_proved()
        result = verify_stored_proof(store, ticket.key, ticket.dimacs)
        assert result.verdict == REFUTED

    def test_mutate_trace_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            mutate_trace("repro-proof/1\n", mode="nonsense")


# -- store sidecars -----------------------------------------------------------
class TestStoreSidecars:
    def test_proof_round_trip_and_memoisation(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        assert store.load_proof(ticket.key).startswith(PROOF_SCHEMA)
        assert store.proof_status(ticket.key) == PROVED
        clear_proved()
        result = verify_stored_proof(store, ticket.key, ticket.dimacs)
        assert result.verdict == PROVED
        assert result.reason == "memoised .cert verdict"
        assert result.steps == 0  # no replay on the warm path

    def test_warm_compile_serves_proved_without_recheck(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        clear_proved()
        outcome = compile_to_store(ticket, store, proof=True)
        assert outcome.cached is True
        assert outcome.proved is True

    def test_verdict_demotes_when_trace_changes(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        path = store.path_for(ticket.key, "proof")
        path.write_text(path.read_text() + "x 9\n")
        assert store.proof_status(ticket.key) is None

    def test_verdict_demotes_when_artifact_changes(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path)
        mutate_artifact(store, ticket.key, "nnf", mode="flip-literal")
        assert store.proof_status(ticket.key) is None

    def test_missing_sidecar_is_refuted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ticket = compile_ticket(SMALL)
        compile_to_store(ticket, store)  # no proof requested
        result = verify_stored_proof(store, ticket.key, ticket.dimacs)
        assert result.verdict == REFUTED
        assert "no .proof sidecar" in result.reason

    def test_gc_reaps_orphan_traces(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        store.path_for(ticket.key, "nnf").unlink()
        store.path_for(ticket.key, "csr").unlink()
        store.path_for(ticket.key, "cert").unlink()
        report = store.gc(now=0.0)
        assert report["by_class"]["orphan_proof"]["files"] == 1
        assert not store.path_for(ticket.key, "proof").exists()

    def test_unproof_compile_leaves_no_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ticket = compile_ticket(SMALL)
        outcome = compile_to_store(ticket, store)
        assert outcome.proved is None
        assert store.load_proof(ticket.key) is None


# -- the proved gate mode -----------------------------------------------------
def nonsmooth_ddnnf():
    """(x1 ∧ x2) ∨ ¬x1 — decomposable, deterministic, NOT smooth."""
    b = IrBuilder()
    a = b.raw_and((b.literal(1), b.literal(2)))
    return b.finish(b.raw_or((a, b.literal(-1))))


class TestProvedGate:
    def test_unproved_circuit_is_rejected(self):
        clear_proved()
        kernel = ir_kernel(nonsmooth_ddnnf())
        with gate_scope("proved"):
            with pytest.raises(ProofViolation) as exc:
                kernel.model_count()
        assert exc.value.query == "count"
        # scope restored: trust mode answers again
        assert kernel.model_count() == 3

    def test_verified_compile_answers_under_proved(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        ir = store.load_nnf(ticket.key)
        assert is_proved(ir)
        with gate_scope("proved"):
            # fresh Decision-DNNF output is non-smooth: the proved
            # gate must repair via the certified twin, which inherits
            # the proof (certified smoothing preserves equivalence)
            assert ir_kernel(ir).model_count() == SMALL_COUNT

    def test_registry_is_process_state(self, tmp_path):
        store, ticket = proved_store_entry(tmp_path, SMALL)
        ir = store.load_nnf(ticket.key)
        clear_proved()
        assert not is_proved(ir)
        with gate_scope("proved"):
            with pytest.raises(ProofViolation):
                ir_kernel(ir).model_count()
        verify_stored_proof(store, ticket.key, ticket.dimacs)
        with gate_scope("proved"):
            assert ir_kernel(ir).model_count() == SMALL_COUNT

    def test_digest_rejects_parameterised_circuits(self):
        from repro.nnf.node import NnfManager
        manager = NnfManager()
        ir = nnf_to_ir(manager.conjoin(manager.literal(1),
                                       manager.literal(2)))
        assert ir_semantic_digest(ir)  # plain circuits digest fine


# -- the serve surface --------------------------------------------------------
class TestServeProof:
    @pytest.fixture()
    def client(self):
        from repro.serve.app import Server, ServerConfig
        from repro.serve.client import ServeClient
        instance = Server(ServerConfig(port=0, workers=0))
        instance.start()
        handle = ServeClient(*instance.address)
        yield handle
        handle.close()
        instance.stop()

    def test_compile_with_proof_reports_proved(self, client):
        status, body = client.compile(SMALL, proof=True)
        assert status == 200 and body["status"] == "ok"
        assert body["proved"] is True
        # warm hit: the memoised verdict still reports proved
        status, body = client.compile(SMALL, proof=True)
        assert status == 200 and body["cached"] and body["proved"]

    def test_compile_without_proof_omits_the_field(self, client):
        status, body = client.compile("p cnf 2 1\n1 2 0\n")
        assert status == 200 and body["status"] == "ok"
        assert "proved" not in body


# -- the CLI ------------------------------------------------------------------
class TestCliProof:
    def test_compile_proof_exits_zero_and_prints_verdict(
            self, tmp_path, capsys):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(SMALL)
        cache = str(tmp_path / "cache")
        assert main(["compile", str(cnf_path), "--proof",
                     "--cache-dir", cache,
                     "-o", str(tmp_path / "out.nnf")]) == 0
        out = capsys.readouterr().out
        assert f"s PROVED mc {SMALL_COUNT}" in out

    def test_check_proof_uses_the_store(self, tmp_path, capsys):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(SMALL)
        cache = str(tmp_path / "cache")
        assert main(["compile", str(cnf_path), "--proof",
                     "--cache-dir", cache]) == 0
        assert main(["check", str(cnf_path), "--proof",
                     "--cache-dir", cache]) == 0
        assert "s PROVED" in capsys.readouterr().out

    def test_check_proof_without_trace_source_is_usage_error(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(SMALL)
        assert main(["check", str(cnf_path), "--proof"]) == 2

    def test_proof_refuses_multi_shot_modes(self, tmp_path):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(SMALL)
        assert main(["compile", str(cnf_path), "--proof",
                     "--format", "sdd"]) == 2

    def test_exit_5_refuted_proof_subprocess(self, tmp_path):
        cnf = Cnf([[1, 2], [-2, 3], [3, -4]], 4)
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(cnf.to_dimacs())
        _, trace = compile_with_trace(cnf)
        tampered = tmp_path / "bad.proof"
        tampered.write_text(mutate_trace(trace, "drop-step", index=1))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(cnf_path),
             "--proof", "--trace", str(tampered)],
            capture_output=True, text=True)
        assert proc.returncode == 5, proc.stderr
        assert "s REFUTED" in proc.stdout

    def test_exit_4_property_violation_subprocess(self, tmp_path):
        # a deterministic, decomposable, NOT smooth circuit: the O arm
        # ¬x1 never mentions x2
        nnf_path = tmp_path / "nonsmooth.nnf"
        nnf_path.write_text(
            "nnf 5 5 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(nnf_path),
             "--expect", "smooth"],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr

    def test_intact_trace_exits_zero_subprocess(self, tmp_path):
        cnf = Cnf([[1, 2]], 2)
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(cnf.to_dimacs())
        _, trace = compile_with_trace(cnf)
        trace_path = tmp_path / "good.proof"
        trace_path.write_text(trace)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(cnf_path),
             "--proof", "--trace", str(trace_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "s PROVED" in proc.stdout


class TestProofCheckTool:
    """``tools/proof_check.py`` counts an instance whose child exits
    REFUTED (5), INCOMPLETE (3), with a property violation (4) or
    with no verdict at all, or whose queried count differs from the
    proved one, as failed and goes on; a backend whose first child
    fails without a verdict is an environment error that stops the
    sweep."""

    @staticmethod
    def tool(monkeypatch, exit_code, query_mc=lambda n: 1):
        """The tool with ``run_cli`` stubbed: call ``n`` (from 1) on
        ``backend`` exits ``exit_code(n, backend)``; ``compile`` and
        ``check`` print ``s PROVED mc 1`` and ``query`` prints ``s mc
        query_mc(n)`` (nothing when that is None).  Returns the module
        and the list of stubbed calls."""
        path = os.path.join(REPO_ROOT, "tools", "proof_check.py")
        spec = importlib.util.spec_from_file_location("proof_check", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        calls = []

        def run_cli(args, backend):
            calls.append((backend, args[0]))
            n = len(calls)
            stdout = "s PROVED mc 1\n"
            if args[0] == "query":
                mc = query_mc(n)
                stdout = "" if mc is None else f"s mc {mc}\n"
            return subprocess.CompletedProcess(
                [sys.executable, "-m", "repro", *args],
                exit_code(n, backend), stdout=stdout,
                stderr=f"stderr of call {n}")
        monkeypatch.setattr(module, "run_cli", run_cli)
        return module, calls

    @pytest.mark.parametrize("broken", ["codegen", "interp"])
    @pytest.mark.parametrize("code", [1, 2])
    def test_backend_that_cannot_run_stops_the_sweep(
            self, monkeypatch, capsys, broken, code):
        """Every child on ``broken`` fails without a verdict (as when
        ``repro`` is not importable there): its first child stops the
        run."""
        module, calls = self.tool(
            monkeypatch, lambda n, backend: code if backend == broken
            else 0)
        assert module.main(["--random", "0"]) == 2
        assert calls.index((broken, "compile")) == len(calls) - 1
        out = capsys.readouterr().out
        assert f"stderr of call {len(calls)}" in out
        assert "environment error" in out
        assert "FAILED" not in out

    @pytest.mark.parametrize("failing_call", [2, 3, 4])
    @pytest.mark.parametrize("code", [5, 3, 4, 1])
    def test_instance_failure_is_counted(self, monkeypatch, capsys,
                                         failing_call, code):
        """Calls 2, 3 and 4 are instance 0's check and query and
        instance 1's compile: past the first child, a failure with or
        without a verdict fails its instance and the sweep goes on."""
        module, calls = self.tool(
            monkeypatch, lambda n, backend: code if n == failing_call
            else 0)
        assert module.main(["--random", "0", "--backends", "codegen"]) == 1
        assert len(calls) == 3 * len(module.EDGE_CASES)
        out = capsys.readouterr().out
        assert f"stderr of call {failing_call}" in out
        assert "proof check FAILED: 1 instance(s) not proved" in out
        assert "environment error" not in out

    def test_every_instance_is_counted_on_its_backend(self, monkeypatch,
                                                      capsys):
        """Each instance runs compile, check, then a count query, on
        every backend; agreeing counts pass."""
        module, calls = self.tool(monkeypatch, lambda n, backend: 0)
        assert module.main(["--random", "0"]) == 0
        cases = len(module.EDGE_CASES)
        assert calls == [(backend, child)
                         for backend in ("codegen", "interp")
                         for _ in range(cases)
                         for child in ("compile", "check", "query")]
        assert "proof check clean" in capsys.readouterr().out

    @pytest.mark.parametrize("query_mc", [2, 0, None])
    def test_query_count_that_disagrees_fails_the_instance(
            self, monkeypatch, capsys, query_mc):
        """The fourth instance's count query exits 0 but prints a
        count other than the proved one (or none): that instance fails,
        the others pass."""
        module, _ = self.tool(
            monkeypatch, lambda n, backend: 0,
            query_mc=lambda n: query_mc if n == 12 else 1)
        assert module.main(["--random", "0", "--backends", "interp"]) == 1
        out = capsys.readouterr().out
        assert "FAIL backend=interp instance=3 " in out
        assert "proof check FAILED: 1 instance(s) not proved" in out
