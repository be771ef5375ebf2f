"""Tests for the resource-governance layer (:mod:`repro.limits`):
budgets, anytime bounds, the restart driver, fault injection, and the
crash-proof artifact cache."""

import glob
import random

import pytest

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.limits import (Budget, BudgetExceeded,
                          FakeClock, SkewedClock, anytime_count,
                          anytime_wmc, compile_with_restarts,
                          corrupt_artifact, failing_budget,
                          resolve_budget)
from repro.limits.faults import CORRUPT_MODES
from repro.logic.cnf import Cnf
from repro.nnf import queries
from repro.sat.counter import ModelCounter


def random_3cnf(n, m, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v * rng.choice([1, -1]) for v in vs))
    return Cnf(clauses, num_vars=n)


class SteppingClock:
    """A clock that advances a fixed step on every read."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# -- Budget --------------------------------------------------------------------
class TestBudget:
    def test_caps_must_be_positive(self):
        for kwargs in ({"deadline_s": 0}, {"max_nodes": -1},
                       {"max_depth": 0}, {"max_cache_entries": 0},
                       {"alloc_fail_at": 0}):
            with pytest.raises(ValueError):
                Budget(**kwargs)

    def test_lazy_start(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock)
        assert not budget.started
        clock.advance(100.0)  # time queued before the first charge
        assert budget.charge() is None  # arms here, not at __init__
        clock.advance(0.5)
        assert budget.charge() is None
        clock.advance(1.0)
        assert budget.charge() == "deadline"

    def test_node_budget_and_sticky_reason(self):
        budget = Budget(max_nodes=3)
        assert [budget.charge() for _ in range(3)] == [None] * 3
        assert budget.charge() == "nodes"
        # sticky: stays exhausted even without further overdraft
        assert budget.charge(0) == "nodes"
        assert budget.expired() == "nodes"

    def test_tick_raises_with_partial(self):
        budget = Budget(max_nodes=1)
        budget.tick()
        with pytest.raises(BudgetExceeded) as info:
            budget.tick(partial={"where": "here"})
        assert info.value.reason == "nodes"
        assert info.value.partial["where"] == "here"
        assert info.value.budget is budget
        assert "node budget 1" in str(info.value)

    def test_cache_cap(self):
        budget = Budget(max_cache_entries=2)
        budget.charge_cache()
        budget.charge_cache()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_cache()
        assert info.value.reason == "cache"

    def test_depth_cap(self):
        budget = Budget(max_depth=2)
        budget.enter()
        budget.enter()
        with pytest.raises(BudgetExceeded) as info:
            budget.enter()
        assert info.value.reason == "recursion"
        budget.leave()
        assert budget.depth == 2

    def test_start_rearms(self):
        budget = Budget(max_nodes=1)
        budget.charge()
        assert budget.charge() == "nodes"
        budget.start()
        assert budget.charge() is None

    def test_remaining_and_elapsed(self):
        clock = FakeClock()
        budget = Budget(deadline_s=5.0, clock=clock)
        assert budget.elapsed() == 0.0
        budget.charge()
        clock.advance(2.0)
        assert budget.elapsed() == pytest.approx(2.0)
        assert budget.remaining() == pytest.approx(3.0)
        assert Budget(max_nodes=5).remaining() is None

    def test_as_dict_and_repr(self):
        budget = Budget(max_nodes=10)
        budget.charge(4)
        snapshot = budget.as_dict()
        assert snapshot["max_nodes"] == 10 and snapshot["nodes"] == 4
        assert snapshot["expired"] is None
        assert "max_nodes=10" in repr(budget)

    def test_ambient_scope_nesting(self):
        assert Budget.ambient() is None
        outer, inner = Budget(max_nodes=100), Budget(max_nodes=5)
        with outer.scope():
            assert Budget.ambient() is outer
            with inner.scope():
                assert Budget.ambient() is inner  # innermost wins
            assert Budget.ambient() is outer
        assert Budget.ambient() is None

    def test_resolve_budget_explicit_wins(self):
        ambient, explicit = Budget(), Budget()
        with ambient.scope():
            assert resolve_budget(None) is ambient
            assert resolve_budget(explicit) is explicit
        assert resolve_budget(None) is None


# -- budgets threaded through the engines --------------------------------------
class TestEngineBudgets:
    CNF = random_3cnf(20, 55, 7)

    def test_model_counter_node_budget(self):
        with pytest.raises(BudgetExceeded) as info:
            ModelCounter(budget=Budget(max_nodes=3)).count(self.CNF)
        assert info.value.reason == "nodes"
        assert info.value.partial["operation"] == "count"
        assert info.value.partial["decisions"] >= 0

    def test_model_counter_deadline_mid_count(self):
        budget = Budget(deadline_s=1.0, clock=SteppingClock(0.3))
        with pytest.raises(BudgetExceeded) as info:
            ModelCounter(budget=budget).count(self.CNF)
        assert info.value.reason == "deadline"

    def test_compiler_node_budget(self):
        with pytest.raises(BudgetExceeded) as info:
            DnnfCompiler(budget=Budget(max_nodes=3)).compile(self.CNF)
        assert info.value.reason == "nodes"
        assert info.value.partial["operation"] == "compile"

    def test_solver_budget(self):
        from repro.sat.dpll import solve
        with pytest.raises(BudgetExceeded) as info:
            solve(self.CNF, budget=Budget(max_nodes=1))
        assert info.value.partial["operation"] == "solve"

    def test_sdd_apply_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        from repro.sdd.compiler import compile_cnf_sdd
        with pytest.raises(BudgetExceeded) as info:
            compile_cnf_sdd(self.CNF, budget=Budget(max_nodes=5))
        assert info.value.partial["operation"] == "sdd-apply"

    def test_kernel_budget_via_ambient_scope(self):
        root = DnnfCompiler().compile(self.CNF)
        with pytest.raises(BudgetExceeded) as info:
            with Budget(max_nodes=1).scope():
                queries.model_count(root, range(1, 21))
        assert info.value.partial["operation"] == "kernel-pass"

    def test_ambient_scope_governs_compile(self):
        with pytest.raises(BudgetExceeded):
            with Budget(max_nodes=3).scope():
                DnnfCompiler().compile(self.CNF)
        # and the same compile succeeds outside the scope
        assert DnnfCompiler().compile(self.CNF) is not None

    def test_shared_budget_pools_across_engines(self):
        budget = Budget(max_nodes=10_000)
        ModelCounter(budget=budget).count(self.CNF)
        after_count = budget.nodes
        assert after_count > 0
        DnnfCompiler(budget=budget).compile(self.CNF)
        assert budget.nodes > after_count  # one shared pool


# -- anytime bounds ------------------------------------------------------------
class TestAnytime:
    def test_bounds_bracket_exact_on_many_cnfs(self):
        """The acceptance criterion: for ~100 random CNFs and every
        budget, lower <= exact <= upper; unbudgeted runs are exact."""
        counter = ModelCounter()
        for seed in range(100):
            cnf = random_3cnf(12, 30, seed)
            exact = counter.count(cnf)
            full = anytime_count(cnf)
            assert full.exact and full.lower == exact, seed
            assert full.reason is None
            for cap in (1, 5, 25):
                result = anytime_count(cnf, Budget(max_nodes=cap))
                assert result.lower <= exact <= result.upper, \
                    (seed, cap, result)

    def test_exhaustion_reports_reason(self):
        cnf = random_3cnf(20, 50, 3)
        result = anytime_count(cnf, Budget(max_nodes=2))
        assert result.reason == "nodes"
        assert not result.exact
        assert result.width > 0

    def test_unsat_is_exact_zero(self):
        cnf = Cnf([(1,), (-1,)], num_vars=1)
        result = anytime_count(cnf, Budget(max_nodes=1))
        assert (result.lower, result.upper) == (0, 0)

    def test_weighted_bounds_bracket_exact(self):
        from repro.nnf.queries import weighted_model_count
        rng = random.Random(5)
        for seed in range(10):
            cnf = random_3cnf(10, 24, seed)
            weights = {}
            for v in range(1, 11):
                p = rng.random()
                weights[v], weights[-v] = p, 1.0 - p
            root = DnnfCompiler().compile(cnf)
            exact = weighted_model_count(root, weights, range(1, 11))
            full = anytime_wmc(cnf, weights)
            assert full.lower == pytest.approx(exact)
            bounded = anytime_wmc(cnf, weights, Budget(max_nodes=3))
            assert bounded.lower <= exact + 1e-9
            assert exact <= bounded.upper + 1e-9

    def test_negative_weights_rejected(self):
        cnf = Cnf([(1, 2)], num_vars=2)
        weights = {1: 0.5, -1: -0.5, 2: 1.0, -2: 1.0}
        with pytest.raises(ValueError, match="non-negative"):
            anytime_wmc(cnf, weights)

    def test_result_as_dict(self):
        result = anytime_count(Cnf([(1,)], num_vars=1))
        snapshot = result.as_dict()
        assert snapshot["exact"] is True
        assert snapshot["lower"] == snapshot["upper"] == "1"

    def test_one_node_per_decision(self):
        """The exact counter and the anytime bounds charge alike: one
        node per decision, cache hits free — so a budget of exactly the
        counter's decisions leaves the anytime count exact."""
        for seed in range(40):
            cnf = random_3cnf(20, 55, seed)
            counter = ModelCounter()
            exact = counter.count(cnf)
            result = anytime_count(cnf, Budget(max_nodes=counter.decisions))
            assert result.reason is None, seed
            assert result.lower == result.upper == exact, seed
            assert result.decisions == counter.decisions, seed

    def test_cache_cap_degrades_without_raising(self):
        for seed in range(10):
            cnf = random_3cnf(20, 55, seed)
            exact = ModelCounter().count(cnf)
            result = anytime_count(cnf, Budget(max_cache_entries=1))
            assert result.lower <= exact <= result.upper, seed

    def test_ambient_budget_governs_anytime(self):
        cnf = random_3cnf(20, 50, 3)
        with Budget(max_nodes=2).scope():
            result = anytime_count(cnf)
        assert result.reason == "nodes"


# -- fault injection -----------------------------------------------------------
class TestFaults:
    def test_fake_clock_rejects_rewind(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_skewed_clock_rate_validation(self):
        with pytest.raises(ValueError):
            SkewedClock(rate=0)

    def test_skewed_clock_jump_trips_deadline(self):
        clock = SkewedClock(base=FakeClock())
        budget = Budget(deadline_s=10.0, clock=clock)
        assert budget.charge() is None
        clock.jump(20.0)  # NTP-style correction mid-operation
        assert budget.charge() == "deadline"

    def test_skewed_rate_makes_deadlines_early(self):
        base = FakeClock()
        budget = Budget(deadline_s=10.0,
                        clock=SkewedClock(rate=3.0, base=base))
        budget.charge()
        base.advance(4.0)  # only 4 real seconds, 12 skewed ones
        assert budget.charge() == "deadline"

    def test_allocation_failure_raises_in_exact_engine(self):
        cnf = random_3cnf(20, 50, 3)
        with pytest.raises(BudgetExceeded) as info:
            ModelCounter(budget=failing_budget(3)).count(cnf)
        assert info.value.reason == "allocation"

    def test_allocation_failure_degrades_anytime(self):
        """An injected fault must never crash a query: the anytime
        path turns it into sound bounds."""
        cnf = random_3cnf(12, 30, 3)
        exact = ModelCounter().count(cnf)
        result = anytime_count(cnf, failing_budget(2))
        assert result.reason == "allocation"
        assert result.lower <= exact <= result.upper

    def test_clock_skew_degrades_anytime(self):
        cnf = random_3cnf(12, 30, 4)
        exact = ModelCounter().count(cnf)
        clock = SkewedClock(base=FakeClock())
        budget = Budget(deadline_s=5.0, clock=clock)
        budget.charge()  # arm, then the clock jumps past the deadline
        clock.jump(100.0)
        result = anytime_count(cnf, budget)
        assert result.reason == "deadline"
        assert result.lower <= exact <= result.upper

    def test_unknown_corruption_mode(self, tmp_path):
        from repro.ir.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_artifact(store, "00" * 32, "nnf", mode="nonsense")

    def test_corrupting_missing_artifact(self, tmp_path):
        from repro.ir.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            corrupt_artifact(store, "00" * 32, "nnf")


# -- the crash-proof cache -----------------------------------------------------
def _stored_keys(root, ext):
    return [path.rsplit("/", 1)[-1][:-len(ext) - 1]
            for path in glob.glob(f"{root}/*/*.{ext}")]


class TestCacheRobustness:
    CNF = random_3cnf(15, 35, 2)

    @pytest.mark.parametrize("mode", CORRUPT_MODES)
    def test_corrupted_nnf_recompiles(self, tmp_path, mode):
        """Every corruption mode on the .nnf load path: quarantined,
        counted, recompiled — never an exception to the caller."""
        from repro.ir.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        baseline = queries.model_count(
            DnnfCompiler(store=None).compile(self.CNF), range(1, 16))
        DnnfCompiler(store=store).compile(self.CNF)
        (key,) = _stored_keys(tmp_path, "nnf")
        corrupted = corrupt_artifact(store, key, "nnf", mode=mode)
        root = DnnfCompiler(store=store).compile(self.CNF)
        assert queries.model_count(root, range(1, 16)) == baseline
        assert store.stats["artifact_corrupt"] == 1
        assert corrupted.with_suffix(".nnf.corrupt").exists()
        # the recompile rewrote a clean artifact: next load is a hit
        assert store.load_nnf(key) is not None

    @pytest.mark.parametrize("ext", ["sdd", "vtree"])
    def test_corrupted_sdd_pair_recompiles(self, tmp_path, ext):
        """Corrupting either half of the .sdd/.vtree pair quarantines
        both and recompiles."""
        from repro.ir.store import ArtifactStore
        from repro.sdd.compiler import compile_cnf_sdd
        from repro.sdd.queries import model_count as sdd_count
        store = ArtifactStore(tmp_path)
        root, _ = compile_cnf_sdd(self.CNF, store=store)
        baseline = sdd_count(root)
        (key,) = _stored_keys(tmp_path, "sdd")
        corrupt_artifact(store, key, ext, mode="garbage")
        again, _ = compile_cnf_sdd(self.CNF, store=store)
        assert sdd_count(again) == baseline
        assert store.stats["artifact_corrupt"] == 1
        assert store.load_sdd(key) is not None

    def test_load_nnf_direct_quarantine(self, tmp_path):
        from repro.ir.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        path = store.path_for("ab" * 32, "nnf")
        path.parent.mkdir(parents=True)
        path.write_text("nnf not really\n")
        assert store.load_nnf("ab" * 32) is None
        assert not path.exists()  # moved aside, not deleted
        assert path.with_suffix(".nnf.corrupt").exists()
        assert store.stats["artifact_corrupt"] == 1
        assert store.stats["artifact_misses"] == 1

    def test_kill_then_rerun_warm_cache_equality(self, tmp_path):
        """A compile killed mid-run (budget as the kill signal) leaves
        no partial artifact; the rerun compiles clean, and a third run
        is served warm with the same circuit."""
        from repro.ir.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        cnf = random_3cnf(20, 50, 9)
        baseline = queries.model_count(
            DnnfCompiler(store=None).compile(cnf), range(1, 21))
        with pytest.raises(BudgetExceeded):
            DnnfCompiler(store=store,
                         budget=Budget(max_nodes=5)).compile(cnf)
        assert _stored_keys(tmp_path, "nnf") == []  # nothing partial
        rerun = DnnfCompiler(store=store)
        assert queries.model_count(rerun.compile(cnf),
                                   range(1, 21)) == baseline
        warm = DnnfCompiler(store=store)
        assert queries.model_count(warm.compile(cnf),
                                   range(1, 21)) == baseline
        assert warm.stats["artifact_cache_hits"] == 1


# -- the restart driver --------------------------------------------------------
class TestRestarts:
    CNF = random_3cnf(20, 50, 3)

    def test_recovers_after_failed_attempts(self):
        single = DnnfCompiler(store=None)
        root = single.compile(self.CNF)
        exact = queries.model_count(root, range(1, 21))
        cap = max(2, single.decisions // 2)
        result = compile_with_restarts(self.CNF, max_nodes=cap,
                                       attempts=10, seed=1)
        assert result.winner > 0
        assert result.attempts[0]["outcome"].startswith("budget:")
        assert result.attempts[0]["strategy"] == "default-heuristic"
        assert result.attempts[-1]["outcome"] == "ok"
        assert queries.model_count(result.root, range(1, 21)) == exact

    def test_first_success_wins_by_default(self):
        result = compile_with_restarts(self.CNF, attempts=4)
        assert result.winner == 0
        assert len(result.attempts) == 1  # unbudgeted attempt 0 wins

    def test_keep_smallest_runs_every_attempt(self):
        result = compile_with_restarts(self.CNF, attempts=3,
                                       keep_smallest=True)
        assert len(result.attempts) == 3
        sizes = [r["size"] for r in result.attempts]
        assert result.size == min(sizes)
        assert result.attempts[result.winner]["size"] == result.size

    def test_total_failure_reraises_with_attempts(self):
        with pytest.raises(BudgetExceeded) as info:
            compile_with_restarts(self.CNF, max_nodes=1, attempts=3,
                                  backoff=1.0)
        assert len(info.value.partial["attempts"]) == 3
        assert all(r["outcome"].startswith("budget:")
                   for r in info.value.partial["attempts"])

    def test_sdd_format(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        from repro.sdd.queries import model_count as sdd_count
        cnf = random_3cnf(10, 24, 6)
        exact = ModelCounter().count(cnf)
        result = compile_with_restarts(cnf, format="sdd", attempts=10,
                                       max_nodes=20, seed=2)
        assert result.format == "sdd"
        assert result.manager is not None
        assert sdd_count(result.root) == exact

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            compile_with_restarts(self.CNF, format="zdd")
        with pytest.raises(ValueError):
            compile_with_restarts(self.CNF, attempts=0)


# -- CLI -----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def cnf_file(self, tmp_path):
        cnf = random_3cnf(20, 50, 3)
        lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
        lines += [" ".join(map(str, clause)) + " 0"
                  for clause in cnf.clauses]
        path = tmp_path / "instance.cnf"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _run(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_budget_exceeded_exit_code(self, cnf_file, capsys):
        from repro.cli import EXIT_BUDGET
        code, _out, err = self._run(
            ["compile", cnf_file, "--max-nodes", "3"], capsys)
        assert code == EXIT_BUDGET == 3
        assert "budget exceeded" in err
        assert "c partial operation compile" in err

    def test_query_deadline_exit_code(self, cnf_file, capsys):
        code, _out, err = self._run(
            ["query", cnf_file, "--timeout", "1e-9"], capsys)
        assert code == 3
        assert "c partial operation" in err

    def test_anytime_degrades_to_bounds(self, cnf_file, capsys):
        code, out, _err = self._run(
            ["query", cnf_file, "--anytime", "--max-nodes", "2"],
            capsys)
        assert code == 0
        assert "c anytime reason nodes" in out
        assert "s bounds " in out

    def test_anytime_exact_matches_normal_path(self, cnf_file, capsys):
        code, normal, _ = self._run(["query", cnf_file], capsys)
        assert code == 0
        code, anytime, _ = self._run(
            ["query", cnf_file, "--anytime"], capsys)
        assert code == 0
        assert "c anytime reason complete" in anytime
        mc = [l for l in normal.splitlines() if l.startswith("s mc ")]
        assert mc and mc[0] in anytime

    def test_anytime_rejects_mpe(self, cnf_file, capsys):
        code, _out, err = self._run(
            ["query", cnf_file, "--query", "mpe", "--anytime"], capsys)
        assert code == 2
        assert "--anytime supports count and wmc" in err

    def test_malformed_weight_spec(self, cnf_file, capsys):
        code, _out, err = self._run(
            ["query", cnf_file, "--query", "wmc", "--weight", "abc"],
            capsys)
        assert code == 2
        assert "bad weight spec 'abc'" in err

    def test_out_of_range_weight_literal(self, cnf_file, capsys):
        code, _out, err = self._run(
            ["query", cnf_file, "--query", "wmc", "--weight", "99=0.5"],
            capsys)
        assert code == 2
        assert "literal 99 outside 1..20" in err

    def test_restart_driver_recovers(self, cnf_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.nnf")
        code, out, _err = self._run(
            ["compile", cnf_file, "--restarts", "8",
             "--max-nodes", "20", "-o", out_path], capsys)
        assert code == 0
        assert "c attempt 0 default-heuristic budget:nodes" in out
        assert "c winner attempt" in out


# -- multi-process store races -------------------------------------------------
def _race_compile_worker(cache_root, dimacs, barrier, results):
    """One racing writer: cold-compile the shared CNF into the shared
    store directory, then report (model count, store counters)."""
    from repro.compile.dnnf_compiler import DnnfCompiler
    from repro.ir.store import ArtifactStore
    from repro.logic.cnf import Cnf
    cnf = Cnf.from_dimacs(dimacs)
    store = ArtifactStore(cache_root)
    barrier.wait(timeout=60)  # maximize write overlap
    root = DnnfCompiler(store=store).compile(cnf)
    results.put((queries.model_count(root, range(1, cnf.num_vars + 1)),
                 store.stats.as_dict()))


def _race_killed_worker(cache_root, dimacs, barrier, results):
    """A racing writer whose budget kills it mid-compile."""
    from repro.compile.dnnf_compiler import DnnfCompiler
    from repro.ir.store import ArtifactStore
    from repro.logic.cnf import Cnf
    cnf = Cnf.from_dimacs(dimacs)
    store = ArtifactStore(cache_root)
    barrier.wait(timeout=60)
    try:
        DnnfCompiler(store=store, budget=Budget(max_nodes=4)).compile(cnf)
        results.put(("completed", store.stats.as_dict()))
    except BudgetExceeded:
        results.put(("killed", store.stats.as_dict()))


class TestMultiProcessStoreRaces:
    """N processes cold-compiling the same content key concurrently:
    one artifact, identical bytes, no quarantines — the extension of
    the kill-then-rerun pattern to parallel writers."""

    N_PROCS = 4

    @staticmethod
    def _spawn(target, cache_root, dimacs, count):
        import multiprocessing
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(count)
        results = context.Queue()
        procs = [context.Process(target=target,
                                 args=(cache_root, dimacs, barrier,
                                       results))
                 for _ in range(count)]
        for proc in procs:
            proc.start()
        collected = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        return collected

    def test_parallel_cold_compiles_one_artifact(self, tmp_path):
        cnf = random_3cnf(20, 50, 21)
        dimacs = cnf.to_dimacs()
        exact = queries.model_count(
            DnnfCompiler(store=None).compile(cnf), range(1, 21))
        collected = self._spawn(_race_compile_worker, str(tmp_path),
                                dimacs, self.N_PROCS)
        # every racer computed the same count
        assert [c for c, _ in collected] == [exact] * self.N_PROCS
        # one artifact file per extension, no quarantines, no temp
        # droppings — atomic os.replace publication
        assert len(_stored_keys(tmp_path, "nnf")) == 1
        assert len(_stored_keys(tmp_path, "csr")) == 1
        assert glob.glob(f"{tmp_path}/*/*.corrupt") == []
        assert glob.glob(f"{tmp_path}/*/*.tmp") == []
        for _, stats in collected:
            assert stats.get("artifact_corrupt", 0) == 0

    def test_racing_writers_store_identical_bytes(self, tmp_path):
        """The surviving artifact is byte-identical to a solo compile
        of the same key (content addressing makes every racer's write
        interchangeable)."""
        from repro.ir.store import ArtifactStore
        cnf = random_3cnf(18, 42, 5)
        dimacs = cnf.to_dimacs()
        self._spawn(_race_compile_worker, str(tmp_path), dimacs, 3)
        (raced_path,) = glob.glob(f"{tmp_path}/*/*.nnf")
        solo_dir = tmp_path / "solo"
        DnnfCompiler(store=ArtifactStore(solo_dir)).compile(cnf)
        (solo_path,) = glob.glob(f"{solo_dir}/*/*.nnf")
        with open(raced_path, "rb") as raced, \
                open(solo_path, "rb") as solo:
            assert raced.read() == solo.read()

    def test_warm_load_after_race_counts_hits(self, tmp_path):
        """A fresh process after the race gets the full warm path:
        cache hit, certificate hit, and the mmap'd CSR sidecar."""
        from repro.ir.store import ArtifactStore
        cnf = random_3cnf(20, 50, 22)
        exact = queries.model_count(
            DnnfCompiler(store=None).compile(cnf), range(1, 21))
        self._spawn(_race_compile_worker, str(tmp_path),
                    cnf.to_dimacs(), self.N_PROCS)
        warm = DnnfCompiler(store=ArtifactStore(tmp_path))
        assert queries.model_count(warm.compile(cnf),
                                   range(1, 21)) == exact
        assert warm.stats["artifact_cache_hits"] == 1
        assert warm.store.stats["artifact_hits"] == 1
        assert warm.store.stats["artifact_mmap_hits"] == 1
        assert warm.store.stats["artifact_corrupt"] == 0

    def test_killed_writer_among_racers(self, tmp_path):
        """Racers mixed with a budget-killed writer: the killed one
        publishes nothing (atomicity) and the survivors' artifact
        still loads clean."""
        import multiprocessing
        from repro.ir.store import ArtifactStore
        cnf = random_3cnf(20, 50, 23)
        dimacs = cnf.to_dimacs()
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(3)
        results = context.Queue()
        procs = [
            context.Process(target=_race_compile_worker,
                            args=(str(tmp_path), dimacs, barrier,
                                  results)),
            context.Process(target=_race_compile_worker,
                            args=(str(tmp_path), dimacs, barrier,
                                  results)),
            context.Process(target=_race_killed_worker,
                            args=(str(tmp_path), dimacs, barrier,
                                  results)),
        ]
        for proc in procs:
            proc.start()
        collected = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        outcomes = [c for c, _ in collected]
        assert "killed" in outcomes
        assert len(_stored_keys(tmp_path, "nnf")) == 1
        assert glob.glob(f"{tmp_path}/*/*.corrupt") == []
        store = ArtifactStore(tmp_path)
        (key,) = _stored_keys(tmp_path, "nnf")
        assert store.load_nnf(key) is not None
        assert store.stats["artifact_corrupt"] == 0

    def test_reader_racing_writer_never_quarantines(self, tmp_path):
        """A loop of readers concurrent with repeated re-publications
        of the same artifact never sees a torn file (the satellite's
        original failure mode: a reader racing a writer landed a good
        artifact in quarantine)."""
        import threading
        from repro.ir import nnf_to_ir
        from repro.ir.store import ArtifactStore
        cnf = random_3cnf(16, 36, 8)
        root = DnnfCompiler(store=None).compile(cnf)
        ir = nnf_to_ir(root)
        writer_store = ArtifactStore(tmp_path)
        key = "racing-key"
        writer_store.save_nnf(key, ir)
        stop = threading.Event()

        def rewrite():
            while not stop.is_set():
                writer_store.save_nnf(key, ir)

        writer = threading.Thread(target=rewrite, daemon=True)
        writer.start()
        try:
            reader_store = ArtifactStore(tmp_path)
            for _ in range(50):
                assert reader_store.load_nnf(key) is not None
        finally:
            stop.set()
            writer.join(timeout=30)
        assert reader_store.stats["artifact_corrupt"] == 0
        assert glob.glob(f"{tmp_path}/*/*.corrupt") == []
