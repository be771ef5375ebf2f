"""Tests for the perf layer: instrumentation primitives, engine stats
wiring, and a smoke run of the benchmark driver."""

import json
import os
import subprocess
import sys

import pytest

from repro.compile.dnnf_compiler import DnnfCompiler
from repro.logic.cnf import Cnf
from repro.perf import Counter, Timer, format_stats
from repro.sat.counter import ModelCounter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCounter:
    def test_incr_and_lookup(self):
        stats = Counter()
        stats.incr("propagations")
        stats.incr("propagations", 3)
        assert stats["propagations"] == 4
        assert stats["missing"] == 0
        assert "propagations" in stats
        assert "missing" not in stats

    def test_iteration_sorted(self):
        stats = Counter(b=2, a=1)
        assert list(stats) == [("a", 1), ("b", 2)]
        assert stats.as_dict() == {"a": 1, "b": 2}

    def test_merge_and_clear(self):
        a = Counter(x=1)
        b = Counter(x=2, y=5)
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 5
        a.clear()
        assert not a

    def test_format_stats(self):
        stats = Counter(decisions=7)
        assert format_stats(stats) == "c decisions 7"


class TestTimer:
    def test_accumulates_across_uses(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            pass
        assert timer.elapsed >= first >= 0.0
        timer.reset()
        assert timer.elapsed == 0.0


class TestEngineWiring:
    """The engines must actually feed the counters on their hot paths."""

    CNF = Cnf([(1, 2, 3), (-1, 2), (-2, 3), (1, -3), (2, 4), (-4, 1)],
              num_vars=4)

    def test_model_counter_stats(self):
        counter = ModelCounter()
        counter.count(self.CNF)
        assert counter.stats["propagations"] > 0
        assert counter.stats["decisions"] > 0
        assert counter.decisions == counter.stats["decisions"]

    def test_compiler_stats(self):
        compiler = DnnfCompiler()
        compiler.compile(self.CNF)
        assert compiler.stats["decisions"] > 0
        assert compiler.decisions == compiler.stats["decisions"]

    def test_sdd_apply_stats(self):
        from repro.sdd.compiler import compile_cnf_sdd
        from repro.vtree.construct import vtree_from_order
        vtree = vtree_from_order(range(1, 5), "balanced")
        _, manager = compile_cnf_sdd(self.CNF, vtree=vtree)
        assert manager.stats["apply_calls"] > 0

    def test_kernel_memoises_repeated_queries(self):
        from repro.nnf.queries import get_kernel
        from repro.nnf.queries import model_count
        root = DnnfCompiler().compile(self.CNF)
        # structurally identical circuits share one kernel, so an
        # earlier test may have memoised this circuit's count already
        get_kernel(root).invalidate()
        stats = Counter()
        model_count(root, stats=stats)
        assert stats["kernel_memo_hits"] == 0
        model_count(root, stats=stats)
        assert stats["kernel_memo_hits"] == 1


@pytest.mark.tier2_bench
def test_run_all_quick_smoke(tmp_path):
    """`run_all.py --quick --skip-figures` runs, emits a valid BENCH
    json, and both engines of every scenario agree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "benchmarks",
                                      "run_all.py"),
         "--quick", "--skip-figures", "--output-dir", str(tmp_path),
         "--scenario-timeout", "240"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = list(tmp_path.glob("BENCH_*.json"))
    assert len(written) == 1
    report = json.loads(written[0].read_text())
    assert report["schema"] == "repro-bench/1"
    assert report["quick"] is True
    assert set(report["scenarios"]) == {
        "sharp_sat", "batched_wmc", "batched_marginals", "psdd_marginals",
        "classifier_scoring", "anytime_bounds", "codegen_kernel",
        "minimize", "proof_overhead", "explain_throughput"}
    for name, scenario in report["scenarios"].items():
        assert scenario["agree"] is True, name
        # the per-scenario deadline guard must not have tripped
        assert "budget_exceeded" not in scenario, name
        # sub-0.1ms batched passes legitimately round to 0.0
        assert scenario["optimized_s"] >= 0
    for name in ("sharp_sat", "batched_wmc"):
        assert report["scenarios"][name]["counters"]["optimized"]
    anytime = report["scenarios"]["anytime_bounds"]
    # intervals must tighten monotonically as the node budget grows,
    # ending exact at the largest budget of the quick instance
    widths = [point["width_fraction"] for point in anytime["curve"]]
    assert widths == sorted(widths, reverse=True), widths
    assert anytime["curve"][-1]["exact"] is True, anytime["curve"]
    codegen = report["scenarios"]["codegen_kernel"]
    # the generated evaluator must beat the interpreted loops by an
    # order of magnitude on scalar WMC/#SAT (the PR's acceptance bar)
    assert codegen["speedup"] >= 10, codegen
    assert codegen["counters"]["optimized"]["codegen_compiles"] == 1
    assert codegen["counters"]["optimized"].get(
        "codegen_fallbacks", 0) == 0, codegen
    minimize = report["scenarios"]["minimize"]
    # certified pruning must shrink Tseitin-heavy circuits by at least
    # 30% total (the pass-manager PR's acceptance bar)
    assert minimize["node_reduction"] >= 0.3, minimize
    assert minimize["nodes_after"] < minimize["nodes_before"]
    assert minimize["counters"]["forgotten"] > 0, minimize
    proof = report["scenarios"]["proof_overhead"]
    # trace emission must stay within 2x of a plain compile (the
    # proof-logging PR's acceptance bar), and the replay must be live
    assert proof["overhead_ratio"] <= 2.0, proof
    assert proof["counters"]["optimized"]["proof_steps"] > 0, proof
    assert proof["checker_steps_per_s"] > 0, proof
    explain = report["scenarios"]["explain_throughput"]
    # the enumerator must actually produce reasons, and the probe
    # accounting must be live
    assert explain["reasons"] > 0, explain
    assert explain["reasons_per_s"] > 0, explain
    assert explain["p50_delay_ms"] >= 0, explain
    assert explain["counters"]["explain_probes"] > 0, explain


class TestDriftNormalizedGate:
    """compare() divides ratios by the median host drift so a uniform
    machine slowdown doesn't read as a dozen regressions — while a
    baseline too small to estimate drift (< 4 signalful scenarios)
    keeps the raw, un-normalized gate."""

    @staticmethod
    def _run_all():
        sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
        try:
            import run_all
        finally:
            sys.path.pop(0)
        return run_all

    @staticmethod
    def _report(timings):
        return {"quick": True, "figures": [],
                "scenarios": {name: {"optimized_s": seconds}
                              for name, seconds in timings.items()}}

    def test_uniform_drift_not_flagged(self):
        run_all = self._run_all()
        baseline = self._report(
            {f"s{i}": 1.0 for i in range(6)})
        # every scenario uniformly 1.4x slower: pure host drift
        current = self._report({f"s{i}": 1.4 for i in range(6)})
        outcome = run_all.compare(current, baseline)
        assert outcome["comparable"]
        assert outcome["drift"] == pytest.approx(1.4)
        assert outcome["regressions"] == []

    def test_real_regression_survives_drift(self):
        run_all = self._run_all()
        baseline = self._report(
            {f"s{i}": 1.0 for i in range(6)})
        timings = {f"s{i}": 1.4 for i in range(6)}
        timings["s3"] = 4.0   # 4x raw, ~2.9x after drift: real
        outcome = run_all.compare(self._report(timings), baseline)
        assert [r["what"] for r in outcome["regressions"]] == \
            ["scenario:s3"]

    def test_small_baselines_stay_raw(self):
        run_all = self._run_all()
        baseline = self._report({"a": 1.0, "b": 1.0})
        outcome = run_all.compare(
            self._report({"a": 1.4, "b": 1.4}), baseline)
        # two samples cannot estimate drift; the raw gate still fires
        assert outcome["drift"] == 1.0
        assert len(outcome["regressions"]) == 2

    def test_drift_clamped(self):
        run_all = self._run_all()
        baseline = self._report({f"s{i}": 1.0 for i in range(6)})
        # a uniform 5x "drift" is not host noise — the clamp keeps
        # enough of the ratio visible to flag every scenario
        outcome = run_all.compare(
            self._report({f"s{i}": 5.0 for i in range(6)}), baseline)
        assert outcome["drift"] == 2.0
        assert len(outcome["regressions"]) == 6


@pytest.mark.tier2_bench
def test_run_all_regression_gate(tmp_path):
    """A baseline with impossibly-fast timings must trip the regression
    gate (exit 2) — and `--advisory` must downgrade it to a warning."""
    fake_baseline = {
        "schema": "repro-bench/1", "quick": True, "figures": [],
        "scenarios": {"sharp_sat": {"optimized_s": 1e-9},
                      "proof_overhead": {"optimized_s": 1e-9}},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    for advisory, expected in ((False, 2), (True, 0)):
        out_dir = tmp_path / ("advisory" if advisory else "strict")
        out_dir.mkdir()
        (out_dir / "BENCH_00000101-000000.json").write_text(
            json.dumps(fake_baseline))
        argv = [sys.executable,
                os.path.join(REPO_ROOT, "benchmarks", "run_all.py"),
                "--quick", "--skip-figures", "--output-dir",
                str(out_dir)]
        if advisory:
            argv.append("--advisory")
        proc = subprocess.run(argv, env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == expected, \
            (advisory, proc.stdout, proc.stderr)
        assert "regression(s) vs" in proc.stdout
