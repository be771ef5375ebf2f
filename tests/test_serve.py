"""Tests for the compilation service: the serve package, the IR
facade it sits on, in-flight dedup, admission control, and the
serve-isolation lint rule."""

import importlib.util
import json
import os
import random
import re
import threading

import pytest

from repro.ir.facade import (BoundsOutcome, CompileOutcome,
                             compile_or_bounds, compile_ticket,
                             compile_to_store, query_artifact)
from repro.ir.store import ArtifactStore
from repro.limits import Budget
from repro.logic.cnf import Cnf
from repro.sat.counter import ModelCounter
from repro.serve.app import Server, ServerConfig
from repro.serve.client import ServeClient
from repro.serve.loadgen import percentile, random_3cnf_text, run_load
from repro.serve.protocol import (ProtocolError, parse_compile_request,
                                  parse_query_request)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = "p cnf 4 3\n1 2 0\n-1 3 0\n2 -3 4 0\n"
SMALL_COUNT = 7  # by brute force


def hard_cnf(seed=3, n=120, m=510):
    """A 3-CNF big enough that tiny budgets expire mid-compile."""
    return random_3cnf_text(n, m, seed)


# -- the facade ----------------------------------------------------------------
class TestFacade:
    def test_ticket_canonicalises_formatting(self):
        messy = "c a comment\np cnf 4 3\n 1  2 0\n-1 3 0\n2 -3 4 0\n"
        assert compile_ticket(messy).key == compile_ticket(SMALL).key

    def test_ticket_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compile_ticket("not dimacs at all")
        with pytest.raises(ValueError):
            compile_ticket(SMALL, {"no_such_knob": 1})
        with pytest.raises(ValueError):
            compile_ticket(SMALL, {"cache_mode": "wrong"})

    def test_config_forks_the_key(self):
        assert compile_ticket(SMALL).key != \
            compile_ticket(SMALL, {"use_components": False}).key

    def test_compile_and_query_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ticket = compile_ticket(SMALL)
        outcome = compile_to_store(ticket, store)
        assert isinstance(outcome, CompileOutcome)
        assert not outcome.cached
        assert compile_to_store(ticket, store).cached  # warm
        reply = query_artifact(store, ticket.key, "count", num_vars=4)
        assert reply["result"] == SMALL_COUNT
        assert query_artifact(store, "0" * 64, "count") is None

    def test_query_widens_free_variables(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ticket = compile_ticket(SMALL)
        compile_to_store(ticket, store)
        wide = query_artifact(store, ticket.key, "count", num_vars=6)
        assert wide["result"] == SMALL_COUNT * 4
        wmc = query_artifact(store, ticket.key, "wmc", num_vars=5,
                             weights={5: 0.25, -5: 0.25})
        plain = query_artifact(store, ticket.key, "wmc", num_vars=4)
        assert wmc["result"] == pytest.approx(plain["result"] * 0.5)

    def test_batched_wmc_matches_scalar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ticket = compile_ticket(SMALL)
        compile_to_store(ticket, store)
        rows = [{1: 0.3, -1: 0.7}, {2: 0.9, -2: 0.1}, {}]
        batch = query_artifact(store, ticket.key, "wmc", num_vars=4,
                               weight_batch=rows)
        assert batch["batch"] == 3
        for row, value in zip(rows, batch["result"]):
            scalar = query_artifact(store, ticket.key, "wmc",
                                    num_vars=4, weights=row)
            assert value == pytest.approx(scalar["result"])

    def test_compile_or_bounds_brackets_exact(self, tmp_path):
        """An expiring budget degrades to a certified interval that
        brackets the exact count (the acceptance-criteria check)."""
        dimacs = random_3cnf_text(24, 55, seed=13)
        exact = ModelCounter().count(Cnf.from_dimacs(dimacs))
        ticket = compile_ticket(dimacs)
        outcome = compile_or_bounds(ticket, ArtifactStore(tmp_path),
                                    max_nodes=6)
        assert isinstance(outcome, BoundsOutcome)
        assert outcome.lower <= exact <= outcome.upper
        assert outcome.reason == "nodes"

    def test_compile_or_bounds_completes_in_budget(self, tmp_path):
        outcome = compile_or_bounds(compile_ticket(SMALL),
                                    ArtifactStore(tmp_path),
                                    deadline_s=60.0)
        assert isinstance(outcome, CompileOutcome)


class TestBudgetSlice:
    def test_scales_caps(self):
        sliced = Budget(deadline_s=10.0, max_nodes=100).slice(0.6)
        assert sliced.deadline_s == pytest.approx(6.0)
        assert sliced.max_nodes == 60

    def test_unlimited_stays_unlimited(self):
        sliced = Budget(deadline_s=None, max_nodes=None).slice(0.5)
        assert sliced.deadline_s is None and sliced.max_nodes is None

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=1.0).slice(0.0)
        with pytest.raises(ValueError):
            Budget(deadline_s=1.0).slice(1.5)

    def test_shares_clock(self):
        ticks = iter([0.0, 0.0, 100.0])
        budget = Budget(deadline_s=50.0, clock=lambda: next(ticks))
        sliced = budget.slice(0.5)  # 25s on the fake clock
        assert sliced.charge() is None      # t=0
        assert sliced.charge() == "deadline"  # t=100 > 25


# -- the wire protocol ---------------------------------------------------------
class TestProtocol:
    def test_compile_request(self):
        request = parse_compile_request(json.dumps(
            {"dimacs": SMALL, "config": {"use_cache": False},
             "deadline_s": 2.5}).encode())
        assert request.dimacs == SMALL
        assert request.config == {"use_cache": False}
        assert request.deadline_s == 2.5

    def test_query_request_decodes_weights(self):
        request = parse_query_request(json.dumps(
            {"key": "k", "query": "wmc",
             "weights": {"1": 0.5, "-2": 0.25}}).encode())
        assert request.weights == {1: 0.5, -2: 0.25}

    @pytest.mark.parametrize("body", [
        b"not json", b"[1,2]", b"{}",
        json.dumps({"dimacs": ""}).encode(),
        json.dumps({"dimacs": "p cnf 1 0", "deadline_s": -1}).encode(),
        json.dumps({"dimacs": "p cnf 1 0", "config": []}).encode(),
    ])
    def test_bad_compile_bodies(self, body):
        with pytest.raises(ProtocolError):
            parse_compile_request(body)

    @pytest.mark.parametrize("body", [
        b"{}",
        json.dumps({"key": "k", "query": "nope"}).encode(),
        json.dumps({"key": "k", "weights": {"zero": 1}}).encode(),
        json.dumps({"key": "k", "weights": {"0": 1}}).encode(),
        json.dumps({"key": "k", "weights": {"1": 0.5},
                    "weight_batch": []}).encode(),
    ])
    def test_bad_query_bodies(self, body):
        with pytest.raises(ProtocolError):
            parse_query_request(body)

    @pytest.mark.parametrize("body, named", [
        (b'{"key": "k", "query": "wmc", "weights": {"1": NaN}}', "NaN"),
        (b'{"key": "k", "query": "wmc", "weights": {"-1": Infinity}}',
         "Infinity"),
        (b'{"key": "k", "query": "wmc", "weight_batch": '
         b'[{"1": -Infinity}]}', "-Infinity"),
        (b'{"key": "k", "query": "wmc", "weights": {"2": 1e400}}',
         "weights[2]"),
        (b'{"key": "k", "query": "wmc", "weight_batch": '
         b'[{"1": 0.5}, {"-2": -1e400}]}', "weight_batch[1][-2]"),
        (b'{"key": "k", "query": "wmc", "weights": {"3": 1' + b"0" * 400 +
         b"}}", "weights[3]"),
        (b'{"key": "k", "deadline_s": NaN}', "NaN"),
    ], ids=["nan", "infinity", "batch-minus-infinity", "1e400",
            "batch-minus-1e400", "integer-past-float", "nan-deadline"])
    def test_non_finite_numbers_are_refused(self, body, named):
        """Requests are strict JSON, and a weight must be finite: a
        NaN weight would be served a NaN count."""
        with pytest.raises(ProtocolError, match=re.escape(named)) as caught:
            parse_query_request(body)
        assert caught.value.status == 400


class TestPercentile:
    def test_basics(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        samples = [float(i) for i in range(1, 101)]
        random.Random(0).shuffle(samples)
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0


# -- the live server -----------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    instance = Server(ServerConfig(port=0, workers=2, max_pending=64))
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    handle = ServeClient(*server.address)
    yield handle
    handle.close()


class TestServer:
    def test_health_and_stats(self, client):
        assert client.health()
        stats = client.stats()
        assert stats["status"] == "ok"
        assert "dedup_hit_rate" in stats

    def test_compile_then_query(self, client):
        status, body = client.compile(SMALL)
        assert status == 200 and body["status"] == "ok"
        key = body["key"]
        status, body = client.query(key, "count", num_vars=4)
        assert status == 200
        assert int(body["result"]) == SMALL_COUNT

    def test_duplicate_compile_is_warm(self, client):
        client.compile(SMALL)
        status, body = client.compile(SMALL)
        assert status == 200
        assert body.get("cached") or body.get("deduplicated")

    def test_query_kinds_over_http(self, client):
        _, compiled = client.compile(SMALL)
        key = compiled["key"]
        _, sat = client.query(key, "sat")
        assert sat["result"] is True
        _, wmc = client.query(key, "wmc", num_vars=4,
                              weights={1: 0.5, -1: 0.5})
        assert wmc["result"] == pytest.approx(3.5)
        _, batch = client.query(key, "wmc", num_vars=4,
                                weight_batch=[{1: 0.5, -1: 0.5}, {}])
        assert batch["batch"] == 2
        assert batch["result"][0] == pytest.approx(3.5)
        _, mpe = client.query(key, "mpe", num_vars=4,
                              weights={1: 2.0})
        assert mpe["result"] == pytest.approx(2.0)
        _, marg = client.query(key, "marginals", num_vars=4)
        assert int(marg["count"]) == SMALL_COUNT
        negatives, positives = marg["result"]["1"]
        assert int(negatives) + int(positives) == SMALL_COUNT

    @staticmethod
    def _strict_query(server, body):
        """POST /query (``body`` as it is when bytes, JSON-encoded
        otherwise) and decode the raw reply with a parser that refuses
        NaN and Infinity (RFC 8259 has neither)."""
        import http.client

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")
        connection = http.client.HTTPConnection(*server.address,
                                                timeout=60)
        try:
            connection.request("POST", "/query", body if isinstance(
                body, bytes) else json.dumps(body),
                {"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read(),
                                               parse_constant=refuse)
        finally:
            connection.close()

    def test_marginal_pairs_keep_exact_counts(self, server, client):
        """2^58 and 2^59 are past a double's exact range: the pairs
        travel as strings (a client decoding JSON numbers as doubles
        would round them) and decode exactly."""
        _, compiled = client.compile("p cnf 60 1\n1 0\n")
        status, marg = self._strict_query(
            server, {"key": compiled["key"], "query": "marginals",
                     "num_vars": 60})
        assert status == 200
        assert marg["count"] == str(2 ** 59)
        assert marg["result"]["1"] == ["0", str(2 ** 59)]
        for var in range(2, 61):
            assert marg["result"][str(var)] == [str(2 ** 58)] * 2

    def test_unsatisfiable_mpe_is_strict_json(self, server, client):
        _, compiled = client.compile("p cnf 2 2\n1 0\n-1 0\n")
        status, mpe = self._strict_query(
            server, {"key": compiled["key"], "query": "mpe",
                     "num_vars": 2})
        assert status == 200
        assert mpe["result"] == "-inf"

    def test_non_finite_weights_are_400(self, server, client):
        _, compiled = client.compile(SMALL)
        key = compiled["key"].encode()
        for weights in (b'"weights": {"1": NaN}',
                        b'"weights": {"1": 1e400}',
                        b'"weight_batch": [{"1": 0.5}, {"2": Infinity}]'):
            status, reply = self._strict_query(
                server, b'{"key": "' + key + b'", "query": "wmc", ' +
                weights + b"}")
            assert status == 400 and reply["status"] == "invalid"

    def test_unknown_key_is_404(self, client):
        status, body = client.query("f" * 64, "count")
        assert status == 404 and body["status"] == "not_found"

    def test_bad_requests_are_400(self, client):
        status, _ = client.compile("garbage")
        assert status == 400
        status, _ = client.request("POST", "/query", {"key": "k",
                                                      "query": "bad"})
        assert status == 400
        status, _ = client.request("POST", "/compile", None)
        assert status == 400

    def test_unknown_route_is_404(self, client):
        status, _ = client.request("GET", "/nope")
        assert status == 404

    def test_expiring_compile_returns_bounds(self, client):
        """The acceptance criterion: a deadline that expires mid-
        compile answers 200 with certified `s bounds L U` semantics
        (lower <= exact <= upper), never a 5xx."""
        dimacs = random_3cnf_text(26, 58, seed=29)
        exact = ModelCounter().count(Cnf.from_dimacs(dimacs))
        status, body = client.compile(dimacs, max_nodes=6)
        assert status == 200
        assert body["status"] == "bounds"
        assert body["lower"] <= exact <= body["upper"]

    def test_concurrent_duplicates_dedup_to_one_compile(self, server):
        """N concurrent requests for one fresh CNF: every reply
        carries the same key, and the workers ran one compilation."""
        dimacs = random_3cnf_text(22, 52, seed=97)
        replies = []

        def fire():
            handle = ServeClient(*server.address)
            try:
                replies.append(handle.compile(dimacs))
            finally:
                handle.close()

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(replies) == 8
        assert all(status == 200 for status, _ in replies)
        keys = {body["key"] for _, body in replies}
        assert len(keys) == 1
        shared = sum(1 for _, body in replies
                     if body.get("deduplicated") or body.get("cached"))
        assert shared >= 7  # one leader did the work


class TestAdmissionControl:
    def test_saturated_queue_answers_429(self):
        """With one worker and max_pending=1, concurrent distinct
        compiles overflow admission: 429 + Retry-After, no backlog."""
        instance = Server(ServerConfig(port=0, workers=1,
                                       max_pending=1))
        host, port = instance.start()
        try:
            outcomes = []

            def fire(seed):
                handle = ServeClient(host, port)
                try:
                    status, body = handle.compile(
                        random_3cnf_text(55, 230, seed=500 + seed),
                        deadline_s=5.0)
                    outcomes.append((status, body.get("status")))
                finally:
                    handle.close()

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            statuses = sorted(s for s, _ in outcomes)
            assert 429 in statuses
            assert all(s in (200, 429) for s in statuses)  # never 5xx
        finally:
            instance.stop()

    def test_retry_after_header(self):
        import http.client
        instance = Server(ServerConfig(port=0, workers=0,
                                       max_pending=1))
        host, port = instance.start()
        try:
            blocker = threading.Event()
            original = instance._admit
            instance._admit = lambda: False  # force saturation
            try:
                conn = http.client.HTTPConnection(host, port,
                                                  timeout=30)
                conn.request("POST", "/query", json.dumps(
                    {"key": "k", "query": "count"}).encode(),
                    {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 429
                assert response.getheader("Retry-After") is not None
                response.read()
                conn.close()
            finally:
                instance._admit = original
                blocker.set()
        finally:
            instance.stop()


class TestLoadGenerator:
    def test_duplicate_heavy_mix_dedups(self):
        instance = Server(ServerConfig(port=0, workers=2,
                                       max_pending=128))
        host, port = instance.start()
        try:
            report = run_load(host, port, distinct=2, duplicates=6,
                              queries=18, threads=4, num_vars=14,
                              num_clauses=32, seed=11)
        finally:
            instance.stop()
        assert report["server_5xx"] == 0
        assert report["dedup_hit_rate"] > 0.8
        assert report["compile_requests"] == 12
        assert report["query_requests"] == 18
        assert report["query_p99_ms"] >= report["query_p50_ms"] > 0
        assert report["rps"] > 0


class TestWorkerPool:
    def test_killed_worker_leaves_the_others_serving(self):
        import signal
        import time
        instance = Server(ServerConfig(port=0, workers=2))
        client = ServeClient(*instance.start())
        try:
            _, body = client.compile(SMALL)
            pids = {client.query(body["key"], "count")[1]["pid"]
                    for _ in range(8)}
            victim = min(pids)
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            replies = [client.query(body["key"], "count", num_vars=4)
                       for _ in range(6)]
            assert [status for status, _ in replies] == [200] * 6
            assert {reply["result"] for _, reply in replies} == \
                {str(SMALL_COUNT)}
            assert victim not in {reply["pid"] for _, reply in replies}
        finally:
            client.close()
            instance.stop()

    def test_stop_reaps_every_worker(self):
        import multiprocessing
        instance = Server(ServerConfig(port=0, workers=2))
        client = ServeClient(*instance.start())
        try:
            _, body = client.compile(SMALL)
            pids = {client.query(body["key"], "count")[1]["pid"]
                    for _ in range(8)}
        finally:
            client.close()
            instance.stop()
        live = {child.pid for child in multiprocessing.active_children()}
        assert pids and not pids & live


# -- the serve-isolation lint rule ---------------------------------------------
class TestServeIsolationLint:
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
            if v[2] == "serve-isolation"]
        assert violations == []

    def test_engine_import_is_flagged(self, tmp_path):
        lint = self._lint()
        package = tmp_path / "serve"
        package.mkdir()
        (package / "bad.py").write_text(
            "from repro.compile.dnnf_compiler import DnnfCompiler\n")
        (package / "worse.py").write_text(
            "def f():\n    from repro.sat.dpll import is_satisfiable\n")
        (package / "fine.py").write_text(
            "from repro.ir.store import ArtifactStore\n"
            "from repro.limits.budget import Budget\n"
            "from .protocol import ProtocolError\n")
        violations = [v for v in lint.collect_violations(str(tmp_path))
                      if v[2] == "serve-isolation"]
        flagged_files = sorted({os.path.basename(v[0])
                                for v in violations})
        assert flagged_files == ["bad.py", "worse.py"]
