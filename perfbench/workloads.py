"""The three workloads: compile_cold, query_warm and serve_mixed.

Each workload is a closed loop: one caller per connection sends its
next op only after the previous one answered.  A run is

    setup()      -> everything before the first timed op (setup_s)
    run(tracer)  -> the timed loop, for ``seconds`` seconds
    end_to_end() / per_layer(tracer)
    check()      -> answer checks, after the metrics are read
    close()

In a traced run each op is traced or left untraced by a seeded coin,
so the untraced half of the same run is the reference for the
tracing overhead.  A traced op makes the same calls the facade makes,
one layer entry point at a time, each inside a span.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from . import inputs
from .common import (TAIL_MIN_BEYOND, child_pids, close,
                     latency_metrics, mean, peak_rss_mb,
                     tree_peak_rss_mb)
from .layers import overhead_ratio, span_layers
from .refcount import proof_counts
from .tracer import Tracer

#: reference model counts for a list of DIMACS texts
Reference = Callable[[Sequence[str]], List[Optional[int]]]


# -- references (used only after the metrics are read) -------------------------
@contextmanager
def interp_backend() -> Iterator[None]:
    """Route kernel queries through the interpreter backend."""
    old = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = "interp"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = old


def same_answer(kind: str, got: Any, want: Any) -> bool:
    """Weighted answers agree to 1e-9 relative; counts exactly."""
    if kind == "wmc_batch":
        return len(got) == len(want) and \
            all(close(a, b) for a, b in zip(got, want))
    if kind == "wmc":
        return close(got, want)
    if kind == "mpe":
        return close(got[0], want[0])
    return got == want


def marginals_consistent(result: Dict[str, List[int]], count: int) -> bool:
    """Each variable's negative and positive model counts partition
    the models."""
    return all(neg + pos == count for neg, pos in result.values())


@dataclass
class Op:
    """One timed op: what it asked, how long it took, what came back."""

    index: int
    kind: str
    start: float
    end: float
    traced: bool = False
    answer: Any = None
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


class Workload:
    name = ""
    #: peak RSS is read once this many ops are done, so a faster
    #: program doing more ops in the window does not read as bigger
    rss_at_op = 0
    #: setups per untraced run, the first in this process and the rest
    #: in fresh ones; setup_s is their median
    setup_repeats = 1

    def __init__(self, seed: int, seconds: float, work: Path,
                 env: Dict[str, str], short: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = env
        self.short = short
        self.ops: List[Op] = []
        self.wall = 0.0
        self.rss_mb = 0.0
        self.info: Dict[str, Any] = {}
        self.failed_ops: set = set()
        coin = inputs.stream(seed, self.name, "trace-coin")
        self._coins = [coin.random() < 0.5 for _ in range(1 << 14)]

    def coin(self, index: int) -> bool:
        return self._coins[index % len(self._coins)]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def check(self, count_ref: Reference = proof_counts) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def circuit_nodes(self) -> float:
        raise NotImplementedError

    def rss_now(self) -> float:
        return peak_rss_mb()

    # -- shared -------------------------------------------------------------
    def closed_loop(self, limit: int,
                    step: Callable[[int, bool], Op],
                    tracer: Optional[Tracer]) -> None:
        """Run ``step`` back to back for ``seconds`` (or ``limit`` ops)."""
        start = time.perf_counter()
        deadline = start + self.seconds
        index = 0
        while index < limit and time.perf_counter() < deadline:
            traced = tracer is not None and self.coin(index)
            self.ops.append(step(index, traced))
            index += 1
            if index == self.rss_at_op:
                self.rss_mb = self.rss_now()
        self.wall = time.perf_counter() - start
        if index < self.rss_at_op or not self.rss_mb:
            self.rss_mb = self.rss_now()
        self.info["ops_exhausted"] = index >= limit

    def end_to_end(self) -> Dict[str, float]:
        metrics, pct = latency_metrics([op.latency for op in self.ops],
                                       self.wall)
        self.info["tail_percentile"] = pct
        self.info["ops"] = len(self.ops)
        by_kind: Dict[str, List[float]] = {}
        for op in self.ops:
            by_kind.setdefault(op.kind, []).append(op.latency)
        self.info["kind_p50_ms"] = {
            kind: round(1e3 * statistics.median(lat), 3)
            for kind, lat in sorted(by_kind.items())}
        metrics["peak_rss_mb"] = self.rss_mb
        metrics["circuit_nodes"] = self.circuit_nodes()
        return metrics

    def per_layer(self, tracer: Tracer) -> Dict[str, float]:
        shares = tracer.coverages()
        if shares:
            self.info["coverage_min"] = shares[0]
            self.info["coverage_mean"] = mean(shares)
        return span_layers(tracer, [(op.traced, op.kind, op.latency)
                                    for op in self.ops])

    def fail(self, index: int, reason: str) -> None:
        if index not in self.failed_ops:
            self.failed_ops.add(index)
            notes = self.info.setdefault("failures", [])
            if len(notes) < 10:
                notes.append(f"op {index}: {reason}")

    def check_groups(self, groups: Dict[Tuple, List[Op]],
                     reference: Callable[[Tuple, Op], Any],
                     sample: int) -> None:
        """Ops that asked the same question must agree; a seeded
        sample of the distinct questions is checked against
        ``reference`` (the interpreter backend)."""
        keys = sorted(groups)
        rng = inputs.stream(self.seed, self.name, "check-sample")
        picked = set(rng.sample(range(len(keys)), min(sample, len(keys))))
        for position, key in enumerate(keys):
            members = groups[key]
            first = members[0]
            for op in members[1:]:
                if not same_answer(key[0], op.answer, first.answer):
                    self.fail(op.index, f"{key} disagrees with op "
                                        f"{first.index}")
            if position in picked:
                want = reference(key, first)
                if not same_answer(key[0], first.answer, want):
                    for op in members:
                        self.fail(op.index, f"{key} != interpreter "
                                            f"{want!r}")


def _store_delta(before: Dict[str, int], after: Dict[str, int]
                 ) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def _count_store(tracer: Tracer, delta: Dict[str, int]) -> None:
    for name in ("artifact_mmap_hits", "artifact_hits",
                 "artifact_misses", "artifact_cert_hits",
                 "artifact_corrupt"):
        tracer.count("store." + name, delta.get(name, 0))


def codegen_stats(kernel: Any) -> Dict[str, int]:
    """The counters of a kernel's generated evaluator (empty before
    its first codegen query), read where the CLI's --stats reads them."""
    stats = getattr(getattr(kernel, "_codegen", None), "stats", None)
    return stats.as_dict() if stats is not None else {}


# =============================================================================
class CompileCold(Workload):
    """Time to first answer on knowledge bases never seen before."""

    name = "compile_cold"
    rss_at_op = 40
    #: a repeat costs ~1 s here (9 s and 3 s on the other workloads, where
    #: the median of three was no steadier than one setup); over six
    #: ten-seed sets it cut the spread of setup_s twice (0.37 to 0.18,
    #: 0.18 to 0.06) and matched one setup in the rest
    setup_repeats = 3
    #: circuit_nodes is the geometric mean over the first this many
    #: inputs of the stream (those the timed loop did not reach are
    #: compiled after it): fixed work, so it repeats exactly for a
    #: seed, and sizes that span a decade weigh by relative change
    nodes_over = 300

    def setup(self) -> None:
        import numpy  # noqa: F401  (imported before timing: users have it)
        from repro.ir import facade
        from repro.ir.store import ArtifactStore
        self.facade = facade
        self.store = ArtifactStore(self.work / "store")
        # the stream ends before the op count at which the tail would
        # move up a decade (tail_percentile), so a faster program that
        # exhausts it is not read as a slower tail
        limit = max(self.nodes_over,
                    min(int(40 * self.seconds), 100 * TAIL_MIN_BEYOND - 1))
        self.inputs = [inputs.cold_input(self.seed, i)
                       for i in range(limit)]
        # one op on a formula outside the stream finishes every lazy
        # import and first-use set-up before timing
        text, n, weights = inputs.cold_input(self.seed, -1)
        self._untraced(text, n, weights, self.store)

    def _untraced(self, text: str, n: int, weights: Dict[int, float],
                  store: Any) -> Tuple[str, int, int, float]:
        facade = self.facade
        ticket = facade.compile_ticket(text)
        outcome = facade.compile_to_store(ticket, store)
        count = facade.query_artifact(store, ticket.key, "count",
                                      num_vars=n)
        wmc = facade.query_artifact(store, ticket.key, "wmc",
                                    num_vars=n, weights=weights)
        return (ticket.key, outcome.circuit_nodes, count["result"],
                wmc["result"])

    def _traced(self, index: int, text: str, n: int,
                weights: Dict[int, float], store: Any,
                tracer: Tracer) -> Tuple[str, int, int, float]:
        """compile_ticket + compile_to_store + two query_artifact
        calls, made call by call with a span around each layer (the
        self-tests hold this to the same store traffic and files as
        :meth:`_untraced`)."""
        from repro.compile.dnnf_compiler import DnnfCompiler
        from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
        from repro.ir.kernel import ir_kernel
        from repro.ir.lower import nnf_to_ir
        from repro.logic.cnf import Cnf
        # the flags compile_to_store asserts on what it stores
        flags = FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC
        facade = self.facade
        before = store.stats.as_dict()
        with tracer.op(index):
            with tracer.span("parse"):
                ticket = facade.compile_ticket(text)
            config = ticket.config
            compiler = DnnfCompiler(
                use_components=config["use_components"],
                use_cache=config["use_cache"],
                cache_mode=config["cache_mode"],
                propagator=config["propagator"],
                priority=config["priority"], store=None)
            with tracer.span("parse"):
                # compile_to_store re-parses, checks the ticket key,
                # and the compiler derives it again for its lookup
                cnf = Cnf.from_dimacs(ticket.dimacs)
                key = compiler.artifact_key_for(cnf)
                compiler.artifact_key_for(cnf)
            with tracer.span("store.read"):
                store.load_nnf(key, flags=flags)
            with tracer.span("compile"):
                root = compiler.compile(cnf)
            with tracer.span("lower"):
                ir = nnf_to_ir(root, flags=flags)
            with tracer.span("store.write"):
                store.save_nnf(key, ir)
            nodes = int(root.node_count())
            with tracer.span("store.read"):
                ir = store.load_nnf(key)
            with tracer.span("kernel.build"):
                kernel = ir_kernel(ir)
            with tracer.span("codegen.first_touch"):
                count = facade.query_ir(ir, "count", num_vars=n,
                                        codegen_store=store)
            with tracer.span("store.read"):
                ir = store.load_nnf(key)
            with tracer.span("eval.wmc"):
                wmc = facade.query_ir(ir, "wmc", num_vars=n,
                                      weights=weights,
                                      codegen_store=store)
        for name in ("decisions", "propagations", "clause_visits",
                     "cache_hits", "component_splits"):
            tracer.count("compile." + name, compiler.stats[name])
        _count_store(tracer, _store_delta(before, store.stats.as_dict()))
        tracer.count("store.write_bytes", sum(
            store.path_for(key, ext).stat().st_size
            for ext in ("nnf", "csr", "cert")))
        for name, value in codegen_stats(kernel).items():
            tracer.count(name, value)
        return key, nodes, count["result"], wmc["result"]

    def _step(self, index: int, traced: bool,
              tracer: Optional[Tracer]) -> Op:
        text, n, weights = self.inputs[index]
        start = time.perf_counter()
        if traced and tracer is not None:
            answer = self._traced(index, text, n, weights, self.store,
                                  tracer)
        else:
            answer = self._untraced(text, n, weights, self.store)
        # ops are classed by cell, so the traced and untraced halves
        # are compared cell by cell (overhead_ratio)
        return Op(index, f"cell{inputs.cold_cell(index):02d}", start,
                  time.perf_counter(), traced=traced, answer=answer)

    def run(self, tracer: Optional[Tracer]) -> None:
        self.closed_loop(len(self.inputs),
                         lambda i, t: self._step(i, t, tracer), tracer)

    def circuit_nodes(self) -> float:
        from repro.compile.dnnf_compiler import DnnfCompiler
        from repro.logic.cnf import Cnf
        sizes = [op.answer[1] for op in self.ops[:self.nodes_over]]
        for text, _, _ in self.inputs[len(sizes):self.nodes_over]:
            root = DnnfCompiler(store=None).compile(Cnf.from_dimacs(text))
            sizes.append(root.node_count())
        return statistics.geometric_mean(sizes)

    def check(self, count_ref: Reference = proof_counts) -> int:
        facade = self.facade
        rng = inputs.stream(self.seed, self.name, "check-sample")
        wanted = count_ref([self.inputs[op.index][0] for op in self.ops])
        for op, want in zip(self.ops, wanted):
            text, n, weights = self.inputs[op.index]
            key, _, count, wmc = op.answer
            if want is None or count != want:
                self.fail(op.index, f"count {count} != proved {want}")
            if rng.random() < 0.25:
                with interp_backend():
                    ref = facade.query_ir(self.store.load_nnf(key), "wmc",
                                          num_vars=n, weights=weights)
                if not close(wmc, ref["result"]):
                    self.fail(op.index, f"wmc {wmc} != interpreter "
                                        f"{ref['result']}")
        return len(self.failed_ops)


# =============================================================================
@dataclass
class Kb:
    text: str
    key: str
    num_vars: int
    nodes: int
    maps: List[Dict[int, float]]
    batches: List[List[Dict[int, float]]]


def query_args(kb: Kb, kind: str, variant: int
               ) -> Tuple[str, Dict[str, Any]]:
    """The facade query and keyword arguments of one op class."""
    if kind == "wmc_batch":
        return "wmc", {"num_vars": kb.num_vars,
                       "weight_batch": kb.batches[variant]}
    if kind in ("wmc", "mpe"):
        return kind, {"num_vars": kb.num_vars,
                      "weights": kb.maps[variant]}
    return kind, {"num_vars": kb.num_vars}


class QueryWarm(Workload):
    """Answering queries on compiled circuits."""

    name = "query_warm"
    rss_at_op = 500
    schedule_length = 4096

    def setup(self) -> None:
        import numpy  # noqa: F401
        from repro.ir import facade
        from repro.ir.store import ArtifactStore
        self.facade = facade
        self.store = ArtifactStore(self.work / "store")
        corpus = inputs.WARM_CORPUS[:4] if self.short else \
            inputs.WARM_CORPUS
        self.kbs: List[Kb] = []
        for slot, spec in enumerate(corpus):
            text = inputs.kb_input(self.seed, "warm", slot, spec)
            ticket = facade.compile_ticket(text)
            outcome = facade.compile_to_store(ticket, self.store)
            maps, batches = inputs.kb_weights(self.seed, "warm", slot,
                                              ticket.num_vars)
            kb = Kb(text, ticket.key, ticket.num_vars,
                    outcome.circuit_nodes, maps, batches)
            self.kbs.append(kb)
            for kind in ("count", "marginals", "wmc", "mpe", "wmc_batch"):
                self._query(kb, kind, 0)
        self.schedule = inputs.warm_schedule(
            self.seed, len(self.kbs), self.schedule_length)
        from repro.ir.kernel import ir_kernel
        self.kernels = [ir_kernel(self.store.load_nnf(kb.key))
                        for kb in self.kbs]

    def _codegen_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for kernel in self.kernels:
            for name, value in codegen_stats(kernel).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def _query(self, kb: Kb, kind: str, variant: int) -> Dict[str, Any]:
        query, kwargs = query_args(kb, kind, variant)
        return self.facade.query_artifact(self.store, kb.key, query,
                                          **kwargs)

    def _traced(self, index: int, kb: Kb, kind: str, variant: int,
                tracer: Tracer) -> Dict[str, Any]:
        """query_artifact = load_artifact + query_ir, spanned."""
        query, kwargs = query_args(kb, kind, variant)
        before = self.store.stats.as_dict()
        with tracer.op(index):
            with tracer.span("store.read"):
                ir = self.store.load_nnf(kb.key)
            with tracer.span("eval." + kind):
                result = self.facade.query_ir(
                    ir, query, codegen_store=self.store, **kwargs)
        _count_store(tracer, _store_delta(before,
                                          self.store.stats.as_dict()))
        if kind == "wmc_batch":
            tracer.count("eval.batch_rows", len(kb.batches[variant]))
        return result

    @staticmethod
    def _answer(kind: str, result: Dict[str, Any]) -> Any:
        if kind == "mpe":
            return (result["result"], tuple(sorted(result["model"].items())))
        return result["result"]

    def _step(self, index: int, traced: bool,
              tracer: Optional[Tracer]) -> Op:
        kind, kb_index, variant = self.schedule[index %
                                                len(self.schedule)]
        kb = self.kbs[kb_index]
        start = time.perf_counter()
        if traced and tracer is not None:
            result = self._traced(index, kb, kind, variant, tracer)
        else:
            result = self._query(kb, kind, variant)
        end = time.perf_counter()
        return Op(index, kind, start, end, traced=traced,
                  answer=self._answer(kind, result),
                  extra={"kb": kb_index, "variant": variant})

    def run(self, tracer: Optional[Tracer]) -> None:
        before = self._codegen_totals()
        self.closed_loop(1 << 30, lambda i, t: self._step(i, t, tracer),
                         tracer)
        after = self._codegen_totals()
        self.codegen_delta = {k: v - before.get(k, 0)
                              for k, v in after.items()}

    def per_layer(self, tracer: Tracer) -> Dict[str, float]:
        # the evaluators were compiled in setup; any codegen work in
        # the timed ops shows as a whole-run delta per op
        out = super().per_layer(tracer)
        ops = max(1, len(self.ops))
        delta = self.codegen_delta
        out["codegen.compiles"] = delta.get("codegen_compiles", 0) / ops
        out["codegen.fallbacks"] = delta.get("codegen_fallbacks", 0) / ops
        out["codegen.source_hit_ratio"] = (
            delta.get("codegen_source_hits", 0) /
            delta["codegen_compiles"]) if delta.get("codegen_compiles") \
            else 0.0
        return out

    def circuit_nodes(self) -> float:
        return mean(kb.nodes for kb in self.kbs)

    def _reference(self, key: Tuple, op: Op) -> Any:
        kind, kb_index, variant = key
        kb = self.kbs[kb_index]
        query, kwargs = query_args(kb, kind, variant)
        with interp_backend():
            result = self.facade.query_ir(self.store.load_nnf(kb.key),
                                          query, **kwargs)
        return self._answer(kind, result)

    def check(self, count_ref: Reference = proof_counts) -> int:
        counts = count_ref([kb.text for kb in self.kbs])
        groups: Dict[Tuple, List[Op]] = {}
        for op in self.ops:
            kb = op.extra["kb"]
            if op.kind == "count":
                if counts[kb] is None or op.answer != counts[kb]:
                    self.fail(op.index, f"count {op.answer} != proved "
                                        f"{counts[kb]}")
                continue
            if op.kind == "marginals" and (
                    counts[kb] is None or
                    not marginals_consistent(op.answer, counts[kb])):
                self.fail(op.index, "marginals do not partition the "
                                    "proved count")
            groups.setdefault((op.kind, kb, op.extra["variant"]),
                              []).append(op)
        self.check_groups(groups, self._reference, sample=40)
        return len(self.failed_ops)


# =============================================================================
def start_server(work: Path, env: Dict[str, str], workers: int
                 ) -> Tuple[subprocess.Popen, str, int]:
    """``repro serve --port 0`` in its own process; returns it with
    the address it printed once listening."""
    import select
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--workers", str(workers), "--cache-dir", str(work / "store")]
    proc = subprocess.Popen(cmd, cwd=str(work), env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    deadline = time.monotonic() + 60.0
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            if line.startswith("c serve listening"):
                _, _, _, host, port = line.split()
                return proc, host, int(port)
            if not line:
                break
        if proc.poll() is not None:
            break
    stop_server(proc)
    raise RuntimeError("repro serve did not start")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server, which joins its workers before it exits.
    If it does not exit in time, its workers and then the server are
    killed, and the workers waited for until they are gone."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            workers = child_pids(proc.pid)
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and any(
                    os.path.exists(f"/proc/{pid}") for pid in workers):
                time.sleep(0.05)
    if proc.stdout is not None:
        proc.stdout.close()


class ServeMixed(Workload):
    """Service traffic through ``repro serve``."""

    name = "serve_mixed"
    rss_at_op = 300
    #: one request in flight: with two, the client, the front end and
    #: two workers contend for a 2-core host, and a slow stretch of the
    #: host slowed every request class by twice as much (six alternating
    #: runs of one seed: CV of p50_ms 0.12 with two, 0.07 with one)
    connections = 1
    #: proved compiles replayed in-process by the traced run
    replays = 12

    def setup(self) -> None:
        from repro.serve.client import ServeClient
        workers = os.cpu_count() or 1
        # the client threads, the server's front end and its workers
        # inherit one CPU: with one request in flight they take turns
        # anyway, and each hand-off to an idle CPU waits for the host to
        # wake it, a delay that grows with the host's load
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.server, host, port = start_server(self.work, self.env,
                                               workers)
        self.info["workers"] = workers
        self.info["cpu"] = cpu
        self.server_pid = self.server.pid
        client = ServeClient(host, port)
        corpus = inputs.SERVE_CORPUS[:4] if self.short else \
            inputs.SERVE_CORPUS
        self.kbs: List[Kb] = []
        for slot, spec in enumerate(corpus):
            text = inputs.kb_input(self.seed, "serve", slot, spec)
            status, reply = client.compile(text)
            if status != 200:
                raise RuntimeError(f"corpus compile failed: {reply}")
            maps, batches = inputs.kb_weights(
                self.seed, "serve", slot, reply["num_vars"],
                inputs.SERVE_BATCH_ROWS)
            self.kbs.append(Kb(text, reply["key"], reply["num_vars"],
                               reply["circuit_nodes"], maps, batches))
        self.bodies = {}
        wire: Dict[int, Dict[str, float]] = {}  # batch rows share maps

        def encode(weights: Dict[int, float]) -> Dict[str, float]:
            if id(weights) not in wire:
                wire[id(weights)] = {str(k): v for k, v in weights.items()}
            return wire[id(weights)]

        for index, kb in enumerate(self.kbs):
            self.bodies[("count", index, 0)] = {
                "key": kb.key, "query": "count", "num_vars": kb.num_vars}
            for kind, rows in (("wmc", kb.maps), ("mpe", kb.maps)):
                for variant, weights in enumerate(rows):
                    self.bodies[(kind, index, variant)] = {
                        "key": kb.key, "query": kind,
                        "num_vars": kb.num_vars,
                        "weights": encode(weights)}
            for variant, batch in enumerate(kb.batches):
                self.bodies[("wmc_batch", index, variant)] = {
                    "key": kb.key, "query": "wmc",
                    "num_vars": kb.num_vars,
                    "weight_batch": [encode(row) for row in batch]}
        self.clients = [ServeClient(host, port)
                        for _ in range(self.connections)]
        self._warm_up(host, port)
        blocks = max(4, int(4 * self.seconds))
        self.schedules = [
            inputs.serve_schedule(self.seed, c, self.connections,
                                  len(self.kbs), blocks)
            for c in range(self.connections)]
        proofs = [sum(1 for op in s if op[0] == "proof_compile")
                  for s in self.schedules]
        self.proof_texts = [[inputs.proof_input(self.seed, c, i)
                             for i in range(proofs[c])]
                            for c in range(self.connections)]
        self.capped_texts = [[inputs.capped_input(self.seed, c, i)
                              for i in range(inputs.CAPPED_PER_CONNECTION)]
                             for c in range(self.connections)]
        self.stats_before = client.stats()
        client.close()

    def _warm_up(self, host: str, port: int) -> None:
        """Every worker answers every query class on every KB once, so
        timed queries find circuits decoded, evaluators compiled and
        counts memoised in whichever worker takes them."""
        from repro.serve.client import ServeClient
        workers = self.info["workers"]
        jobs = [body for key, body in self.bodies.items()
                if key[2] == 0]

        def warm() -> None:
            client = ServeClient(host, port)
            try:
                for body in jobs:
                    client.request("POST", "/query", body)
            finally:
                client.close()

        for _ in range(2):
            threads = [threading.Thread(target=warm)
                       for _ in range(2 * workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("serve warm-up did not finish")

    def _request(self, connection: int, op: inputs.ServeOp
                 ) -> Tuple[str, Dict[str, Any]]:
        name, index, variant = op
        if name == "dup_compile":
            return "/compile", {"dimacs": self.kbs[index].text}
        if name == "proof_compile":
            return "/compile", {"dimacs": self.proof_texts[connection][index],
                                "proof": True}
        if name == "capped_compile":
            return "/compile", {
                "dimacs": self.capped_texts[connection][index],
                "max_nodes": inputs.CAPPED_MAX_NODES}
        return "/query", self.bodies[(name, index, variant)]

    def rss_now(self) -> float:
        return tree_peak_rss_mb(self.server_pid)

    def _drive(self, connection: int, deadline: float,
               tracer: Optional[Tracer], out: List[Op],
               done: List[int], lock: threading.Lock) -> None:
        try:
            self._drive_loop(connection, deadline, tracer, out, done,
                             lock)
        except BaseException as exc:  # surfaced by run() after join
            self._thread_errors.append(exc)

    def _drive_loop(self, connection: int, deadline: float,
                    tracer: Optional[Tracer], out: List[Op],
                    done: List[int], lock: threading.Lock) -> None:
        client = self.clients[connection]
        for position, op in enumerate(self.schedules[connection]):
            if time.perf_counter() >= deadline:
                break
            path, body = self._request(connection, op)
            index = position * self.connections + connection
            traced = tracer is not None and self.coin(index)
            start = time.perf_counter()
            try:
                status, reply = client.request("POST", path, body)
                error = None if status == 200 else \
                    f"HTTP {status}: {reply.get('error', reply)}"
            except Exception as exc:  # a failed request is a failed op
                status, reply, error = 0, {}, repr(exc)
            end = time.perf_counter()
            reply.pop("store_stats", None)
            reply.pop("model", None)
            out.append(Op(index, op[0], start, end, traced=traced,
                          answer=reply, error=error,
                          extra={"connection": connection,
                                 "kb": op[1], "variant": op[2]}))
            with lock:
                done[0] += 1
                if done[0] == self.rss_at_op:
                    self.rss_mb = self.rss_now()

    def run(self, tracer: Optional[Tracer]) -> None:
        lock = threading.Lock()
        done = [0]
        outs: List[List[Op]] = [[] for _ in range(self.connections)]
        start = time.perf_counter()
        deadline = start + self.seconds
        threads = [threading.Thread(target=self._drive,
                                    args=(c, deadline, tracer, outs[c],
                                          done, lock))
                   for c in range(self.connections)]
        self._thread_errors: List[BaseException] = []
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - start
        if self._thread_errors:
            raise self._thread_errors[0]
        if done[0] < self.rss_at_op or not self.rss_mb:
            self.rss_mb = self.rss_now()
        self.ops = sorted((op for out in outs for op in out),
                          key=lambda op: op.start)
        self.info["ops_exhausted"] = any(
            len(out) >= len(s) for out, s in zip(outs, self.schedules))
        client = self.clients[0]
        self.stats_after = client.stats()

    def circuit_nodes(self) -> float:
        return mean(kb.nodes for kb in self.kbs)

    def per_layer(self, tracer: Tracer) -> Dict[str, float]:
        """Request classes timed at the client, worker ``elapsed_s``,
        ``/stats`` deltas, then the proved and capped requests replayed
        in-process through repro.proof and repro.limits."""
        traced = [op for op in self.ops if op.traced]
        for op in traced:
            tracer.add("serve." + op.kind, op.start, op.end, op.index)

        def latency_ms(*kinds: str) -> float:
            return 1e3 * mean(op.latency for op in traced
                              if op.kind in kinds)

        compiles = [op for op in traced
                    if op.error is None and "elapsed_s" in op.answer]
        worker = sum(op.answer["elapsed_s"] for op in compiles)
        round_trip = sum(op.latency for op in compiles)
        before = self.stats_before["frontend"]
        after = self.stats_after["frontend"]

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        requests = delta("compile_requests")
        out = {
            "serve.query_ms": latency_ms("wmc", "wmc_batch", "mpe",
                                         "count"),
            "serve.dup_compile_ms": latency_ms("dup_compile"),
            "serve.cold_compile_ms": latency_ms("proof_compile"),
            "serve.bounds_ms": latency_ms("capped_compile"),
            "serve.overhead_ms": 1e3 * (round_trip - worker) /
            len(compiles) if compiles else 0.0,
            "serve.cached_ratio": delta("compile_store_hits") / requests
            if requests else 0.0,
            "serve.rejected": delta("admission_rejects"),
            "serve.errors": sum(1 for op in self.ops
                                if op.error is not None),
            "trace.coverage": worker / round_trip if round_trip else 0.0,
            "trace.overhead_ratio": overhead_ratio(
                [(op.traced, op.kind, op.latency) for op in self.ops]),
        }
        out.update(self._replay(tracer))
        return out

    def _replay(self, tracer: Tracer) -> Dict[str, float]:
        from repro.compile.dnnf_compiler import DnnfCompiler
        from repro.ir import facade
        from repro.ir.store import ArtifactStore
        from repro.logic.cnf import Cnf
        from repro.proof import PROVED, check_proof
        sent = [op for op in self.ops
                if op.kind == "proof_compile"][:self.replays]
        steps = proved = 0
        for op in sent:
            text = self.proof_texts[op.extra["connection"]][op.extra["kb"]]
            with tracer.span("proof.compile"):
                compiler = DnnfCompiler(store=None, proof=True)
                compiler.compile(Cnf.from_dimacs(text))
            with tracer.span("proof.check"):
                result = check_proof(text, compiler.last_proof or "")
            steps += result.steps
            proved += result.verdict == PROVED
        store = ArtifactStore(self.work / "replay")
        decisions = []
        for texts in self.capped_texts:
            for text in texts:
                ticket = facade.compile_ticket(text)
                with tracer.span("limits.bounds"):
                    outcome = facade.compile_or_bounds(
                        ticket, store, max_nodes=inputs.CAPPED_MAX_NODES)
                decisions.append(getattr(outcome, "decisions", 0))
        totals, calls = tracer.totals(), tracer.calls()

        def ms(name: str) -> float:
            return 1e3 * totals[name] / calls[name] if calls.get(name) \
                else 0.0

        return {"proof.compile_ms": ms("proof.compile"),
                "proof.check_ms": ms("proof.check"),
                "proof.steps": steps / len(sent) if sent else 0.0,
                "proof.proved_ratio": proved / len(sent) if sent else 0.0,
                "limits.bounds_ms": ms("limits.bounds"),
                "limits.decisions": mean(decisions)}

    def _reference(self, key: Tuple, op: Op) -> Any:
        from repro.ir import facade
        kind, kb_index, variant = key
        query, kwargs = query_args(self.kbs[kb_index], kind, variant)
        with interp_backend():
            result = facade.query_ir(
                self.reader.load_nnf(self.kbs[kb_index].key), query,
                **kwargs)
        return (result["result"], None) if kind == "mpe" else \
            result["result"]

    def check(self, count_ref: Reference = proof_counts) -> int:
        from repro.ir.store import ArtifactStore
        # the server's store, opened in this process for the references
        self.reader = ArtifactStore(self.work / "store")
        capped_texts = [t for texts in self.capped_texts for t in texts]
        flat = count_ref([kb.text for kb in self.kbs] + capped_texts)
        counts, rest = flat[:len(self.kbs)], flat[len(self.kbs):]
        per = inputs.CAPPED_PER_CONNECTION
        capped = [rest[c * per:(c + 1) * per]
                  for c in range(self.connections)]
        groups: Dict[Tuple, List[Op]] = {}
        for op in self.ops:
            reply, kb = op.answer, op.extra["kb"]
            if op.error is not None:
                self.fail(op.index, op.error)
            elif op.kind == "count":
                if counts[kb] is None or reply.get("result") != \
                        str(counts[kb]):
                    self.fail(op.index, f"count {reply.get('result')} "
                                        f"!= proved {counts[kb]}")
            elif op.kind in ("wmc", "wmc_batch", "mpe"):
                answer = reply.get("result")
                op.answer = (answer, None) if op.kind == "mpe" else answer
                groups.setdefault((op.kind, kb, op.extra["variant"]),
                                  []).append(op)
            elif op.kind == "dup_compile":
                want = self.kbs[kb]
                if reply.get("status") != "ok" or not reply.get("cached") \
                        or reply.get("key") != want.key or \
                        reply.get("circuit_nodes") != want.nodes:
                    self.fail(op.index, f"duplicate compile {reply}")
            elif op.kind == "proof_compile":
                if reply.get("status") != "ok" or \
                        reply.get("proved") is not True:
                    self.fail(op.index, f"proof compile {reply}")
            else:
                ref = capped[op.extra["connection"]][kb]
                if reply.get("status") != "bounds" or ref is None or \
                        not int(reply["lower"]) <= ref <= \
                        int(reply["upper"]):
                    self.fail(op.index, f"capped compile {reply} vs "
                                        f"proved {ref}")
        self.check_groups(groups, self._reference, sample=40)
        return len(self.failed_ops)

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        if getattr(self, "server", None) is not None:
            stop_server(self.server)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (CompileCold, QueryWarm, ServeMixed)}
