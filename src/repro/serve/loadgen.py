"""The load generator: duplicate-heavy mixed bursts against a server.

Drives the serving path the way the paper's economics say production
traffic looks: many clients asking for the *same* knowledge bases
(duplicate-heavy compiles that must collapse onto one compilation) and
then hammering the compiled artifacts with cheap online queries.
Used by ``repro bench-load``, ``tests/test_serve.py`` and the CI
smoke job.

Everything here is stdlib: ``threading`` clients (the server is the
concurrent piece under test), deterministic ``random.Random(seed)``
instances, and a tiny percentile helper.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Any, Dict, List, Optional

from .client import ServeClient

__all__ = ["random_3cnf_text", "percentile", "run_load"]


def random_3cnf_text(num_vars: int, num_clauses: int,
                     seed: int) -> str:
    """A deterministic random 3-CNF in DIMACS text."""
    rng = random.Random(seed)
    lines = [f"c loadgen seed={seed}", f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        lits = [v if rng.random() < 0.5 else -v for v in chosen]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def percentile(samples: List[float], fraction: float) -> float:
    """The ``fraction`` percentile (nearest-rank) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def _run_threads(jobs: List[Any], threads: int) -> None:
    """Run the job thunks across ``threads`` concurrent workers."""
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(jobs):
                    return
                cursor["next"] = index + 1
            jobs[index]()

    pool = [threading.Thread(target=worker, daemon=True)
            for _ in range(max(1, threads))]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


def run_load(host: str, port: int, *,
             distinct: int = 4, duplicates: int = 8,
             queries: int = 64, threads: int = 8,
             num_vars: int = 24, num_clauses: int = 60,
             seed: int = 0,
             deadline_s: Optional[float] = None) -> Dict[str, Any]:
    """One duplicate-heavy burst; returns the latency/hit-rate report.

    Phase 1 issues ``distinct * duplicates`` compile requests
    concurrently — ``duplicates`` copies of each of ``distinct`` CNFs,
    interleaved, so concurrent copies race and must dedup.  Phase 2
    issues ``queries`` mixed count/wmc/batched-wmc queries over the
    compiled artifacts, all warm.
    """
    instances = [random_3cnf_text(num_vars, num_clauses, seed + i)
                 for i in range(distinct)]
    compile_order = [i for i in range(distinct)
                     for _ in range(duplicates)]
    random.Random(seed).shuffle(compile_order)

    clients: List[ServeClient] = []
    local = threading.local()

    def client() -> ServeClient:
        if not hasattr(local, "client"):
            local.client = ServeClient(host, port)
            clients.append(local.client)
        return local.client

    lock = threading.Lock()
    compile_lat: List[float] = []
    query_lat: List[float] = []
    statuses: Dict[int, int] = {}
    keys: Dict[int, str] = {}
    dedup_flags: List[bool] = []
    failures: List[str] = []

    def record(status: int, elapsed: float, bucket: List[float],
               body: Dict[str, Any]) -> None:
        with lock:
            statuses[status] = statuses.get(status, 0) + 1
            bucket.append(elapsed * 1000.0)
            if status >= 500:
                failures.append(str(body.get("error", status)))

    def compile_job(instance: int) -> Any:
        def job() -> None:
            start = time.perf_counter()
            status, body = client().compile(
                instances[instance], deadline_s=deadline_s)
            record(status, time.perf_counter() - start, compile_lat,
                   body)
            if status == 200 and body.get("status") == "ok":
                with lock:
                    keys[instance] = body["key"]
                    dedup_flags.append(
                        bool(body.get("deduplicated") or
                             body.get("cached")))
        return job

    started = time.perf_counter()
    _run_threads([compile_job(i) for i in compile_order], threads)
    compile_wall = time.perf_counter() - started

    # phase 2: warm queries over whatever compiled successfully
    rng = random.Random(seed + 7919)
    query_jobs = []
    compiled = sorted(keys)
    for q in range(queries if compiled else 0):
        instance = compiled[q % len(compiled)]
        kind = rng.choice(["count", "count", "wmc", "wmc_batch"])

        def job(instance: int = instance, kind: str = kind) -> None:
            weights = None
            batch = None
            query = kind
            if kind == "wmc":
                weights = {1: 0.5, -1: 0.5}
            elif kind == "wmc_batch":
                query = "wmc"
                batch = [{1: 0.25, -1: 0.75}, {2: 0.5, -2: 0.5}]
            start = time.perf_counter()
            status, body = client().query(
                keys[instance], query, num_vars=num_vars,
                weights=weights, weight_batch=batch,
                deadline_s=deadline_s)
            record(status, time.perf_counter() - start, query_lat,
                   body)
        query_jobs.append(job)
    query_started = time.perf_counter()
    _run_threads(query_jobs, threads)
    query_wall = time.perf_counter() - query_started
    total_wall = time.perf_counter() - started

    server_stats: Dict[str, Any] = {}
    try:
        server_stats = client().stats()
    except (RuntimeError, ConnectionError, OSError):
        pass
    for c in clients:
        c.close()

    requests = len(compile_lat) + len(query_lat)
    compile_ok = len(dedup_flags)
    deduped = sum(dedup_flags)
    return {
        "requests": requests,
        "compile_requests": len(compile_lat),
        "query_requests": len(query_lat),
        "wall_s": round(total_wall, 6),
        "compile_wall_s": round(compile_wall, 6),
        "query_wall_s": round(query_wall, 6),
        "rps": round(requests / total_wall, 3) if total_wall else 0.0,
        "compile_p50_ms": round(percentile(compile_lat, 0.50), 3),
        "compile_p99_ms": round(percentile(compile_lat, 0.99), 3),
        "query_p50_ms": round(percentile(query_lat, 0.50), 3),
        "query_p99_ms": round(percentile(query_lat, 0.99), 3),
        "dedup_hit_rate": round(deduped / compile_ok, 4)
        if compile_ok else 0.0,
        "warm_hit_rate": server_stats.get("warm_hit_rate", 0.0),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "server_5xx": sum(v for k, v in statuses.items() if k >= 500),
        "failures": failures[:5],
        "keys": {str(i): keys[i] for i in sorted(keys)},
        "server_stats": server_stats,
    }
