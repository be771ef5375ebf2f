"""The worker pool: where compiles and queries actually run.

Heavy work never runs on the event loop.  N forked worker processes
take jobs over pipes that the event loop reads and writes itself;
each worker opens its *own* handle on the shared
:class:`~repro.ir.store.ArtifactStore` directory, so a circuit
compiled by any worker is a warm load (cert hit + ``.csr`` mmap) for
every other worker and for every later process.  Workers additionally
keep a small in-process LRU of decoded circuits so a hot key skips
even the mmap parse, and its kernel keeps the levelized evaluator.

Worker entry points (:func:`run_compile`, :func:`run_query`) are
module-level functions taking/returning plain dicts — the pickle
boundary — and never raise: every failure is encoded as a status so
the server can map it to an HTTP code.  Each reply carries the delta
of the worker store's counters for that call, which the app aggregates
into the served `/stats`.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import pickle
import signal
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..ir import facade
from ..ir.store import ArtifactStore
from ..limits.budget import Budget, BudgetExceeded
from ..perf.instrument import Counter

__all__ = ["WorkerPool", "run_compile", "run_query", "init_worker"]

#: decoded circuits kept per worker process (keys are content hashes,
#: so entries never go stale)
IR_CACHE_SIZE = 128

_store: Optional[ArtifactStore] = None
_ir_cache: "OrderedDict[str, Any]" = OrderedDict()
#: the parent's ends of every live pool's pipes in this process; a
#: forked worker closes them all, so a worker reads end-of-file as soon
#: as its own pool closes its end
_parent_ends: Set[Any] = set()


def init_worker(cache_root: str, verify: bool = True) -> None:
    """Per-process setup: open this worker's store handle."""
    global _store
    _store = ArtifactStore(cache_root, verify=verify)
    _ir_cache.clear()


def _require_store() -> ArtifactStore:
    if _store is None:
        raise RuntimeError("worker not initialised; init_worker() "
                           "must run first")
    return _store


def _stats_delta(before: Dict[str, int], after: Counter
                 ) -> Dict[str, int]:
    out = {}
    for name, value in after.as_dict().items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


def _cached_ir(store: ArtifactStore, key: str) -> Optional[Any]:
    ir = _ir_cache.get(key)
    if ir is not None:
        _ir_cache.move_to_end(key)
        store.stats.incr("ir_cache_hits")
        return ir
    ir = facade.load_artifact(store, key)
    if ir is not None:
        _ir_cache[key] = ir
        while len(_ir_cache) > IR_CACHE_SIZE:
            _ir_cache.popitem(last=False)
    return ir


def _cached_smallest(store: ArtifactStore, key: str) -> Optional[Any]:
    """The smallest certified variant for ``key`` as ``(ir,
    forgotten)``, cached under ``key@opt`` so the ranking and variant
    parse are paid once per worker."""
    slot = f"{key}@opt"
    entry = _ir_cache.get(slot)
    if entry is not None:
        _ir_cache.move_to_end(slot)
        store.stats.incr("ir_cache_hits")
        return entry
    smallest = store.load_smallest(key)
    if smallest is None:
        return None
    ir, info = smallest
    entry = (ir, frozenset(info.get("forgotten", ())))
    _ir_cache[slot] = entry
    while len(_ir_cache) > IR_CACHE_SIZE:
        _ir_cache.popitem(last=False)
    return entry


def _wire(value: Any) -> Any:
    """A query answer with what a JSON number cannot carry sent as
    text: an int count (a double is exact only to 2^53) and a
    non-finite float (RFC 8259 has no NaN or Infinity: ``"inf"``,
    ``"-inf"``, ``"nan"``), in lists and dicts too."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int) or \
            (isinstance(value, float) and not math.isfinite(value)):
        return str(value)
    if isinstance(value, list):
        return [_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: _wire(item) for key, item in value.items()}
    return value


def run_compile(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compile a ticket into the shared store (worker side).

    ``payload`` is a :meth:`CompileTicket.as_wire` dict plus optional
    ``deadline_s`` / ``max_nodes`` caps.  Returns a status dict:
    ``ok`` (artifact stored, possibly warm), ``bounds`` (budget
    expired → certified interval), ``invalid`` or ``error``.
    """
    store = _require_store()
    before = dict(store.stats.as_dict())
    try:
        ticket = facade.CompileTicket(
            key=payload["key"], num_vars=payload["num_vars"],
            dimacs=payload["dimacs"], config=payload["config"])
        outcome = facade.compile_or_bounds(
            ticket, store,
            deadline_s=payload.get("deadline_s"),
            max_nodes=payload.get("max_nodes"),
            optimize=bool(payload.get("optimize", False)),
            proof=bool(payload.get("proof", False)))
        reply = outcome.as_wire()
    except ValueError as error:
        reply = {"status": "invalid", "error": str(error)}
    except Exception as error:  # never poison the pool
        reply = {"status": "error",
                 "error": f"{type(error).__name__}: {error}"}
    reply["pid"] = os.getpid()
    reply["store_stats"] = _stats_delta(before, store.stats)
    return reply


def run_query(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one query on a stored artifact (worker side)."""
    store = _require_store()
    before = dict(store.stats.as_dict())
    try:
        forgotten: Any = frozenset()
        if payload.get("optimize"):
            entry = _cached_smallest(store, payload["key"])
            ir = entry[0] if entry is not None else None
            if entry is not None:
                forgotten = entry[1]
        else:
            ir = _cached_ir(store, payload["key"])
        if ir is None:
            reply: Dict[str, Any] = {"status": "not_found",
                                     "error": "unknown artifact key "
                                              + payload["key"]}
        elif payload["query"] == "explain":
            deadline = payload.get("deadline_s")
            budget = Budget(deadline_s=deadline) if deadline else None
            instance = {int(k): bool(v)
                        for k, v in payload["instance"].items()}
            reply = facade.explain_ir(
                ir, instance, limit=payload.get("limit"),
                smallest=bool(payload.get("smallest", False)),
                budget=budget, forgotten=forgotten)
            # anytime degradation: an expired budget is still a 200
            # with complete=false + partial, never a 408
            reply["status"] = "ok"
        else:
            deadline = payload.get("deadline_s")
            budget = Budget(deadline_s=deadline) if deadline else None
            weights = payload.get("weights")
            if weights is not None:
                weights = {int(k): float(v) for k, v in weights.items()}
            batch = payload.get("weight_batch")
            if batch is not None:
                batch = [{int(k): float(v) for k, v in row.items()}
                         for row in batch]
            reply = facade.query_ir(
                ir, payload["query"], num_vars=payload.get("num_vars"),
                weights=weights, weight_batch=batch, budget=budget,
                forgotten=forgotten)
            reply["status"] = "ok"
            reply["result"] = _wire(reply["result"])
            if "count" in reply:
                reply["count"] = str(reply["count"])
    except BudgetExceeded as error:
        reply = {"status": "budget_exceeded", "error": str(error),
                 "reason": error.reason}
    except ValueError as error:
        reply = {"status": "invalid", "error": str(error)}
    except Exception as error:
        reply = {"status": "error",
                 "error": f"{type(error).__name__}: {error}"}
    reply["pid"] = os.getpid()
    reply["store_stats"] = _stats_delta(before, store.stats)
    return reply


class _Worker:
    """One forked worker, the parent's ends of its two pipes, its job."""

    __slots__ = ("process", "jobs", "replies", "job")

    def __init__(self, process: Any, jobs: Any, replies: Any) -> None:
        self.process = process
        self.jobs = jobs
        self.replies = replies
        self.job: Optional["asyncio.Future[Dict[str, Any]]"] = None


def _worker_main(jobs: Any, replies: Any, cache_root: str,
                 verify: bool) -> None:
    """A worker's life: answer ``(fn, payload)`` messages until the
    pool closes its end of the job pipe."""
    for other in list(_parent_ends):
        other.close()
    _parent_ends.clear()
    # the parent decides when workers stop: it closes their pipes
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    init_worker(cache_root, verify)
    while True:
        try:
            fn, payload = pickle.loads(jobs.recv_bytes())
        except EOFError:  # the pool closed its end
            return
        reply = pickle.dumps(fn(payload))
        try:
            replies.send_bytes(reply)
        except BrokenPipeError:  # the pool shut down mid-job
            return


class WorkerPool:
    """N forked workers over one shared artifact directory.

    Each worker reads jobs from one pipe and writes replies to
    another.  The event loop sends a job to an idle worker and reads
    the reply in a reader callback, so no thread stands between the
    loop and a worker.  Jobs beyond the idle workers wait in a queue.
    A worker that dies fails the job it held (the server answers 500)
    and the others carry on.

    With ``workers=0`` the same entry points run on an in-process
    thread pool instead (tests, single-core deployments) — one store
    handle, no pickling, and the event loop stays responsive.
    """

    def __init__(self, cache_root: str, workers: int = 2,
                 verify: bool = True) -> None:
        self.cache_root = cache_root
        self.workers = max(0, int(workers))
        self.verify = verify
        self._executor: Optional[ThreadPoolExecutor] = None
        self._workers: List[_Worker] = []
        self._idle: Deque[_Worker] = deque()
        self._queue: Deque[Tuple[Any, Dict[str, Any], Any]] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        if self.workers == 0:
            init_worker(cache_root, verify)
            self._executor = ThreadPoolExecutor(max_workers=2)
            return
        # fork every worker NOW: forking after the asyncio loop (and
        # its helper threads) start is unsafe
        context = multiprocessing.get_context("fork")
        for _ in range(self.workers):
            their_jobs, jobs = context.Pipe(duplex=False)
            replies, their_replies = context.Pipe(duplex=False)
            _parent_ends.update((jobs, replies))
            process = context.Process(
                target=_worker_main, daemon=True,
                args=(their_jobs, their_replies, cache_root, verify))
            process.start()
            their_jobs.close()
            their_replies.close()
            self._workers.append(_Worker(process, jobs, replies))

    async def run(self, fn: Any, payload: Dict[str, Any]
                  ) -> Dict[str, Any]:
        """``fn(payload)`` on a worker; ``fn`` is one of the module's
        entry points.  Always called on the server's one event loop."""
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            return await loop.run_in_executor(self._executor, fn, payload)
        if self._loop is None:  # first job: read replies on this loop
            self._loop = loop
            for worker in self._workers:
                loop.add_reader(worker.replies.fileno(), self._on_reply,
                                worker)
                self._idle.append(worker)
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._queue.append((fn, payload, future))
        self._pump()
        return await future

    def _pump(self) -> None:
        """Hand queued jobs to idle workers.  The write blocks the loop
        only while an idle worker, already waiting on its pipe, reads
        the job in."""
        while self._queue and self._idle:
            fn, payload, future = self._queue.popleft()
            if future.done():  # its request was cancelled
                continue
            worker = self._idle.popleft()
            try:
                worker.jobs.send_bytes(pickle.dumps((fn, payload)))
            except OSError:
                self._queue.appendleft((fn, payload, future))
                self._retire(worker)
                continue
            worker.job = future
        if all(w.replies.closed for w in self._workers):
            while self._queue:
                future = self._queue.popleft()[2]
                if not future.done():
                    future.set_exception(
                        RuntimeError("no live worker processes"))

    def _on_reply(self, worker: _Worker) -> None:
        """A worker's reply pipe is readable: its reply, which the
        worker writes in one go, or end-of-file when it died."""
        try:
            reply = pickle.loads(worker.replies.recv_bytes())
        except (EOFError, OSError):
            self._retire(worker)
        else:
            future, worker.job = worker.job, None
            if future is not None and not future.done():
                future.set_result(reply)
            self._idle.append(worker)
        self._pump()

    def _retire(self, worker: _Worker) -> None:
        """Drop a worker whose pipe broke (it exited or was killed)."""
        if worker in self._idle:
            self._idle.remove(worker)
        if self._loop is not None:
            self._loop.remove_reader(worker.replies.fileno())
        if worker.job is not None and not worker.job.done():
            worker.job.set_exception(RuntimeError(
                f"worker process {worker.process.pid} exited"))
        worker.job = None
        self._close(worker)

    @staticmethod
    def _close(worker: _Worker) -> None:
        for end in (worker.jobs, worker.replies):
            _parent_ends.discard(end)
            end.close()

    def shutdown(self) -> None:
        """Close every worker's pipe and wait for it to exit: an idle
        worker reads end-of-file, a busy one finishes its job first."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            return
        self._idle.clear()
        for worker in self._workers:
            self._close(worker)
        for worker in self._workers:
            worker.process.join()
