"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import common, inputs  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.tracer import END, OP, OP_ID, PARENT, START, Tracer  # noqa: E402
from perfbench.workloads import CompileCold, proof_counts  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def test_same_seed_gives_byte_identical_inputs() -> None:
    def draw(seed: int) -> str:
        parts = [inputs.cold_input(seed, i)[0] for i in range(5)]
        parts += [inputs.kb_input(seed, "warm", slot, spec)
                  for slot, spec in enumerate(inputs.WARM_CORPUS)]
        parts.append(repr(inputs.kb_weights(seed, "warm", 0, 72)))
        parts.append(repr(inputs.warm_schedule(seed, 10, 50)))
        parts.append(repr(inputs.serve_schedule(seed, 1, 2, 8, 2)))
        parts.append(inputs.proof_input(seed, 0, 3))
        return "".join(parts)

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_schedules_never_share_a_compile_between_connections() -> None:
    kbs = len(inputs.SERVE_CORPUS)
    owned = [{op[1] for op in inputs.serve_schedule(3, c, 2, kbs, 5)
              if op[0] == "dup_compile"} for c in range(2)]
    assert owned[0] and owned[1] and not owned[0] & owned[1]


@pytest.fixture
def cold(tmp_path: Path):
    env = common.pin_environment(tmp_path)
    workload = CompileCold(5, 1.0, tmp_path, env)
    workload.setup()
    yield workload
    workload.close()


def _steps(workload: CompileCold, count: int, tracer=None) -> None:
    workload.ops = [workload._step(i, tracer is not None, tracer)
                    for i in range(count)]


def test_same_seed_gives_identical_circuit_nodes(cold, tmp_path) -> None:
    _steps(cold, 6)
    again = CompileCold(5, 1.0, tmp_path / "again", cold.env)
    again.setup()
    _steps(again, 6)
    assert cold.circuit_nodes() == again.circuit_nodes() > 0


def test_wrong_reference_counts_the_op_as_failed(cold) -> None:
    _steps(cold, 4)
    assert cold.check() == 0
    assert cold.check(count_ref=lambda texts: [
        count + 1 for count in proof_counts(texts)]) == 4
    assert len(cold.failed_ops) == 4


def test_traced_spans_nest_and_share_their_op_id(cold) -> None:
    tracer = Tracer()
    _steps(cold, 3, tracer)
    roots = [s for s in tracer.spans if s[PARENT] is None]
    assert [s[0] for s in roots] == [OP] * 3
    assert len({s[OP_ID] for s in roots}) == 3
    for span in tracer.spans:
        if span[PARENT] is None:
            continue
        parent = tracer.spans[span[PARENT]]
        assert span[OP_ID] == parent[OP_ID]
        assert parent[START] <= span[START] <= span[END] <= parent[END]
    names = {s[0] for s in tracer.spans}
    assert {"parse", "compile", "lower", "store.write", "store.read",
            "kernel.build", "codegen.first_touch", "eval.wmc"} <= names
    assert all(0.5 < share <= 1.0 for share in tracer.coverages())
    assert all(op.answer[2] > 0 for op in cold.ops)
    assert cold.check() == 0


def _files(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _one_op(work: str, index: int, traced: bool) -> tuple:
    """One compile_cold op into a fresh store, in a fresh process (the
    kernels of interned circuits are shared within a process): its
    answer, the store's counters and the files it stored."""
    from repro.ir.store import ArtifactStore
    workload = CompileCold(11, 1.0, Path(work),
                           common.pin_environment(Path(work)))
    workload.setup()
    store = ArtifactStore(Path(work) / "op")
    text, n, weights = workload.inputs[index]
    if traced:
        answer = workload._traced(index, text, n, weights, store, Tracer())
    else:
        answer = workload._untraced(text, n, weights, store)
    return answer, store.stats.as_dict(), _files(Path(work) / "op")


@pytest.mark.parametrize("index", [0, 3])  # a light and a heavy cell
def test_traced_op_matches_the_facade(tmp_path, index) -> None:
    """A traced op makes compile_to_store's and query_artifact's calls
    one by one; on the same fresh formula it must give the same answer,
    store counters and stored files as the facade entry points."""
    context = multiprocessing.get_context("spawn")
    seen = []
    for traced in (False, True):
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            seen.append(pool.submit(_one_op, str(tmp_path / str(traced)),
                                    index, traced).result(timeout=300))
    assert seen[0][0] == seen[1][0]
    assert seen[0][1] == seen[1][1]
    assert seen[0][2].keys() == seen[1][2].keys()
    assert seen[0][2] == seen[1][2]


def test_benchmark_json_lists_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        ["compile_cold", "query_warm", "serve_mixed"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_mode_runs_every_workload(trace: str) -> None:
    out = subprocess.run(RUN + ["--workload", "all", "--seed", "2",
                                "--seconds", "1", "--short",
                                "--trace", trace],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0
    names = END_TO_END if trace == "0" else PER_LAYER
    for workload in ("compile_cold", "query_warm", "serve_mixed"):
        for name, unit in names:
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
    if trace == "1":
        assert result["metrics"]["query_warm.trace.coverage"]["value"] \
            >= 0.95


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
