"""Reference model counts, from proof-logged compiles.

    python3 -m perfbench.refcount < texts.json > counts.json

As a program it reads a JSON list of DIMACS texts and writes the JSON
list of their :func:`proof_count` values.  :func:`proof_counts` runs
two of these side by side and reaps both on every path out, so no
process it starts outlives the call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from typing import List, Optional, Sequence

from .common import ROOT, SRC

#: worker processes of one :func:`proof_counts` call
WORKERS = 2


def proof_count(dimacs: str) -> Optional[int]:
    """The model count the import-isolated proof checker derives from
    a proof-logged compile of ``dimacs``; None unless PROVED."""
    from repro.compile.dnnf_compiler import DnnfCompiler
    from repro.logic.cnf import Cnf
    from repro.proof import PROVED, check_proof
    compiler = DnnfCompiler(store=None, proof=True)
    compiler.compile(Cnf.from_dimacs(dimacs))
    result = check_proof(dimacs, compiler.last_proof or "")
    return result.model_count if result.verdict == PROVED else None


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def proof_counts(texts: Sequence[str]) -> List[Optional[int]]:
    """:func:`proof_count` of every text, dealt out to WORKERS fresh
    processes: checks run after the metrics are read, so they may use
    every core."""
    if len(texts) < 2 * WORKERS:
        return [proof_count(text) for text in texts]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    counts: List[Optional[int]] = [None] * len(texts)
    with ExitStack() as stack:
        running = []
        for worker in range(WORKERS):
            source = stack.enter_context(tempfile.TemporaryFile())
            sink = stack.enter_context(tempfile.TemporaryFile())
            source.write(json.dumps(list(texts[worker::WORKERS])).encode())
            source.seek(0)
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.refcount"],
                cwd=str(ROOT), env=env, stdin=source, stdout=sink)
            stack.callback(_reap, proc)
            running.append((worker, proc, sink))
        for worker, proc, sink in running:
            if proc.wait() != 0:
                raise RuntimeError(f"reference worker exited with "
                                   f"{proc.returncode}")
            sink.seek(0)
            counts[worker::WORKERS] = json.loads(sink.read())
    return counts


def main() -> int:
    texts = json.load(sys.stdin)
    json.dump([proof_count(text) for text in texts], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
