"""Shared plumbing: pinned environment, statistics, memory, provenance.

Nothing here imports ``repro`` at module level, so the benchmark can
report a missing program tree cleanly before touching it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (this file lives in <root>/perfbench/)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file a run writes lives under here (removed when the run ends)
WORK_ROOT = ROOT / ".perfbench_work"
#: traced runs write their spans here
OUT_ROOT = ROOT / ".perfbench_out"

#: environment variables that silently change what the program does
PINNED_ENV = ("REPRO_CACHE_DIR", "REPRO_BACKEND", "REPRO_GATE",
              "REPRO_LEGACY")

#: candidate tail percentiles: the highest with >= TAIL_MIN_BEYOND
#: samples beyond it at the run's op count is reported.  Decades keep
#: the choice away from run-to-run op-count jitter.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` tree to measure."""


def pin_environment(work: Path) -> Dict[str, str]:
    """Clear the REPRO_* switches, keep temp files inside ``work``,
    and put the checkout's ``src`` first on the import path.  Returns
    the environment for the server subprocess."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program tree at {SRC / 'repro'}")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make_work_dir(workload: str, seed: int) -> Path:
    path = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# -- time ----------------------------------------------------------------------
def since_process_start() -> float:
    """Seconds since this process was created (kernel start time, so
    interpreter start-up counts), or 0.0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        ticks = os.sysconf("SC_CLK_TCK")
        return max(0.0, uptime - int(fields[19]) / ticks)
    except (OSError, ValueError, IndexError):
        return 0.0


def host_probe(rounds: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: a diagnostic
    of host speed recorded next to the metrics, never folded into
    them."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


# -- statistics ---------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least TAIL_MIN_BEYOND
    samples beyond it (the lowest candidate when too few samples)."""
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen


def latency_metrics(latencies_s: Sequence[float], wall_s: float
                    ) -> Tuple[Dict[str, float], float]:
    """ops_per_s, p50_ms and tail_ms of a closed loop, plus the tail
    percentile used."""
    pct = tail_percentile(len(latencies_s))
    return ({"ops_per_s": len(latencies_s) / wall_s,
             "p50_ms": percentile(latencies_s, 50.0) * 1e3,
             "tail_ms": percentile(latencies_s, pct) * 1e3}, pct)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- memory -------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS of ``pid`` and its direct children."""
    return sum(peak_rss_mb(p) for p in [pid] + child_pids(pid))


# -- provenance ---------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> Dict[str, object]:
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed}


def emit(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def mean(values: Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0
