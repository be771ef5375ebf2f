"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance and diagnostics.  ``--workload all`` runs every
workload, each in a fresh process.  See perfbench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.layers import complete  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: process age when this module started running (interpreter start-up)
_AGE0 = common.since_process_start() - (time.perf_counter() - _T0)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"),
              ("tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("circuit_nodes", "nodes"))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smaller corpora and at most one repeated "
                             "setup, for self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, workload: str,
           *extra: str) -> List[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    return cmd + list(extra)


def repeat_setup(args: argparse.Namespace) -> float:
    """One more setup, from process start, in a fresh process."""
    out = subprocess.run(_child(args, args.workload, "--setup-only"),
                         cwd=str(common.ROOT), capture_output=True,
                         text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a combined result last."""
    combined: Dict[str, object] = {"correct": True, "attempted": 0,
                                   "failed": 0, "metrics": {}}
    for workload in sorted(WORKLOADS):
        out = subprocess.run(_child(args, workload), cwd=str(common.ROOT),
                             capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    common.emit(combined)
    return 0


def run_one(args: argparse.Namespace) -> int:
    work = common.make_work_dir(args.workload, args.seed)
    try:
        env = common.pin_environment(work)
        workload = WORKLOADS[args.workload](args.seed, args.seconds, work,
                                            env, short=args.short)
        tracer = Tracer() if args.trace else None
        try:
            workload.setup()
            setup_s = _AGE0 + time.perf_counter() - _T0
            if args.setup_only:
                common.emit({"setup_s": setup_s})
                return 0
            probe = [common.host_probe()]
            workload.run(tracer)
            probe.append(common.host_probe())
            if tracer is None:
                metrics = workload.end_to_end()
            else:
                metrics = workload.per_layer(tracer)
            failed = workload.check()
        finally:
            workload.close()
        if not workload.ops:
            raise RuntimeError("no op completed")
        info: Dict[str, object] = dict(workload.info)
        info.update(common.provenance(args.seed))
        info.update({"workload": args.workload, "trace": args.trace,
                     "seconds": args.seconds, "host_probe_ms": probe})
        if tracer is None:
            repeats = workload.setup_repeats - 1
            setups = [setup_s] + [repeat_setup(args) for _ in
                                  range(min(1, repeats) if args.short
                                        else repeats)]
            metrics["setup_s"] = statistics.median(setups)
            info["setup_samples_s"] = setups
            values = {name: {"value": float(metrics[name]), "unit": unit}
                      for name, unit in END_TO_END}
        else:
            path = common.OUT_ROOT / f"trace-{args.workload}-" \
                                     f"seed{args.seed}.json"
            tracer.write(path)
            info["trace_file"] = str(path.relative_to(common.ROOT))
            values = complete(metrics)
        common.emit({"perfbench": info})
        common.emit({"correct": failed == 0, "attempted": len(workload.ops),
                     "failed": failed, "metrics": values})
        return 0
    finally:
        common.remove_work_dir(work)


def _terminate(signum: int, frame: object) -> None:
    # unwind through the finally blocks that stop the server and
    # remove the work directory
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except common.MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
