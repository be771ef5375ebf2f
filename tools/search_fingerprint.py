#!/usr/bin/env python3
"""Fingerprint what the exhaustive search produces, for diffing builds.

Runs a fixed corpus through every front end of the component search
and prints one SHA-256 per corpus part and output kind.  Run it on two
checkouts (``PYTHONPATH=<checkout>/src``) and diff the output: equal
lines mean the two builds wrote the same bytes and counters and gave
the same answers on that part of the corpus.

The corpus: the ``tools/proof_check.py`` inputs (its edge cases plus
``--random 25 --seed 17``) and the first ``--cold`` inputs of
``perfbench.inputs.cold_input`` for each ``--seeds`` value.  Per input:

* ``nnf`` / ``proof``: the ``.nnf`` bytes written by
  ``facade.compile_to_store`` into a fresh store with ``proof=False``
  and with ``proof=True``, and the ``.proof`` bytes of the latter;
* ``counters``: the compiler's ``decisions``, ``propagations``,
  ``clause_visits``, ``cache_hits``, ``component_splits``,
  ``components_found`` and ``proof_steps``, in both modes;
* ``counts``: ``ModelCounter().count`` and unbudgeted
  ``anytime_count``;
* ``wmc``: unbudgeted ``anytime_wmc`` with the input's weights (floats
  by ``repr``, so equal means bit-equal).

Usage::

    PYTHONPATH=src python tools/search_fingerprint.py [--cold 300]
        [--seeds 1,2] [--dump records.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tools"))

COUNTERS = ("decisions", "propagations", "clause_visits", "cache_hits",
            "component_splits", "components_found", "proof_steps")


def corpus(cold: int, seeds):
    """``(part name, [(dimacs, weights), ...])`` for every corpus part."""
    from perfbench.inputs import cold_input, weight_map
    from proof_check import EDGE_CASES, random_corpus
    texts = EDGE_CASES + random_corpus(25, 17)
    rng = random.Random(17)
    proof_part = []
    for text in texts:
        num_vars = int(text.split()[2])
        proof_part.append((text, weight_map(rng, num_vars)))
    yield "proof_check", proof_part
    for seed in seeds:
        part = []
        for index in range(cold):
            text, _, weights = cold_input(seed, index)
            part.append((text, weights))
        yield f"cold seed {seed}", part


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(text: str, weights, work: Path) -> dict:
    from repro.compile.dnnf_compiler import DnnfCompiler
    from repro.ir import facade
    from repro.ir.store import ArtifactStore
    from repro.limits.anytime import anytime_count, anytime_wmc
    from repro.logic.cnf import Cnf
    from repro.sat.counter import ModelCounter
    out: dict = {}
    for proof in (False, True):
        store = ArtifactStore(Path(tempfile.mkdtemp(dir=work)))
        ticket = facade.compile_ticket(text)
        facade.compile_to_store(ticket, store, proof=proof)
        mode = "proof" if proof else "plain"
        out[f"{mode}.nnf"] = _sha(store.path_for(ticket.key, "nnf"))
        if proof:
            out["proof"] = _sha(store.path_for(ticket.key, "proof"))
        compiler = DnnfCompiler(store=None, proof=proof)
        compiler.compile(Cnf.from_dimacs(ticket.dimacs))
        out[f"{mode}.counters"] = [compiler.stats[name]
                                   for name in COUNTERS]
    cnf = Cnf.from_dimacs(text)
    bounds = anytime_count(cnf)
    weighted = anytime_wmc(cnf, weights)
    out["counts"] = [str(ModelCounter().count(cnf)),
                     str(bounds.lower), str(bounds.upper)]
    out["wmc"] = [repr(weighted.lower), repr(weighted.upper)]
    return out


def digest(records, fields) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec[f] for f in fields]).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cold", type=int, default=300,
                        help="cold_input formulas per seed")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--dump", help="write every record as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    dump = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, part in corpus(args.cold, seeds):
            records = [record(text, weights, Path(tmp))
                       for text, weights in part]
            dump[name] = records
            decisions = sum(r["plain.counters"][0] for r in records)
            print(f"{name}: {len(records)} inputs, {decisions} decisions"
                  f" | nnf {digest(records, ['plain.nnf', 'proof.nnf'])}"
                  f" proof {digest(records, ['proof'])}"
                  f" counters "
                  f"{digest(records, ['plain.counters', 'proof.counters'])}"
                  f" counts {digest(records, ['counts'])}"
                  f" wmc {digest(records, ['wmc'])}", flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
