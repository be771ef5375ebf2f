#!/usr/bin/env python3
"""Fingerprint what the search and the queries produce, for diffing builds.

Runs a fixed corpus through every front end of the component search
and through the facade's queries on the stored circuits, and prints
one SHA-256 per corpus part and output kind.  Run it on two
checkouts (``PYTHONPATH=<checkout>/src``) and diff the output: equal
lines mean the two builds wrote the same bytes and counters and gave
the same answers on that part of the corpus.

The corpus: the ``tools/proof_check.py`` inputs (its edge cases plus
``--random 25 --seed 17``), the first ``--cold`` inputs of
``perfbench.inputs.cold_input`` for each ``--seeds`` value, and the
``warm`` part: the first ``WARM_KBS`` knowledge bases of
``perfbench.inputs.WARM_CORPUS`` at seed 1 (72-144 variables, whose
or-gates leave out sets of several variables, which the small cold
inputs rarely do).  Per input:

* ``nnf`` / ``proof``: the ``.nnf`` bytes written by
  ``facade.compile_to_store`` into a fresh store with ``proof=False``
  and with ``proof=True``, and the ``.proof`` bytes of the latter;
* ``counters``: the compiler's ``decisions``, ``propagations``,
  ``clause_visits``, ``cache_hits``, ``component_splits``,
  ``components_found`` and ``proof_steps``, in both modes;
* ``counts``: ``ModelCounter().count`` and unbudgeted
  ``anytime_count``;
* ``wmc``: unbudgeted ``anytime_wmc`` with the input's weights (floats
  by ``repr``, so equal means bit-equal);
* ``queries``: on the ``proof=False`` store, the ``facade.query_artifact``
  replies to ``count``, ``marginals``, ``wmc`` and ``mpe`` (the input's
  weights) and to one ``weight_batch`` of the weights and their
  phase-swapped twin (floats by ``repr``); on a warm knowledge base
  the weights are its first ``perfbench.inputs.kb_weights`` map, and
  its 16- and 64-row batches are queried too;
* ``kernel``: on a fresh ``IrKernel`` over the stored circuit, the
  kernel surfaces the facade never reaches: ``sat``, ``sat_model``,
  ``evaluate`` and ``evaluate_batch`` on seeded assignments,
  ``wmc_log_batch``, ``derivatives_batch`` and
  ``derivatives_log_batch`` on seeded weight rows, and ``derivatives``
  and ``marginals`` of its ``smooth_ir`` twin (floats by ``repr``,
  arrays by their bytes);
* ``ac``: an ``ArithmeticCircuit`` over the formula's d-DNNF (the
  plain compile) plus two variables it does not mention, with the
  input's weights and seeded weights for those two: its scalar
  ``evaluate``, ``derivatives`` and ``literal_marginals`` (the maps by
  sorted items, since key order is no part of the answer);
* ``psdd`` (the ``proof_check`` part only): the PSDD of the formula's
  SDD with seeded θs, queried with ``marginal``, ``marginal_batch``,
  ``variable_marginals``, ``mpe`` on seeded evidence and
  ``support_size``;
* ``store``: the file extensions that store holds after those queries,
  printed as their union over the part rather than digested, so a
  change in what the store keeps reads directly.

The warm part prints only its ``queries`` and ``kernel`` digests.

The query digests read the answers of whichever evaluator
``$REPRO_BACKEND`` selects; run both to cover the plan and the
interpreter.

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

QUERIES = ("count", "marginals", "wmc", "mpe")

#: knowledge bases of the warm part, and the seed they are drawn at
WARM_KBS = 4
WARM_SEED = 1


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


def answers(store, ticket, weights, batches) -> list:
    """The facade's replies on the stored circuit, one per query kind
    plus one per weight batch: the weights and their phase-swapped
    twin, then each of ``batches``."""
    from repro.ir import facade
    replies = [facade.query_artifact(
        store, ticket.key, query, num_vars=ticket.num_vars,
        weights=weights if query in ("wmc", "mpe") else None)
        for query in QUERIES]
    swapped = {lit: weights[-lit] for lit in weights}
    for batch in [[weights, swapped], *batches]:
        replies.append(facade.query_artifact(
            store, ticket.key, "wmc", num_vars=ticket.num_vars,
            weight_batch=batch))
    return replies


def _encode(value) -> bytes:
    """Canonical bytes of an answer: arrays by dtype, shape and
    contents, containers item by item, anything else (floats
    included) by ``repr``."""
    if hasattr(value, "tobytes"):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_encode(v) for v in value) + b"]"
    if isinstance(value, dict):
        return b"{" + b",".join(_encode(k) + b":" + _encode(v)
                                for k, v in value.items()) + b"}"
    return repr(value).encode()


def kernel_answers(ir, num_vars: int, seed: str) -> str:
    """SHA-256 of the kernel surfaces on one circuit and its smooth
    twin, under seeded assignments and weight rows."""
    import numpy as np
    from repro.ir.kernel import IrKernel
    from repro.ir.passes import smooth_ir
    rng = random.Random(seed)
    variables = range(1, num_vars + 1)
    rows = 3
    assignment = {v: rng.random() < 0.5 for v in variables}
    assignment_rows = {v: np.array([rng.random() < 0.5
                                    for _ in range(rows)])
                       for v in variables}
    weight_rows = {lit: np.array([rng.uniform(0.05, 1.0)
                                  for _ in range(rows)])
                   for v in variables for lit in (v, -v)}
    log_rows = {lit: np.log(row) for lit, row in weight_rows.items()}
    kernel = IrKernel(ir)
    twin = IrKernel(smooth_ir(ir))
    return hashlib.sha256(_encode([
        kernel.sat(), kernel.sat_model(), kernel.evaluate(assignment),
        kernel.evaluate_batch(assignment_rows),
        kernel.wmc_log_batch(log_rows),
        kernel.derivatives_batch(weight_rows),
        kernel.derivatives_log_batch(log_rows),
        twin.derivatives(), twin.marginals()])).hexdigest()


def ac_answers(root, weights, num_vars: int, seed: str) -> str:
    """SHA-256 of the scalar ``ArithmeticCircuit`` queries on ``root``
    over its variables and two more that it does not mention."""
    from repro.wmc.arithmetic_circuit import ArithmeticCircuit
    rng = random.Random(seed)
    extra = [num_vars + 1, num_vars + 2]
    ac = ArithmeticCircuit(root, sorted(root.variables()) + extra)
    weights = dict(weights)
    for lit in (extra[0], -extra[0], extra[1], -extra[1]):
        weights[lit] = rng.uniform(0.05, 1.0)
    return hashlib.sha256(_encode([
        ac.evaluate(weights), sorted(ac.derivatives(weights).items()),
        sorted(ac.literal_marginals(weights).items())])).hexdigest()


def psdd_answers(text: str, seed: str) -> str:
    """SHA-256 of the PSDD queries on the formula's SDD with seeded
    θs and evidence (an unsatisfiable formula has no PSDD: its error
    is digested instead)."""
    from repro.logic.cnf import Cnf
    from repro.psdd import psdd_from_sdd
    from repro.psdd.queries import (marginal, marginal_batch, mpe,
                                    support_size, variable_marginals)
    from repro.sdd.compiler import compile_cnf_sdd
    root, _ = compile_cnf_sdd(Cnf.from_dimacs(text))
    try:
        psdd = psdd_from_sdd(root)
    except ValueError as error:
        return hashlib.sha256(str(error).encode()).hexdigest()
    rng = random.Random(seed)
    for node in psdd.descendants():
        if node.is_bernoulli:
            node.theta = rng.uniform(0.05, 0.95)
        elif node.is_decision:
            shares = [rng.uniform(0.1, 1.0) for _ in node.elements]
            total = sum(shares)
            for element, share in zip(node.elements, shares):
                element[2] = share / total
    variables = sorted(psdd.variables())
    evidence = [{v: rng.random() < 0.5 for v in variables
                 if rng.random() < 0.5} for _ in range(3)]
    return hashlib.sha256(_encode([
        marginal(psdd, evidence[0]), marginal_batch(psdd, evidence),
        variable_marginals(psdd), mpe(psdd, evidence[1]),
        support_size(psdd)])).hexdigest()


def record(text: str, weights, work: Path, psdd: bool) -> dict:
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
        else:
            out["queries"] = answers(store, ticket, weights, [])
            out["store"] = sorted({path.name.partition(".")[2]
                                   for path in store.root.glob("*/*")})
            out["kernel"] = kernel_answers(store.load_nnf(ticket.key),
                                           ticket.num_vars, ticket.key)
        compiler = DnnfCompiler(store=None, proof=proof)
        root = compiler.compile(Cnf.from_dimacs(ticket.dimacs))
        out[f"{mode}.counters"] = [compiler.stats[name]
                                   for name in COUNTERS]
        if not proof:
            out["ac"] = ac_answers(root, weights, ticket.num_vars,
                                   ticket.key)
    cnf = Cnf.from_dimacs(text)
    bounds = anytime_count(cnf)
    weighted = anytime_wmc(cnf, weights)
    out["counts"] = [str(ModelCounter().count(cnf)),
                     str(bounds.lower), str(bounds.upper)]
    out["wmc"] = [repr(weighted.lower), repr(weighted.upper)]
    if psdd:
        out["psdd"] = psdd_answers(text, ticket.key)
    return out


def warm_records(work: Path) -> list:
    """The ``queries`` and ``kernel`` answers on each warm knowledge
    base."""
    from perfbench.inputs import WARM_CORPUS, kb_input, kb_weights
    from repro.ir import facade
    from repro.ir.store import ArtifactStore
    records = []
    for slot, spec in enumerate(WARM_CORPUS[:WARM_KBS]):
        store = ArtifactStore(Path(tempfile.mkdtemp(dir=work)))
        ticket = facade.compile_ticket(
            kb_input(WARM_SEED, "warm", slot, spec))
        facade.compile_to_store(ticket, store)
        maps, batches = kb_weights(WARM_SEED, "warm", slot,
                                   ticket.num_vars)
        records.append({
            "queries": answers(store, ticket, maps[0], batches),
            "kernel": kernel_answers(store.load_nnf(ticket.key),
                                     ticket.num_vars, ticket.key)})
    return records


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
            with_psdd = name == "proof_check"
            records = [record(text, weights, Path(tmp), with_psdd)
                       for text, weights in part]
            dump[name] = records
            decisions = sum(r["plain.counters"][0] for r in records)
            kinds = sorted(set().union(*(r["store"] for r in records)))
            print(f"{name}: {len(records)} inputs, {decisions} decisions"
                  f" | nnf {digest(records, ['plain.nnf', 'proof.nnf'])}"
                  f" proof {digest(records, ['proof'])}"
                  f" counters "
                  f"{digest(records, ['plain.counters', 'proof.counters'])}"
                  f" counts {digest(records, ['counts'])}"
                  f" wmc {digest(records, ['wmc'])}"
                  f" queries {digest(records, ['queries'])}"
                  f" kernel {digest(records, ['kernel'])}"
                  f" ac {digest(records, ['ac'])}"
                  + (f" psdd {digest(records, ['psdd'])}" if with_psdd
                     else "")
                  + f" store {','.join(kinds)}", flush=True)
        records = warm_records(Path(tmp))
        dump["warm"] = records
        print(f"warm seed {WARM_SEED}: {len(records)} KBs"
              f" | queries {digest(records, ['queries'])}"
              f" kernel {digest(records, ['kernel'])}", flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
