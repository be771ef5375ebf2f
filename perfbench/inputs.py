"""Seeded input generation for the benchmark.

Everything here is pure stdlib and imports nothing from ``repro``: the
inputs a run measures are fixed by the seed alone, so no change to the
program under test can change what is measured.  Every random stream is
a ``random.Random`` seeded with a string that names the seed, the
workload and the item index; string seeds hash the same way in every
process, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Weights = Dict[int, float]


def stream(seed: int, *names: object) -> random.Random:
    """An independent, reproducible random stream for ``names``."""
    return random.Random(":".join(["perfbench", str(seed)] +
                                  [str(n) for n in names]))


def weight_map(rng: random.Random, num_vars: int) -> Weights:
    """Literal weights for variables ``1..num_vars``: ``W(v) = p`` and
    ``W(-v) = 1 - p`` with ``p`` drawn from [0.1, 0.9]."""
    weights: Weights = {}
    for var in range(1, num_vars + 1):
        p = round(rng.uniform(0.1, 0.9), 6)
        weights[var] = p
        weights[-var] = round(1.0 - p, 6)
    return weights


# -- block-structured random 3-CNFs ------------------------------------------

#: every formula here is the conjunction of independent random 3-CNF
#: blocks over disjoint variable ranges: (blocks, variables per block,
#: clause ratio).  Its cost is close to the sum of its blocks' costs,
#: so a formula of k blocks has the spread of one block shrunk by about
#: sqrt(k): every seed gets inputs of the same cost profile without
#: selecting inputs by what the program makes of them.
KbSpec = Tuple[int, int, float]


def block_cnf(rng: random.Random, spec: KbSpec) -> str:
    """A formula of independent random 3-CNF blocks in DIMACS text:
    ``round(size * ratio)`` clauses per block, each over three distinct
    variables of its block with random polarities; clauses shuffled."""
    blocks, size, ratio = spec
    clauses = []
    for block in range(blocks):
        base = block * size
        for _ in range(int(round(size * ratio))):
            picked = rng.sample(range(base + 1, base + size + 1), 3)
            clauses.append(" ".join(
                str(v if rng.random() < 0.5 else -v) for v in picked)
                + " 0")
    rng.shuffle(clauses)
    return "\n".join([f"p cnf {blocks * size} {len(clauses)}"] +
                     clauses) + "\n"


# -- compile_cold ----------------------------------------------------------

#: the cells the cold-compile stream rotates through: 30-54 variables at
#: clause ratios 2.2-3.6, in two or three blocks.  Twelve light cells
#: (~15-40 ms an op) and three heavy 54-variable cells (~85-150 ms: their
#: first exact count takes the interpreter fallback).  The heavy class
#: holds 3/15 of the ops, twice the 10% beyond the p90 tail, so the
#: tail falls near its middle.  The rotation length is odd so no fixed
#: stride of ops sees one cell.
COLD_CELLS: Tuple[KbSpec, ...] = (
    (2, 15, 2.2), (2, 16, 2.6), (2, 17, 3.0), (2, 27, 2.4), (3, 12, 2.2),
    (2, 18, 3.4), (2, 19, 3.2), (3, 13, 2.8), (2, 27, 2.4), (2, 20, 3.2),
    (2, 21, 3.4), (2, 22, 3.0), (2, 27, 2.4), (3, 15, 3.0), (2, 24, 3.6))


def cold_cell(index: int) -> int:
    """The position in COLD_CELLS of the ``index``-th cold-compile op."""
    return index % len(COLD_CELLS)


def cold_input(seed: int, index: int) -> Tuple[str, int, Weights]:
    """The ``index``-th cold-compile op: (DIMACS, num_vars, weights)."""
    spec = COLD_CELLS[cold_cell(index)]
    num_vars = spec[0] * spec[1]
    rng = stream(seed, "cold", index)
    return block_cnf(rng, spec), num_vars, weight_map(rng, num_vars)


# -- knowledge-base corpora (query_warm, serve_mixed) ------------------------

#: a block of 24 variables at ratio 2.2 compiles to ~700 nodes with a
#: spread of about a quarter, so a KB of k such blocks lands near k
#: times that with the spread a quarter over sqrt(k).
#:
#: query_warm: ten KBs of ~2k-17k nodes and 72-600 variables (exact
#: counts beyond 52 variables take the interpreter)
WARM_CORPUS: Tuple[KbSpec, ...] = tuple(
    (blocks, 24, 2.2) for blocks in (3, 4, 5, 6, 8, 10, 12, 15, 19, 25))

#: serve_mixed: eight KBs of one size (~2k nodes), so a duplicate
#: compile (which lifts the stored circuit back into NNF nodes) stays
#: below a proved cold compile, and the warm queries form tight classes
#: around the p50.  (With sizes of 0.7k-4k nodes the p50 fell where
#: the query classes thin out: one run 12% slower read a p50 30% higher.)
SERVE_CORPUS: Tuple[KbSpec, ...] = ((3, 24, 2.2),) * 8


def kb_input(seed: int, corpus: str, slot: int, spec: KbSpec) -> str:
    return block_cnf(stream(seed, corpus, slot), spec)


# -- query schedules ---------------------------------------------------------

#: query_warm op mix (kind, percent); batches are the heavy class
WARM_MIX: Tuple[Tuple[str, int], ...] = (
    ("wmc", 35), ("mpe", 22), ("count", 16), ("marginals", 17),
    ("wmc_batch", 10))

#: distinct weight maps drawn per KB: the scalar queries use the first
#: WEIGHT_MAPS_PER_KB, and batch rows are drawn from all of them (rows
#: share their dicts, so a batch costs the program its full size but
#: the benchmark only the pool)
WEIGHT_POOL = 16
WEIGHT_MAPS_PER_KB = 8
#: rows of each KB's weight batches
BATCH_ROWS = (16, 64)
BATCHES_PER_KB = len(BATCH_ROWS)
#: query_warm sends its batches to this many largest KBs, where batched
#: evaluation pays.  Each (KB, rows) group then holds 2.5% of the ops,
#: and the heaviest one, 64 rows on the largest KB, more than twice the
#: 1% beyond the p99 tail: the tail falls inside one homogeneous group,
#: not on the boundary between two.
BATCH_KBS = 2


def kb_weights(seed: int, corpus: str, kb: int, num_vars: int,
               rows: Tuple[int, ...] = BATCH_ROWS
               ) -> Tuple[List[Weights], List[List[Weights]]]:
    """Per-KB weight maps and one weight batch per entry of ``rows``."""
    rng = stream(seed, corpus, "weights", kb)
    pool = [weight_map(rng, num_vars) for _ in range(WEIGHT_POOL)]
    batches = [[pool[rng.randrange(WEIGHT_POOL)] for _ in range(count)]
               for count in rows]
    return pool[:WEIGHT_MAPS_PER_KB], batches


def _variants(kind: str) -> int:
    """Weight variants a query kind draws from (none for counts)."""
    if kind == "wmc_batch":
        return BATCHES_PER_KB
    return WEIGHT_MAPS_PER_KB if kind in ("wmc", "mpe") else 1


def warm_schedule(seed: int, kbs: int, length: int
                  ) -> List[Tuple[str, int, int]]:
    """A fixed seeded interleaving of query ops: (kind, kb, variant),
    where ``variant`` indexes the KB's weight maps or batches."""
    rng = stream(seed, "warm", "schedule")
    kinds = [k for k, _ in WARM_MIX]
    shares = [w for _, w in WARM_MIX]
    ops = []
    for _ in range(length):
        kind = rng.choices(kinds, shares)[0]
        if kind == "wmc_batch":
            kb = kbs - 1 - rng.randrange(min(BATCH_KBS, kbs))
        else:
            kb = rng.randrange(kbs)
        ops.append((kind, kb, rng.randrange(_variants(kind))))
    return ops


# -- serve_mixed -------------------------------------------------------------

#: request classes per block of 100 requests on one connection; the
#: scalar queries (count, wmc, mpe) hold 60%, so the p50 falls inside
#: them, between the wmc and mpe classes
SERVE_BLOCK: Tuple[Tuple[str, int], ...] = (
    ("wmc", 30), ("wmc_batch", 10), ("mpe", 15), ("count", 15),
    ("dup_compile", 15), ("proof_compile", 12), ("capped_compile", 3))

#: weight-batch rows per serve request (the JSON body grows with rows)
SERVE_BATCH_ROWS = (8, 16)

#: fresh small KBs compiled with proof=True (~700 nodes)
PROOF_SPEC: KbSpec = (1, 24, 2.2)

#: capped compiles: the search needs far more than CAPPED_MAX_NODES
#: decisions, so the reply must be certified bounds
CAPPED_SPEC: KbSpec = (2, 24, 2.2)
CAPPED_MAX_NODES = 40
#: distinct capped formulas per connection (reused: a bounds answer is
#: never stored, so each repeat does the same work)
CAPPED_PER_CONNECTION = 4

ServeOp = Tuple[str, int, int]


def serve_schedule(seed: int, connection: int, connections: int,
                   kbs: int, blocks: int) -> List[ServeOp]:
    """One connection's requests as (class, index, variant), block by
    block, each block a seeded shuffle of SERVE_BLOCK.

    Duplicate compiles target only the KBs this connection owns
    (``kb % connections == connection``); proved compiles number fresh
    KBs per connection; capped compiles cycle this connection's own
    formulas.  No two connections can thus have one compile in flight.
    """
    rng = stream(seed, "serve", "schedule", connection)
    own = [kb for kb in range(kbs) if kb % connections == connection]
    block = [name for name, count in SERVE_BLOCK for _ in range(count)]
    out: List[ServeOp] = []
    proofs = capped = 0
    for _ in range(blocks):
        rng.shuffle(block)
        for name in block:
            if name == "dup_compile":
                out.append((name, own[rng.randrange(len(own))], 0))
            elif name == "proof_compile":
                out.append((name, proofs, 0))
                proofs += 1
            elif name == "capped_compile":
                out.append((name, capped % CAPPED_PER_CONNECTION, 0))
                capped += 1
            else:
                out.append((name, rng.randrange(kbs),
                            rng.randrange(_variants(name))))
    return out


def proof_input(seed: int, connection: int, index: int) -> str:
    return block_cnf(stream(seed, "serve", "proof", connection, index),
                     PROOF_SPEC)


def capped_input(seed: int, connection: int, index: int) -> str:
    return block_cnf(stream(seed, "serve", "capped", connection, index),
                     CAPPED_SPEC)
