"""repro.ir — the flattened circuit intermediate representation.

Every circuit family in the repo (NNF DAGs, OBDDs, SDDs, PSDDs and
arithmetic circuits) is, following Darwiche's *Tractable Boolean and
Arithmetic Circuits* framing, one circuit class distinguished only by
its properties.  This package makes that concrete:

* :mod:`repro.ir.core` — :class:`CircuitIR`, an immutable,
  topologically-ordered, CSR-flattened circuit (node kind codes,
  literal ids, child offset arrays) with property flags computed at
  lowering time and an interning pool for structural sharing;
* :mod:`repro.ir.kernel` — :class:`IrKernel`, the single execution
  engine (sat / count / WMC / MPE / marginals, scalar and batched)
  every family's queries dispatch through; its interpreter is one
  upward fold and one downward pass, each taking a semiring;
* :mod:`repro.ir.codegen` — the native-speed backend: each circuit's
  levelized plan (one numpy call per run of same-kind gates), built
  in-process and run directly, selected by ``$REPRO_BACKEND`` (the
  only backend switch) with automatic interpreter fallback
  (:class:`CodegenUnsupported`);
* :mod:`repro.ir.lower` — lowerings ``*_to_ir`` from each family and
  the ``ir_to_nnf`` lifting;
* :mod:`repro.ir.serialize` — canonical c2d ``.nnf`` and libsdd-style
  ``.sdd``/``.vtree`` readers and writers round-tripping through the IR;
* :mod:`repro.ir.store` — the content-addressed compilation cache
  keyed by SHA-256 of (DIMACS CNF, compiler name, config);
* :mod:`repro.ir.passes` — the certified circuit-optimization pass
  manager: verification-gated rewrites (constant folding, CSE,
  Tseitin-auxiliary pruning, de-/re-smoothing) that only ever replace
  a circuit with a provably equivalent smaller one
  (``docs/optimization.md``).
"""

from .codegen import (CodegenUnsupported, CompiledCircuit,
                      compile_circuit, resolve_backend)
from .core import (CircuitIR, IrBuilder, FLAG_DECOMPOSABLE,
                   FLAG_DETERMINISTIC, FLAG_SMOOTH, FLAG_STRUCTURED,
                   KIND_AND, KIND_FALSE, KIND_LIT, KIND_OR, KIND_PARAM,
                   KIND_TRUE)
from .kernel import IrKernel, ir_kernel
from .lower import (ac_to_ir, ir_to_nnf, nnf_to_ir, obdd_to_ir,
                    psdd_to_ir, sdd_to_ir)
from .serialize import (ir_from_csr_buffer, ir_from_nnf_text,
                        ir_to_csr_bytes, ir_to_nnf_text, read_sdd_file,
                        read_vtree_text, write_sdd_file,
                        write_vtree_text)
from .passes import (DEFAULT_PASSES, PASS_NAMES, PassManager,
                     PipelineResult, certified_equivalent, optimize_ir,
                     parse_passes, pipeline_signature)
from .store import ArtifactStore, artifact_key, default_store

__all__ = [
    "CircuitIR", "IrBuilder", "IrKernel", "ir_kernel",
    "KIND_LIT", "KIND_TRUE", "KIND_FALSE", "KIND_AND", "KIND_OR",
    "KIND_PARAM",
    "FLAG_DECOMPOSABLE", "FLAG_DETERMINISTIC", "FLAG_SMOOTH",
    "FLAG_STRUCTURED",
    "nnf_to_ir", "ir_to_nnf", "obdd_to_ir", "sdd_to_ir", "psdd_to_ir",
    "ac_to_ir",
    "ir_to_nnf_text", "ir_from_nnf_text", "write_vtree_text",
    "read_vtree_text", "write_sdd_file", "read_sdd_file",
    "ir_to_csr_bytes", "ir_from_csr_buffer",
    "ArtifactStore", "artifact_key", "default_store",
    "CodegenUnsupported", "CompiledCircuit", "compile_circuit",
    "resolve_backend",
    "PassManager", "PipelineResult", "optimize_ir", "parse_passes",
    "pipeline_signature", "certified_equivalent", "PASS_NAMES",
    "DEFAULT_PASSES",
]
