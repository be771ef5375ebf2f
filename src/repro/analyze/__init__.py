"""Static analysis over :class:`~repro.ir.core.CircuitIR`: property
verifiers with counterexample witnesses, memoized certificates, and
the query gate that checks certified — not declared — properties.

* :mod:`repro.analyze.verify` — per-property verifiers returning
  :class:`~.verify.PropertyReport` (VERIFIED / FALSIFIED / UNKNOWN)
  with a minimal :class:`~.verify.Witness` on failure;
* :mod:`repro.analyze.certify` — :class:`~.certify.Certificate`
  memoization (per kernel, and as ``.cert`` files in the artifact
  store);
* :mod:`repro.analyze.gate` — query requirements, ``trust`` /
  ``strict`` / ``repair`` modes, :class:`~.gate.PropertyViolation`;
* :func:`smooth_ir` — the smoothing auto-fix of the ``repair`` mode,
  re-exported from :mod:`repro.ir.passes`;
* :mod:`repro.analyze.obdd_check` — OBDD discipline on live node DAGs;
* :mod:`repro.analyze.proofs` — the bridge to :mod:`repro.proof`:
  IR-side semantic digests, stored-proof verification, and the
  proved registry behind ``REPRO_GATE=proved``.
"""

from .certify import (CERT_SCHEMA, Certificate, certificate_for, certify,
                      certify_nnf)
from .gate import (GATE_ENV, GATE_MODES, REQUIREMENTS, ProofViolation,
                   PropertyViolation, check_kernel, gate_mode, gate_scope,
                   set_gate_mode)
from .proofs import (clear_proved, ir_semantic_digest, is_proved,
                     mark_proved, verify_stored_proof)
from .obdd_check import verify_obdd
from ..ir.passes import smooth_ir
from .verify import (DEFAULT_MAX_VARS, FALSIFIED, PROPERTY_FLAGS, UNKNOWN,
                     VERIFIED, PropertyReport, Witness, evaluate_node,
                     implied_literals, verify_decomposable,
                     verify_deterministic, verify_obdd_ir, verify_smooth,
                     verify_structured, verify_wellformed)

__all__ = [
    "CERT_SCHEMA", "Certificate", "certificate_for", "certify",
    "certify_nnf",
    "GATE_ENV", "GATE_MODES", "REQUIREMENTS", "PropertyViolation",
    "ProofViolation", "check_kernel", "gate_mode", "gate_scope",
    "set_gate_mode",
    "clear_proved", "ir_semantic_digest", "is_proved", "mark_proved",
    "verify_stored_proof",
    "verify_obdd", "smooth_ir",
    "DEFAULT_MAX_VARS", "FALSIFIED", "PROPERTY_FLAGS", "UNKNOWN",
    "VERIFIED", "PropertyReport", "Witness", "evaluate_node",
    "implied_literals", "verify_decomposable", "verify_deterministic",
    "verify_obdd_ir", "verify_smooth", "verify_structured",
    "verify_wellformed",
]
