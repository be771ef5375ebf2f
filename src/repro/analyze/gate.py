"""The query gate: certified property requirements per query.

Figure 13 of the paper (and Sec. 4 of arXiv:2202.02942) ties each
query to the circuit properties that make it tractable *and correct*:
model counting and weighted model counting need decomposability +
determinism + smoothness, MPE needs decomposability + determinism,
satisfiability needs decomposability, plain evaluation needs nothing.
The seed code trusted the IR's ``flags`` header for this; the gate
checks the requirements against a :class:`~.certify.Certificate`
instead — properties that were *verified*, not merely declared.

Three modes (``REPRO_GATE`` env var or :func:`set_gate_mode` /
:func:`gate_scope`):

* ``trust`` — seed behavior: no checks, zero overhead (default);
* ``strict`` — any required property that is not certified VERIFIED
  raises :class:`PropertyViolation` carrying the witnesses, *before*
  a wrong count can be returned;
* ``repair`` — like strict, but a circuit whose only failure is
  smoothness is transparently smoothed
  (:func:`repro.ir.passes.smooth_ir`) and the query re-dispatched to the
  repaired kernel, which is re-certified rather than assumed fixed;
* ``proved`` — the top of the trust ladder: everything ``repair``
  does, *plus* a verified equivalence proof (:mod:`repro.proof`)
  tying the circuit to the CNF it was compiled from.  A kernel whose
  circuit digest is not in the proved registry
  (:mod:`repro.analyze.proofs`) raises :class:`ProofViolation` —
  certified properties say the circuit is well-behaved; only a proof
  says it is the *right* circuit.  (Smoothing repair is allowed
  because :func:`repro.ir.passes.smooth_ir` is itself certified on the
  repaired twin — the proof carries over by construction.)

The gate lives under :meth:`IrKernel._gated`, so every front door
that dispatches through the unified kernel — ``nnf.queries``, the
``sdd``/``psdd``/``obdd`` query paths, ``wmc`` — is covered by the
one choke point.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..ir.core import (
    FLAG_DECOMPOSABLE,
    FLAG_DETERMINISTIC,
    FLAG_SMOOTH,
)
from .certify import Certificate, certificate_for
from .verify import Witness

__all__ = ["GATE_MODES", "GATE_ENV", "PropertyViolation",
           "ProofViolation", "gate_mode", "set_gate_mode",
           "gate_scope", "check_kernel", "REQUIREMENTS"]

GATE_MODES = ("trust", "strict", "repair", "proved")

#: environment variable providing the default gate mode
GATE_ENV = "REPRO_GATE"

#: query name -> required property flags (Fig. 13 discipline)
REQUIREMENTS: Dict[str, int] = {
    "sat": FLAG_DECOMPOSABLE,
    "sat_model": FLAG_DECOMPOSABLE,
    "count": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH,
    "wmc": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH,
    "mpe": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC,
    "marginals": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH,
    "derivatives": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH,
    "evaluate": 0,
    # sufficient-reason enumeration needs the Decision-DNNF discipline:
    # decomposability for the reason construction, determinism because
    # every or-gate must be a decision gate (smoothness is irrelevant)
    "explain": FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC,
}

#: queries whose results are node-independent, so re-dispatching to a
#: repaired (rebuilt, re-indexed) kernel is transparent to the caller.
#: ``derivatives`` is excluded: its result is indexed by node id, and
#: the repaired circuit has different ids — use ``marginals`` instead.
REPAIRABLE = frozenset(
    ("sat", "sat_model", "count", "wmc", "mpe", "marginals"))

_mode_override: Optional[str] = None


class PropertyViolation(Exception):
    """A query's property requirements are not certified.

    Carries the query name, the required flag mask, the certificate
    (with every report run so far) and the counterexample witnesses.
    """

    def __init__(self, query: str, required: int,
                 certificate: Certificate) -> None:
        self.query = query
        self.required = required
        self.certificate = certificate
        self.witnesses: List[Witness] = certificate.witnesses(required)
        missing = sorted(
            name for name, report in certificate.summary().items()
            if report != "verified")
        detail = "; ".join(w.format() for w in self.witnesses)
        message = (f"query {query!r} requires properties that are not "
                   f"certified: {', '.join(missing) or 'unknown'}")
        if detail:
            message = f"{message} [{detail}]"
        super().__init__(message)


class ProofViolation(PropertyViolation):
    """``proved`` mode was asked to answer a query on a circuit with
    no verified equivalence proof.

    Subclasses :class:`PropertyViolation` so existing strict-mode
    handlers (CLI exit 4, serve error frames) degrade gracefully, but
    carries the circuit digest instead of a certificate: the failure
    is about provenance, not properties.
    """

    def __init__(self, query: str, ir_digest: str) -> None:
        self.query = query
        self.required = 0
        self.certificate = None  # type: ignore[assignment]
        self.witnesses = []
        self.ir_digest = ir_digest
        Exception.__init__(
            self,
            f"query {query!r} under REPRO_GATE=proved: circuit "
            f"{ir_digest[:12]} has no verified equivalence proof "
            f"(compile with proof=True and verify, or lower the gate)")


def _env_mode() -> str:
    raw = os.environ.get(GATE_ENV, "trust").strip().lower()
    return raw if raw in GATE_MODES else "trust"


def gate_mode() -> str:
    """The active gate mode (override first, then ``$REPRO_GATE``)."""
    return _mode_override if _mode_override is not None else _env_mode()


def set_gate_mode(mode: Optional[str]) -> Optional[str]:
    """Set the process-wide gate mode; ``None`` defers back to the
    environment.  Returns the previous override (for restoring)."""
    global _mode_override
    if mode is not None and mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}; "
                         f"expected one of {GATE_MODES}")
    previous = _mode_override
    _mode_override = mode
    return previous


@contextmanager
def gate_scope(mode: str) -> Iterator[None]:
    """Run a block under ``mode``, restoring the previous override."""
    previous = set_gate_mode(mode)
    try:
        yield
    finally:
        set_gate_mode(previous)


def check_kernel(kernel: Any, query: str) -> Any:
    """Gate ``kernel`` for ``query``: return the kernel to execute on.

    Trust mode returns immediately.  Otherwise the certificate is
    brought up to the query's requirements (memoized — verification
    runs once per circuit per process, however many queries follow).
    Strict mode raises on any shortfall; repair mode first tries the
    smoothed twin when smoothness is the only missing property.
    """
    mode = gate_mode()
    if mode == "trust":
        return kernel
    if mode == "proved":
        # equivalence first: certified properties on the wrong circuit
        # are worthless.  Lazy import — proofs pulls in the store.
        from .proofs import is_proved
        if not is_proved(kernel.ir):
            raise ProofViolation(query, kernel.ir.digest())
    required = REQUIREMENTS.get(query, 0)
    if not required:
        return kernel
    cert = certificate_for(kernel.ir)
    cert.ensure(required)
    missing = required & ~cert.verified_mask
    if not missing:
        return kernel
    if mode in ("repair", "proved") and missing == FLAG_SMOOTH and \
            query in REPAIRABLE:
        from ..ir.kernel import ir_kernel
        repaired = cert.repaired_smooth()
        twin = ir_kernel(repaired)
        twin_cert = certificate_for(repaired)
        twin_cert.ensure(required)
        if not required & ~twin_cert.verified_mask:
            if mode == "proved":
                # certified smoothing preserves equivalence, so the
                # twin inherits the original's proof (the twin
                # re-enters this gate when it answers)
                from .proofs import mark_proved
                mark_proved(repaired.digest())
            return twin
        cert = twin_cert  # repair did not converge: report its witnesses
    raise PropertyViolation(query, required, cert)
