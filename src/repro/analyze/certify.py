"""Property certificates: memoized verification results for one IR.

A :class:`Certificate` accumulates :class:`~.verify.PropertyReport`
results for a circuit, running each verifier at most once no matter
how many queries ask (:meth:`Certificate.ensure` is incremental and
idempotent).  The gate (:mod:`repro.analyze.gate`) consults the
certificate's ``verified_mask`` instead of the IR's self-declared
``flags`` header — certified properties are *re-derived*, never
trusted.

Certificates are memoized on the kernel (one kernel per interned IR,
so one verification per circuit per process) and serialized to JSON
next to store artifacts (``.cert`` files) so a warm cache load skips
re-verification entirely — see :mod:`repro.ir.store`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.core import (
    FLAG_DECOMPOSABLE,
    FLAG_DETERMINISTIC,
    FLAG_SMOOTH,
    FLAG_STRUCTURED,
    CircuitIR,
)
from .verify import (
    DEFAULT_MAX_VARS,
    FALSIFIED,
    PROPERTY_FLAGS,
    UNKNOWN,
    VERIFIED,
    PropertyReport,
    Witness,
    verify_decomposable,
    verify_deterministic,
    verify_smooth,
    verify_structured,
    verify_wellformed,
)

__all__ = ["Certificate", "certify", "certify_nnf", "certificate_for",
           "CERT_SCHEMA"]

#: schema tag written into serialized certificates
CERT_SCHEMA = "repro-cert/1"

#: flags checkable without extra structure (a vtree)
_FREESTANDING = FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC | FLAG_SMOOTH


class Certificate:
    """Lazily populated verification record for one :class:`CircuitIR`."""

    __slots__ = ("ir", "reports", "max_vars", "_repaired")

    def __init__(self, ir: CircuitIR,
                 max_vars: int = DEFAULT_MAX_VARS) -> None:
        self.ir = ir
        self.max_vars = max_vars
        self.reports: Dict[str, PropertyReport] = {}
        self._repaired: Optional[CircuitIR] = None

    # -- incremental verification -------------------------------------------
    def ensure(self, flags: int, vtree: object = None,
               max_vars: Optional[int] = None) -> "Certificate":
        """Run (at most once each) the verifiers for every property in
        ``flags``; well-formedness is always checked first and, when it
        fails, poisons the requested properties as UNKNOWN."""
        budget = self.max_vars if max_vars is None else max_vars
        well = self.reports.get("wellformed")
        if well is None:
            well = verify_wellformed(self.ir)
            self.reports["wellformed"] = well
        if not well.ok:
            for name, bit in PROPERTY_FLAGS.items():
                if flags & bit and name not in self.reports:
                    self.reports[name] = PropertyReport(
                        name, UNKNOWN, "structural", well.witness)
            return self
        if flags & FLAG_DECOMPOSABLE and \
                "decomposable" not in self.reports:
            self.reports["decomposable"] = verify_decomposable(self.ir)
        if flags & FLAG_SMOOTH and "smooth" not in self.reports:
            self.reports["smooth"] = verify_smooth(self.ir)
        if flags & FLAG_DETERMINISTIC and \
                "deterministic" not in self.reports:
            self.reports["deterministic"] = \
                verify_deterministic(self.ir, max_vars=budget)
        if flags & FLAG_STRUCTURED and "structured" not in self.reports:
            if vtree is None:
                self.reports["structured"] = PropertyReport(
                    "structured", UNKNOWN, "structural",
                    Witness("structured", -1,
                            "no vtree available to verify against"))
            else:
                self.reports["structured"] = \
                    verify_structured(self.ir, vtree)
        return self

    # -- results -------------------------------------------------------------
    def report(self, prop: str) -> Optional[PropertyReport]:
        return self.reports.get(prop)

    def status(self, prop: str) -> str:
        got = self.reports.get(prop)
        return got.status if got is not None else UNKNOWN

    def _mask(self, status: str) -> int:
        mask = 0
        for name, bit in PROPERTY_FLAGS.items():
            got = self.reports.get(name)
            if got is not None and got.status == status:
                mask |= bit
        return mask

    @property
    def verified_mask(self) -> int:
        """Flag bits whose verifiers ran and returned VERIFIED."""
        return self._mask(VERIFIED)

    @property
    def falsified_mask(self) -> int:
        return self._mask(FALSIFIED)

    def witnesses(self, flags: Optional[int] = None) -> List[Witness]:
        """Witnesses of every non-verified checked property (filtered
        to ``flags`` when given), well-formedness first."""
        out: List[Witness] = []
        well = self.reports.get("wellformed")
        if well is not None and not well.ok and well.witness is not None:
            out.append(well.witness)
        for name, bit in PROPERTY_FLAGS.items():
            if flags is not None and not flags & bit:
                continue
            got = self.reports.get(name)
            if got is not None and not got.ok and \
                    got.witness is not None:
                out.append(got.witness)
        return out

    def summary(self) -> Dict[str, str]:
        """Property -> status for everything checked so far."""
        return {name: report.status
                for name, report in self.reports.items()}

    def repaired_smooth(self) -> CircuitIR:
        """The smoothed twin of this certificate's IR (cached)."""
        if self._repaired is None:
            from ..ir.passes import smooth_ir
            self._repaired = smooth_ir(self.ir)
        return self._repaired


def certificate_for(ir: CircuitIR,
                    max_vars: int = DEFAULT_MAX_VARS) -> Certificate:
    """The memoized certificate for ``ir`` (one per kernel, hence one
    per interned IR per process)."""
    from ..ir.kernel import ir_kernel
    kernel = ir_kernel(ir)
    cert = kernel._certificate
    if cert is None:
        cert = Certificate(ir, max_vars=max_vars)
        kernel._certificate = cert
    return cert


def certify(ir: CircuitIR, flags: Optional[int] = None,
            vtree: object = None,
            max_vars: int = DEFAULT_MAX_VARS) -> Certificate:
    """Verify ``flags`` (default: every freestanding property, plus
    structure when a vtree is given) and return the memoized
    certificate."""
    if flags is None:
        flags = _FREESTANDING | (FLAG_STRUCTURED if vtree is not None
                                 else 0)
    cert = certificate_for(ir, max_vars=max_vars)
    return cert.ensure(flags, vtree=vtree, max_vars=max_vars)


def certify_nnf(root: object, vtree: object = None,
                max_vars: int = DEFAULT_MAX_VARS) -> Certificate:
    """Lower an NNF node to IR and certify it — the bridge the Fig-12
    taxonomy (:func:`repro.nnf.properties.check_properties`) goes
    through."""
    from ..ir.lower import nnf_to_ir
    ir = nnf_to_ir(root)
    return certify(ir, vtree=vtree, max_vars=max_vars)
