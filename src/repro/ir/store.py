"""The content-addressed compilation cache (artifact store).

Compilation is the expensive phase of every knowledge-compilation
pipeline; queries on the compiled circuit are linear.  The store makes
compilation *cacheable across processes*: an artifact is addressed by
the SHA-256 of everything that determines the compiler's output —

    key = sha256(compiler name ‖ canonical config JSON ‖ DIMACS text)

— and persisted to disk as canonical text (``.nnf`` for d-DNNF
compilers, ``.sdd`` + ``.vtree`` for SDD compilation).  A warm lookup
is a file read plus a parse, which is O(circuit) instead of
O(search); the benchmark harness records the resulting hit rates and
the warm/cold compile ratio.

Layout: ``<root>/<key[:2]>/<key>.<ext>`` — two-level fan-out keeps
directories small.  Writes go through a same-directory temp file +
rename, so concurrent writers of the same key are safe (last rename
wins, both contents are identical by construction).

:func:`default_store` reads the ``REPRO_CACHE_DIR`` environment
variable, so the CLI and benchmarks can opt in without plumbing.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple

from ..perf.instrument import Counter
from .core import CircuitIR
from .serialize import (ir_from_csr_buffer, ir_from_nnf_text,
                        ir_to_csr_bytes, ir_to_nnf_text, read_sdd_file,
                        write_sdd_file, write_vtree_text)

__all__ = ["ArtifactStore", "artifact_key", "default_store"]

#: environment variable naming the default artifact-store directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: ``.csr`` decodes each store handle remembers (least recently used
#: out first)
DECODE_MEMO_SIZE = 128


def artifact_key(dimacs: str, compiler: str,
                 config: Optional[Mapping] = None) -> str:
    """The content address of a compilation: SHA-256 over the compiler
    name, its canonicalised config and the DIMACS input text."""
    blob = "\n".join([
        compiler,
        json.dumps(dict(config or {}), sort_keys=True,
                   separators=(",", ":"), default=str),
        dimacs,
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


class ArtifactStore:
    """A directory of compiled circuits addressed by content key.

    ``stats`` counts ``artifact_hits`` / ``artifact_misses`` /
    ``artifact_writes`` / ``artifact_corrupt`` over the store's
    lifetime.

    A cached artifact that fails to parse (truncated write, bit rot,
    foreign file) is treated as a miss, not an error: the bad file is
    quarantined by renaming it to ``<name>.corrupt`` (so the next
    lookup recompiles and rewrites cleanly, and the evidence survives
    for inspection) and counted in ``artifact_corrupt``.

    With ``verify=True`` (the default) the store also refuses to serve
    *parseable-but-wrong* artifacts: every load re-checks the claimed
    tractability properties through :mod:`repro.analyze` and
    quarantines on certificate failure (``artifact_cert_fail``).  The
    verification result is memoised in a ``.cert`` sidecar keyed by
    the artifact's content hash, so re-certification happens once —
    warm loads are back to file-read + parse cost
    (``artifact_cert_hits``).

    Each handle also remembers its last :data:`DECODE_MEMO_SIZE`
    ``.csr`` decodes, each bound to the hash of the ``.nnf`` text it
    was decoded from (see :meth:`_load_csr`).
    """

    def __init__(self, root: "str | Path", verify: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = Counter()
        self.verify = verify
        #: key -> (SHA-256 of the decoded-from ``.nnf`` bytes, the
        #: interned IR the ``.csr`` decode produced)
        self._decoded: "OrderedDict[str, Tuple[str, CircuitIR]]" = \
            OrderedDict()

    def path_for(self, key: str, ext: str) -> Path:
        return self.root / key[:2] / f"{key}.{ext}"

    @staticmethod
    def _atomic_replace(path: Path, data: "str | bytes") -> Path:
        """Publish ``data`` at ``path`` atomically: write a private
        ``*.tmp`` in the same directory, fsync, then ``os.replace``.

        THE single write primitive for every artifact extension
        (``.nnf``/``.sdd``/``.vtree``/``.cert``/``.csr``/``.proof``)
        — a reader concurrent with any writer sees either the old
        complete file or the new complete file, never a torn prefix
        (which would land a perfectly good artifact in quarantine).
        Concurrent writers of the same content-addressed key both win:
        last rename shows, and the bytes are identical by construction.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            mode = "wb" if isinstance(data, bytes) else "w"
            with os.fdopen(fd, mode) as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def _write(self, path: Path, text: str) -> Path:
        self._atomic_replace(path, text)
        self.stats.incr("artifact_writes")
        return path

    def _write_bytes(self, path: Path, blob: bytes) -> Path:
        """:meth:`_write` for binary sidecars (same atomic rename).
        Sidecars are bookkeeping, not artifact traffic: counted under
        ``artifact_sidecar_writes``, like ``.cert`` files."""
        self._atomic_replace(path, blob)
        self.stats.incr("artifact_sidecar_writes")
        return path

    @staticmethod
    def _move_aside(*paths: Path) -> None:
        for path in paths:
            try:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                pass  # already gone or unmovable: the miss still stands

    def _quarantine(self, *paths: Path) -> None:
        """Move unparseable artifacts aside and account the corruption
        as a miss, so the caller recompiles instead of crashing."""
        self._move_aside(*paths)
        self.stats.incr("artifact_corrupt")
        self.stats.incr("artifact_misses")

    # -- property certificates (.cert sidecars) ------------------------------
    @staticmethod
    def _content_hash(*texts: str) -> str:
        """Content hash of an artifact's raw text(s) — certificate
        binding.  Independent of parse flags, so mutated bytes always
        invalidate the certificate."""
        return hashlib.sha256("\x00".join(texts).encode()).hexdigest()

    def _read_cert(self, key: str) -> Optional[dict]:
        try:
            raw = json.loads(self.path_for(key, "cert").read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or \
                raw.get("schema") != "repro-cert/1":
            return None
        return raw

    def _write_cert(self, key: str, digest: str, flags: int,
                    status: Mapping[str, str], method: str,
                    variants: Optional[Mapping[str, Any]] = None) -> None:
        cert = {"schema": "repro-cert/1", "digest": digest,
                "flags": flags, "status": dict(status),
                "method": method}
        # preserve recorded optimized variants and the proof verdict
        # across certificate rewrites — but only while they describe
        # the same base artifact (digest unchanged)
        old = self._read_cert(key)
        if old is not None and old.get("digest") == digest:
            if old.get("proof") is not None:
                cert["proof"] = old["proof"]
            if variants is None:
                variants = old.get("variants")
        if variants:
            cert["variants"] = dict(variants)
        # certificates are bookkeeping, not artifact traffic: bypass
        # the artifact_writes stat but keep the atomic rename
        self._atomic_replace(self.path_for(key, "cert"),
                             json.dumps(cert, sort_keys=True) + "\n")

    def _certify_load(self, key: str, ir: CircuitIR,
                      flags: Optional[int], digest: str,
                      vtree: Any = None, *paths: Path) -> bool:
        """Serve-time certification: trust a digest-matching ``.cert``
        covering the claimed flags (``flags``, else the circuit's
        own), otherwise re-verify; falsified claims quarantine the
        artifact (and certificate).  Returns True when the artifact
        may be served."""
        claimed = ir.flags if flags is None else flags
        cert = self._read_cert(key)
        if cert is not None and cert.get("digest") == digest and \
                (claimed & int(cert.get("flags", 0))) == claimed:
            self.stats.incr("artifact_cert_hits")
            return True
        from ..analyze.certify import certify
        result = certify(ir, flags=claimed, vtree=vtree)
        if claimed & result.falsified_mask:
            self._quarantine(*paths)
            cert_path = self.path_for(key, "cert")
            try:
                os.unlink(cert_path)
            except OSError:
                pass
            self.stats.incr("artifact_cert_fail")
            return False
        self._write_cert(key, digest, claimed, result.summary(),
                         "verified")
        self.stats.incr("artifact_verified")
        return True

    # -- equivalence proofs (.proof sidecars) --------------------------------
    def save_proof(self, key: str, trace: str) -> Path:
        """File a ``repro-proof/1`` equivalence trace next to the
        artifact (``artifact_proof_writes``).  The trace is opaque to
        the store — verification is the checker's job
        (:func:`repro.analyze.proofs.verify_stored_proof`)."""
        path = self._atomic_replace(self.path_for(key, "proof"), trace)
        self.stats.incr("artifact_proof_writes")
        return path

    def load_proof(self, key: str) -> Optional[str]:
        """The stored equivalence trace for ``key``, or None
        (``artifact_proof_hits`` / ``artifact_proof_misses``)."""
        try:
            text = self.path_for(key, "proof").read_text()
        except OSError:
            self.stats.incr("artifact_proof_misses")
            return None
        self.stats.incr("artifact_proof_hits")
        return text

    def proof_status(self, key: str) -> Optional[str]:
        """The recorded checker verdict for ``key``'s trace, with its
        bindings re-checked: the ``.cert`` must describe the current
        ``.nnf`` bytes and the recorded trace hash must match the
        current ``.proof`` bytes.  Returns ``"PROVED"`` (or another
        recorded verdict) only when both bindings hold, else None —
        so a mutated artifact or trace silently demotes to
        'unproved', never to a stale 'proved'."""
        cert = self._read_cert(key)
        proof = (cert or {}).get("proof")
        if not isinstance(proof, dict):
            return None
        try:
            nnf_text = self.path_for(key, "nnf").read_text()
            trace = self.path_for(key, "proof").read_text()
        except OSError:
            return None
        if cert.get("digest") != self._content_hash(nnf_text):
            return None
        if proof.get("trace_sha") != self._content_hash(trace):
            return None
        verdict = proof.get("verdict")
        return str(verdict) if verdict else None

    def record_proof_verdict(self, key: str, verdict: str,
                             steps: int = 0) -> None:
        """Memoise a checker verdict in the ``.cert`` sidecar, bound
        to the current trace bytes (so a later trace mutation voids
        it)."""
        cert = self._read_cert(key)
        if cert is None:
            return
        try:
            trace = self.path_for(key, "proof").read_text()
        except OSError:
            return
        cert["proof"] = {"verdict": str(verdict),
                         "trace_sha": self._content_hash(trace),
                         "steps": int(steps)}
        self._atomic_replace(self.path_for(key, "cert"),
                             json.dumps(cert, sort_keys=True) + "\n")

    def quarantine_refuted(self, key: str) -> None:
        """A refuted proof means the *artifact* cannot be trusted:
        move the ``.nnf``/``.csr``/``.proof`` trio aside as
        ``*.corrupt`` evidence, drop the certificate, and count
        ``artifact_proof_refuted``."""
        self._move_aside(self.path_for(key, "nnf"),
                         self.path_for(key, "csr"),
                         self.path_for(key, "proof"))
        try:
            os.unlink(self.path_for(key, "cert"))
        except OSError:
            pass
        self.stats.incr("artifact_proof_refuted")
        self.stats.incr("artifact_corrupt")

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        hits = self.stats["artifact_hits"]
        total = hits + self.stats["artifact_misses"]
        return hits / total if total else 0.0

    # -- d-DNNF artifacts (.nnf + .csr) -------------------------------------
    def _text_hash(self, key: str) -> Optional[str]:
        """SHA-256 of ``key``'s current ``.nnf`` bytes, or None when
        the text is gone."""
        try:
            raw = self.path_for(key, "nnf").read_bytes()
        except OSError:
            return None
        return hashlib.sha256(raw).hexdigest()

    def _load_csr(self, key: str,
                  flags: Optional[int]) -> Optional[CircuitIR]:
        """The memory-mapped warm path: decode the binary ``.csr``
        sidecar (written at store time) instead of parsing text.  A
        missing sidecar returns None silently (the text path decides
        hit or miss); a corrupt one is quarantined — ``.csr.corrupt``
        alongside, ``artifact_corrupt`` counted — and the load falls
        back to the text artifact, which re-parses from scratch.

        The ``.nnf`` text stays authoritative: the sidecar embeds the
        hash of the text it was decoded from, and a mismatch (the text
        was rewritten or mutated underneath the sidecar) silently
        defers to the text path, whose parse + serve-time
        certification sees the *current* bytes.

        A successful decode is remembered with that hash.  While the
        current ``.nnf`` bytes still hash to it, the next load of the
        key on this handle skips the mmap, the decode and
        ``intern()`` and serves the remembered IR after the same
        certification (``artifact_memo_hits``, counted as an
        ``artifact_mmap_hits`` too: it is this tier's answer).  A
        sidecar corrupted after that goes unnoticed by this handle —
        the answer is still the hashed text's — and a fresh handle
        quarantines it.  ``save_nnf``, a hash mismatch (a quarantine
        moving the ``.nnf`` aside is one) and a failed certification,
        which quarantines the sidecar, drop the entry.
        """
        path = self.path_for(key, "csr")
        # popped, and set again as the most recently used on a hit;
        # never ``del``/``move_to_end``, which raise when a thread
        # sharing the handle has dropped the entry meanwhile
        memo = self._decoded.pop(key, None)
        if memo is not None:
            text_hash, ir = memo
            if self._text_hash(key) == text_hash:
                if self.verify and not self._certify_load(
                        key, ir, flags, text_hash, None, path):
                    return None
                self._decoded[key] = memo
                self.stats.incr("artifact_memo_hits")
                self.stats.incr("artifact_mmap_hits")
                return ir
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
                try:
                    ir, text_hash = ir_from_csr_buffer(mapped)
                finally:
                    mapped.close()
        except OSError:
            return None
        except Exception:
            self._move_aside(path)
            self.stats.incr("artifact_corrupt")
            return None
        if self._text_hash(key) != text_hash:
            # an orphan sidecar (the text path rules it a miss) or a
            # stale one (the text changed underneath it)
            return None
        if self.verify and not self._certify_load(
                key, ir, flags, text_hash, None, path):
            return None
        self.stats.incr("artifact_mmap_hits")
        ir = ir.intern()
        self._decoded[key] = (text_hash, ir)
        while len(self._decoded) > DECODE_MEMO_SIZE:
            self._decoded.popitem(last=False)
        return ir

    def load_nnf(self, key: str,
                 flags: Optional[int] = None) -> Optional[CircuitIR]:
        """The cached IR for ``key``, or None on a miss.

        Warm loads prefer the binary ``.csr`` sidecar — a memory-mapped
        decode of the CSR arrays that skips text parsing entirely
        (``artifact_mmap_hits``), or this handle's memo of that decode
        while the ``.nnf`` bytes are unchanged — and fall back to
        reading and parsing the ``.nnf`` text when the sidecar is
        missing or quarantined.

        ``flags`` is forwarded to :func:`ir_from_nnf_text`: a caller
        that knows the stored circuit's properties (a compiler loading
        its own output) passes them to skip the structural scan, which
        keeps the warm path at file-read + parse cost.
        """
        ir = self._load_csr(key, flags)
        if ir is not None:
            self.stats.incr("artifact_hits")
            return ir
        path = self.path_for(key, "nnf")
        try:
            text = path.read_text()
        except OSError:
            self.stats.incr("artifact_misses")
            return None
        try:
            ir = ir_from_nnf_text(text, flags=flags)
        except Exception:
            self._quarantine(path)
            return None
        if self.verify and not self._certify_load(
                key, ir, flags, self._content_hash(text), None, path):
            return None
        self.stats.incr("artifact_hits")
        return ir

    def save_nnf(self, key: str, ir: CircuitIR) -> Path:
        self._decoded.pop(key, None)
        text = ir_to_nnf_text(ir)
        path = self._write(self.path_for(key, "nnf"), text)
        # the binary CSR twin serves memory-mapped warm loads; its
        # embedded text hash binds it to the same .cert sidecar
        self._write_bytes(self.path_for(key, "csr"),
                          ir_to_csr_bytes(ir, self._content_hash(text)))
        if self.verify:
            # the writer's flags are asserted by construction; loads
            # claiming more will re-verify and widen the certificate
            status = {name: "construction" for name in ir.flag_names()}
            self._write_cert(key, self._content_hash(text), ir.flags,
                             status, "construction")
        return path

    # -- optimized variants (.opt-<sig>.nnf, keyed in the .cert) -------------
    def save_variant(self, key: str, ir: CircuitIR, signature: str,
                     passes: "list[str] | Tuple[str, ...]" = (),
                     forgotten: "Any" = ()) -> Path:
        """Record a certified optimized twin of artifact ``key``.

        The circuit is written to ``<key>.opt-<signature>.nnf`` (the
        text :meth:`load_variant` parses; a variant has no ``.csr``
        twin) and indexed in the base artifact's ``.cert`` sidecar
        under ``variants[signature]`` with its node count, content
        digest, pass list and forgotten-variable set — enough for
        :meth:`load_smallest` to pick the best certified variant
        without parsing every file.
        """
        text = ir_to_nnf_text(ir)
        path = self._write(self.path_for(key, f"opt-{signature}.nnf"),
                           text)
        cert = self._read_cert(key)
        if cert is None:
            # no certificate yet (verify=False store): anchor the
            # variants map to the current base artifact's content
            try:
                base_digest = self._content_hash(
                    self.path_for(key, "nnf").read_text())
            except OSError:
                base_digest = ""
            cert = {"digest": base_digest, "flags": 0, "status": {},
                    "method": "construction"}
        variants = dict(cert.get("variants") or {})
        variants[signature] = {
            "nodes": ir.n, "flags": ir.flags,
            "digest": self._content_hash(text),
            "passes": list(passes),
            "forgotten": sorted(int(v) for v in forgotten),
            "verified": "construction",
        }
        self._write_cert(key, cert.get("digest", ""),
                         int(cert.get("flags", 0)), cert.get("status", {}),
                         str(cert.get("method", "construction")),
                         variants=variants)
        self.stats.incr("artifact_variant_writes")
        return path

    def _drop_variant(self, key: str, signature: str) -> None:
        cert = self._read_cert(key)
        if cert is None:
            return
        variants = dict(cert.get("variants") or {})
        variants.pop(signature, None)
        self._write_cert(key, cert.get("digest", ""),
                         int(cert.get("flags", 0)), cert.get("status", {}),
                         str(cert.get("method", "construction")),
                         variants=variants)

    def load_variant(self, key: str, signature: str
                     ) -> Optional[Tuple[CircuitIR, dict]]:
        """One recorded optimized variant: ``(ir, info)`` or None.

        The variant's content hash must match the ``.cert`` record;
        with ``verify=True`` the claimed flags are re-certified on
        first load (falsification quarantines the variant and drops it
        from the index — the base artifact is untouched).
        """
        cert = self._read_cert(key)
        info = dict(((cert or {}).get("variants") or {})
                    .get(signature) or {})
        if not info:
            return None
        path = self.path_for(key, f"opt-{signature}.nnf")
        try:
            text = path.read_text()
        except OSError:
            return None
        if self._content_hash(text) != info.get("digest"):
            self._quarantine(path)
            self._drop_variant(key, signature)
            return None
        try:
            ir = ir_from_nnf_text(text, flags=int(info.get("flags", 0)))
        except Exception:
            self._quarantine(path)
            self._drop_variant(key, signature)
            return None
        if self.verify:
            from ..analyze.certify import certify
            claimed = int(info.get("flags", 0))
            result = certify(ir, flags=claimed)
            if claimed & result.falsified_mask:
                self._quarantine(path)
                self._drop_variant(key, signature)
                self.stats.incr("artifact_cert_fail")
                return None
        self.stats.incr("artifact_variant_hits")
        return ir.intern(), info

    def load_smallest(self, key: str, flags: Optional[int] = None
                      ) -> Optional[Tuple[CircuitIR, dict]]:
        """The smallest certified circuit for ``key``: the best
        optimized variant when one beats the base artifact, else the
        base itself.  ``info`` carries ``signature`` (None for the
        base) and ``forgotten`` (variables the query layer must leave
        out of a query's scope — the Tseitin 2^k correction)."""
        base = self.load_nnf(key, flags=flags)
        if base is None:
            return None
        cert = self._read_cert(key)
        variants = (cert or {}).get("variants") or {}
        ranked = sorted(
            (info.get("nodes", base.n), sig)
            for sig, info in variants.items()
            if isinstance(info, dict))
        for nodes, sig in ranked:
            if nodes >= base.n:
                break
            got = self.load_variant(key, sig)
            if got is not None:
                ir, info = got
                return ir, {"signature": sig,
                            "forgotten": [int(v) for v in
                                          info.get("forgotten", [])],
                            "passes": list(info.get("passes", []))}
        return base, {"signature": None, "forgotten": [], "passes": []}

    # -- SDD artifacts (.sdd + .vtree) --------------------------------------
    def load_sdd(self, key: str) -> Optional[Tuple[object, object]]:
        """The cached (root, manager) for ``key``, or None on a miss.
        The SDD is rebuilt into a fresh manager over the stored vtree."""
        sdd_path = self.path_for(key, "sdd")
        vtree_path = self.path_for(key, "vtree")
        try:
            sdd_text = sdd_path.read_text()
            vtree_text = vtree_path.read_text()
        except OSError:
            self.stats.incr("artifact_misses")
            return None
        try:
            loaded = read_sdd_file(sdd_text, vtree_text)
        except Exception:
            # either file may be the bad one; quarantine the pair so
            # the recompile rewrites a consistent sdd/vtree couple
            self._quarantine(sdd_path, vtree_path)
            return None
        if self.verify:
            from .core import (FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC,
                               FLAG_STRUCTURED)
            from .lower import sdd_to_ir
            root, manager = loaded
            claimed = (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC |
                       FLAG_STRUCTURED)
            digest = self._content_hash(sdd_text, vtree_text)
            if not self._certify_load(key, sdd_to_ir(root), claimed,
                                      digest, manager.vtree,
                                      sdd_path, vtree_path):
                return None
        self.stats.incr("artifact_hits")
        return loaded

    def save_sdd(self, key: str, node: Any) -> Path:
        vtree_text = write_vtree_text(node.manager.vtree)
        sdd_text = write_sdd_file(node)
        self._write(self.path_for(key, "vtree"), vtree_text)
        path = self._write(self.path_for(key, "sdd"), sdd_text)
        if self.verify:
            from .core import (FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC,
                               FLAG_STRUCTURED)
            flags = (FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC |
                     FLAG_STRUCTURED)
            status = {"decomposable": "construction",
                      "deterministic": "construction",
                      "structured": "construction"}
            self._write_cert(key, self._content_hash(sdd_text,
                                                     vtree_text),
                             flags, status, "construction")
        return path

    # -- garbage collection --------------------------------------------------
    def gc(self, *, now: float, max_corrupt_age_days: float = 7.0,
           dry_run: bool = False) -> dict:
        """Sweep the store for orphaned/stale sidecars and report
        reclaimed bytes.

        Removed classes (the primary ``.nnf``/``.sdd`` artifacts are
        never touched):

        * leftover ``*.tmp`` files from interrupted atomic writes;
        * quarantined ``*.corrupt`` evidence older than
          ``max_corrupt_age_days`` (mtime against the caller-supplied
          ``now`` — the store itself never reads the clock);
        * ``.csr`` sidecars whose ``.nnf`` text is gone;
        * ``.proof`` equivalence traces whose ``.nnf`` is gone;
        * ``.vtree`` files whose ``.sdd`` is gone;
        * ``.cert`` sidecars with neither a ``.nnf`` nor an ``.sdd``;
        * ``.opt-*.nnf`` variants whose base artifact is gone or that
          no ``.cert`` references any more, and every ``.opt-*.csr``
          (older stores wrote one next to each variant; nothing reads
          it);
        * every ``.gen.py`` file: older stores cached generated
          evaluator sources there, and evaluators are now built
          in-process from the circuit, so nothing reads them.

        With ``dry_run=True`` nothing is deleted; the report is
        identical.  Returns ``{"scanned", "removed", "reclaimed_bytes",
        "by_class", "dry_run"}``.
        """
        cutoff = now - max_corrupt_age_days * 86400.0
        files = [p for p in self.root.glob("*/*") if p.is_file()]
        nnf_keys = set()
        sdd_keys = set()
        variant_sigs: dict = {}
        for path in files:
            name = path.name
            if name.endswith(".tmp") or ".corrupt" in name:
                continue
            key, _, ext = name.partition(".")
            if ext == "nnf":
                nnf_keys.add(key)
            elif ext == "sdd":
                sdd_keys.add(key)
            elif ext == "cert":
                cert = self._read_cert(key)
                if cert is not None:
                    variant_sigs[key] = set(cert.get("variants") or {})

        def classify(path: Path) -> Optional[str]:
            name = path.name
            if name.endswith(".tmp"):
                return "tmp"
            if ".corrupt" in name:
                if path.stat().st_mtime < cutoff:
                    return "corrupt"
                return None
            key, _, ext = name.partition(".")
            if ext.startswith("opt-"):
                sig = ext[4:].split(".", 1)[0]
                if ext.endswith(".csr") or key not in nnf_keys or \
                        sig not in variant_sigs.get(key, set()):
                    return "orphan_variant"
                return None
            if ext == "csr":
                return None if key in nnf_keys else "orphan_csr"
            if ext == "proof":
                return None if key in nnf_keys else "orphan_proof"
            if ext == "vtree":
                return None if key in sdd_keys else "orphan_vtree"
            if ext == "cert":
                if key in nnf_keys or key in sdd_keys:
                    return None
                return "orphan_cert"
            if ext == "gen.py":
                return "orphan_gen"
            return None

        report = {"scanned": len(files), "removed": 0,
                  "reclaimed_bytes": 0, "by_class": {},
                  "dry_run": bool(dry_run)}
        for path in files:
            reason = classify(path)
            if reason is None:
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    continue
            report["removed"] += 1
            report["reclaimed_bytes"] += size
            bucket = report["by_class"].setdefault(
                reason, {"files": 0, "bytes": 0})
            bucket["files"] += 1
            bucket["bytes"] += size
        if not dry_run:
            self.stats.incr("gc_removed", report["removed"])
            self.stats.incr("gc_reclaimed_bytes",
                            report["reclaimed_bytes"])
        return report


def default_store() -> Optional[ArtifactStore]:
    """The store named by ``$REPRO_CACHE_DIR``, or None when unset."""
    root = os.environ.get(CACHE_DIR_ENV)
    return ArtifactStore(root) if root else None
