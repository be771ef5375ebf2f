"""The compile-once / query-many pipeline: BN → CNF → d-DNNF → queries.

This is the paper's first role of logic end-to-end: probabilistic
queries on a Bayesian network answered by *purely symbolic* compilation
plus weighted circuit evaluations (Sections 2–3).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bayesnet.network import BayesianNetwork
from ..compile.dnnf_compiler import DnnfCompiler
from ..nnf.node import NnfNode
from ..nnf.queries import mpe as nnf_mpe, weighted_model_count
from .arithmetic_circuit import ArithmeticCircuit
from .encoding import BnEncoding, encode_binary, encode_multistate

__all__ = ["WmcPipeline"]


class WmcPipeline:
    """Compile a Bayesian network once; answer MAR/MPE queries by WMC.

    Parameters
    ----------
    network:
        The Bayesian network.
    encoding:
        "binary" (the Section 2.2 encoding; binary networks only) or
        "multistate" (indicator encoding, any cardinalities).
    cache_dir:
        Directory of a content-addressed compilation cache
        (:class:`repro.ir.store.ArtifactStore`): the CNF → d-DNNF
        compilation is served from disk when the same network/encoding
        was compiled before.  Defaults to ``$REPRO_CACHE_DIR``.
    budget:
        Optional :class:`~repro.limits.budget.Budget` bounding the
        compilation that runs in this constructor; exhaustion raises
        :class:`~repro.limits.budget.BudgetExceeded` (see
        :mod:`repro.limits`).  An ambient budget governs when none is
        passed.
    """

    def __init__(self, network: BayesianNetwork,
                 encoding: str = "multistate",
                 exploit_determinism: bool = False,
                 cache_dir=None, budget=None):
        self.network = network
        if encoding == "binary":
            self.encoding: BnEncoding = encode_binary(
                network, exploit_determinism=exploit_determinism)
        elif encoding == "multistate":
            self.encoding = encode_multistate(
                network, exploit_determinism=exploit_determinism)
        else:
            raise ValueError(f"unknown encoding {encoding!r}")
        store = None
        if cache_dir is not None:
            from ..ir.store import ArtifactStore
            store = ArtifactStore(cache_dir)
        self._compiler = DnnfCompiler(store=store, budget=budget)
        self.circuit: NnfNode = self._compiler.compile(self.encoding.cnf)
        self._all_vars = list(range(1, self.encoding.cnf.num_vars + 1))
        self._ac: Optional[ArithmeticCircuit] = None

    @property
    def arithmetic_circuit(self) -> ArithmeticCircuit:
        """The (smoothed) AC view, built lazily."""
        if self._ac is None:
            self._ac = ArithmeticCircuit(self.circuit, self._all_vars)
        return self._ac

    def circuit_size(self) -> int:
        return self.circuit.edge_count()

    # -- queries ----------------------------------------------------------------
    def probability_of_evidence(self, evidence: Mapping[str, int]
                                ) -> float:
        """Pr(e) = WMC(Δ) under evidence-adjusted weights."""
        weights = self.encoding.evidence_weights(evidence)
        return weighted_model_count(self.circuit, weights, self._all_vars)

    def mar(self, query: Mapping[str, int],
            evidence: Mapping[str, int] | None = None) -> float:
        """Pr(query | evidence) via two weighted counts."""
        evidence = dict(evidence or {})
        joint = self.probability_of_evidence({**evidence, **query})
        denom = self.probability_of_evidence(evidence) if evidence else 1.0
        if denom == 0:
            raise ZeroDivisionError("evidence has probability zero")
        return joint / denom

    def marginals(self, evidence: Mapping[str, int] | None = None
                  ) -> Dict[str, Dict[int, float]]:
        """Posterior marginals of *all* variables from one differential
        pass on the arithmetic circuit (footnote 5 of the paper)."""
        evidence = dict(evidence or {})
        weights = self.encoding.evidence_weights(evidence)
        counts = self.arithmetic_circuit.literal_marginals(weights)
        total = self.arithmetic_circuit.evaluate(weights)
        if total == 0:
            raise ZeroDivisionError("evidence has probability zero")
        result: Dict[str, Dict[int, float]] = {}
        for (name, state), literal in self.encoding.indicator.items():
            result.setdefault(name, {})[state] = counts[literal] / total
        return result

    # -- batched queries --------------------------------------------------------
    def _evidence_weight_batch(self, evidence_batch):
        from ..ir.kernel import pack_weight_batch
        maps = [self.encoding.evidence_weights(dict(e or {}))
                for e in evidence_batch]
        return pack_weight_batch(maps, self._all_vars)

    def probability_of_evidence_batch(
            self, evidence_batch: Sequence[Mapping[str, int]],
            log_space: bool = False):
        """Pr(e) for N evidence instantiations in one numpy pass.

        Column ``j`` of the returned length-N array equals
        ``probability_of_evidence(evidence_batch[j])`` (its log with
        ``log_space=True``, which survives networks whose evidence
        probabilities underflow a float).
        """
        batch = self._evidence_weight_batch(evidence_batch)
        ac = self.arithmetic_circuit
        if log_space:
            return ac.evaluate_log_batch(batch)
        return ac.evaluate_batch(batch)

    def marginals_batch(self,
                        evidence_batch: Sequence[Mapping[str, int]]
                        ) -> List[Dict[str, Dict[int, float]]]:
        """Posterior marginals of all variables for N evidence
        instantiations — one batched upward + downward differential
        pass instead of N scalar :meth:`marginals` calls.
        """
        batch = self._evidence_weight_batch(evidence_batch)
        ac = self.arithmetic_circuit
        counts = ac.literal_marginals_batch(batch)
        totals = ac.evaluate_batch(batch)
        results: List[Dict[str, Dict[int, float]]] = []
        items = list(self.encoding.indicator.items())
        for j in range(len(totals)):
            total = totals[j]
            if total == 0:
                raise ZeroDivisionError(
                    f"evidence {j} has probability zero")
            per_query: Dict[str, Dict[int, float]] = {}
            for (name, state), literal in items:
                per_query.setdefault(name, {})[state] = \
                    float(counts[literal][j]) / total
            results.append(per_query)
        return results

    def mpe(self, evidence: Mapping[str, int] | None = None
            ) -> Tuple[Dict[str, int], float]:
        """A most probable complete instantiation by max-product circuit
        evaluation (linear in the compiled size)."""
        evidence = dict(evidence or {})
        weights = self.encoding.evidence_weights(evidence)
        value, model = nnf_mpe(self.circuit, weights, self._all_vars)
        return self.encoding.state_of_model(model), value

    def map_query(self, map_vars: Sequence[str],
                  evidence: Mapping[str, int] | None = None
                  ) -> Tuple[Dict[str, int], float]:
        """MAP by *constrained* compilation (the NP^PP role):
        max over the MAP variables' indicators, sum over the rest.

        Returns (argmax instantiation of map_vars, Pr(y, e)).  Compiles
        a fresh constrained circuit per MAP variable set.
        """
        from ..solvers.weighted import weighted_emajsat
        evidence = dict(evidence or {})
        y_cnf_vars = sorted({abs(self.encoding.indicator[(name, state)])
                             for name in map_vars
                             for state in self._states_of(name)})
        weights = self.encoding.evidence_weights(evidence)
        value, witness = weighted_emajsat(self.encoding.cnf, weights,
                                          y_cnf_vars)
        result: Dict[str, int] = {}
        for name in map_vars:
            for state in self._states_of(name):
                literal = self.encoding.indicator[(name, state)]
                holds = witness.get(abs(literal), literal < 0)
                if (literal > 0) == holds:
                    result[name] = state
        return result, value

    def sdp(self, decision_var: str, decision_state: int,
            threshold: float, observables: Sequence[str],
            evidence: Mapping[str, int] | None = None) -> float:
        """Same-decision probability (the PP^PP query) by constrained
        compilation; see :mod:`repro.wmc.sdp`.  Compiles a fresh
        constrained circuit per observable set."""
        from .sdp import same_decision_probability
        return same_decision_probability(
            self.network, decision_var, decision_state, threshold,
            observables, evidence)

    def _states_of(self, name: str) -> List[int]:
        return sorted(state for (n, state) in self.encoding.indicator
                      if n == name)
