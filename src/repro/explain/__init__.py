"""Explaining decisions (Section 5.1, Figs 25–28): sufficient reasons,
the complete reason, necessary characteristics, decision bias and
"even if … because" counterfactuals, all on the Decision-DNNF IR
(:mod:`repro.explain.implicants`).  An OBDD explains through
``node.to_ir()``; a negative decision through its complement."""

from .implicants import (CountOracle, ReasonGraph,
                         check_necessary_batch, check_sufficient_batch,
                         count_oracle, decision_is_biased,
                         decision_sticks_batch, iter_sufficient_reasons,
                         necessary_literals, reason_graph,
                         sufficient_reasons, verify_even_if_because)

__all__ = ["ReasonGraph", "CountOracle", "reason_graph",
           "count_oracle", "iter_sufficient_reasons",
           "sufficient_reasons", "necessary_literals",
           "check_sufficient_batch", "check_necessary_batch",
           "decision_is_biased", "decision_sticks_batch",
           "verify_even_if_because"]
