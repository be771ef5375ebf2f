"""FIG17 — learning preference distributions over rankings.

Regenerates: the ranking-space sizes (n! models over n² variables), and
the [17] case study — a PSDD learned on the compiled ranking space is
*competitive* with the dedicated Mallows model on data drawn from a
Mallows distribution (test log-likelihood), while also supporting
arbitrary evidence queries the dedicated model cannot.
"""

import math
import random

from repro.psdd import learn_parameters, marginal, psdd_from_sdd
from repro.sdd import model_count
from repro.spaces import MallowsModel, RankingSpace, fit_mallows


def _ranking_experiment():
    space_rows = []
    for n in (2, 3, 4):
        space = RankingSpace(n)
        sdd, _manager = space.compile()
        space_rows.append((n, n * n, model_count(sdd),
                           math.factorial(n), sdd.size()))

    n = 4
    rng = random.Random(17)
    truth = MallowsModel([2, 0, 3, 1], phi=0.45)
    space = RankingSpace(n)
    sdd, _manager = space.compile()

    def draw(count):
        aggregate = {}
        for _ in range(count):
            r = tuple(truth.sample(rng))
            aggregate[r] = aggregate.get(r, 0) + 1
        return [(list(r), c) for r, c in aggregate.items()]

    train, test = draw(1500), draw(1500)
    test_total = sum(c for _r, c in test)

    psdd = psdd_from_sdd(sdd)
    psdd_data = [(space.ranking_assignment(r), c) for r, c in train]
    learn_parameters(psdd, psdd_data, alpha=0.1)
    psdd_ll = sum(c * math.log(psdd.probability(
        space.ranking_assignment(r))) for r, c in test) / test_total

    mallows = fit_mallows(train)
    mallows_ll = mallows.log_likelihood(test) / test_total
    truth_ll = truth.log_likelihood(test) / test_total

    # a query the dedicated model has no native support for:
    # Pr(item 2 ranked first)
    first_place = marginal(psdd, {space.variable(2, 0): True})
    return space_rows, psdd_ll, mallows_ll, truth_ll, mallows, first_place


def test_fig17_rankings(benchmark, table):
    (space_rows, psdd_ll, mallows_ll, truth_ll, mallows,
     first_place) = benchmark.pedantic(_ranking_experiment, rounds=1,
                                       iterations=1)

    table("Fig 17: ranking spaces (n items, n^2 Boolean variables)",
          [[n, vars_, models, expected, size]
           for n, vars_, models, expected, size in space_rows],
          headers=["n", "variables", "SDD models", "n!", "SDD size"])
    table("the [17] case study: PSDD vs dedicated Mallows model "
          "(test log-likelihood per ranking; higher is better)",
          [["PSDD on compiled space", f"{psdd_ll:.4f}"],
           [f"fitted Mallows (phi={mallows.phi:.3f})",
            f"{mallows_ll:.4f}"],
           ["generating Mallows (oracle)", f"{truth_ll:.4f}"]],
          headers=["model", "test LL"])
    print(f"\n  bonus query on the PSDD: Pr(item 2 ranked first) = "
          f"{first_place:.3f}")

    for n, _v, models, expected, _s in space_rows:
        assert models == expected
    # competitive: within 10% of the dedicated model's (negative) LL
    assert psdd_ll >= mallows_ll - 0.1 * abs(mallows_ll)
    # nobody beats the oracle by much (sampling noise only)
    assert psdd_ll <= truth_ll + 0.05
    assert mallows.center == [2, 0, 3, 1]
    assert 0 <= first_place <= 1
