"""Tests for structured spaces: route and ranking encodings, Mallows."""

import math
import random

import pytest

from repro.psdd import support_size
from repro.sat import count_models
from repro.sdd import enumerate_models, model_count
from repro.spaces import (MallowsModel, RankingSpace, RouteModel,
                          borda_ranking, degree_relaxation_cnf,
                          enumerate_routes, fit_mallows, grid_map,
                          kendall_tau, route_space_sdd)


# -- road maps -----------------------------------------------------------------

def test_grid_map_structure():
    gm = grid_map(2, 3)
    assert gm.num_edges == 7  # 2*2 vertical + 3... (2 rows x 3 cols)
    assert len(gm.nodes) == 6
    assert sorted(gm.variables()) == list(range(1, 8))


def test_grid_map_rejects_bad_dims():
    with pytest.raises(ValueError):
        grid_map(0, 3)


def test_route_assignment_roundtrip():
    gm = grid_map(2, 2)
    path = [(0, 0), (0, 1), (1, 1)]
    assignment = gm.route_assignment(path)
    assert sum(assignment.values()) == 2
    assert gm.is_route(assignment, (0, 0), (1, 1))
    edges = gm.assignment_route_edges(assignment)
    assert len(edges) == 2


def test_route_assignment_rejects_nonedges():
    gm = grid_map(2, 2)
    with pytest.raises(ValueError):
        gm.route_assignment([(0, 0), (1, 1)])  # diagonal


def test_disconnected_assignment_is_not_route():
    """The orange assignment of Fig 16: disconnected edges."""
    gm = grid_map(2, 2)
    assignment = {v: False for v in gm.variables()}
    assignment[gm.edge_variable((0, 0), (0, 1))] = True
    assignment[gm.edge_variable((1, 0), (1, 1))] = True
    assert not gm.is_route(assignment, (0, 0), (1, 1))


def test_route_enumeration_counts():
    # corner-to-corner simple paths: 2x2 grid -> 2, 3x3 grid -> 12
    assert len(enumerate_routes(grid_map(2, 2), (0, 0), (1, 1))) == 2
    assert len(enumerate_routes(grid_map(3, 3), (0, 0), (2, 2))) == 12


def test_route_space_sdd_models_are_routes():
    gm = grid_map(2, 2)
    sdd, manager, routes = route_space_sdd(gm, (0, 0), (1, 1))
    assert model_count(sdd) == len(routes) == 2
    for model in enumerate_models(sdd):
        assert gm.is_route(model, (0, 0), (1, 1))


def test_route_space_no_route():
    import networkx as nx
    from repro.spaces.gridmap import RoadMap
    graph = nx.Graph()
    graph.add_edge("a", "b")
    graph.add_edge("c", "d")
    road_map = RoadMap(graph)
    with pytest.raises(ValueError):
        route_space_sdd(road_map, "a", "c")


def test_degree_relaxation_is_a_superset():
    """Every valid route satisfies the degree CNF; the CNF may admit
    extra models (route + disjoint cycles) — the paper's reason for
    dedicated compilation of graph substructures."""
    gm = grid_map(3, 3)
    cnf = degree_relaxation_cnf(gm, (0, 0), (2, 2))
    routes = enumerate_routes(gm, (0, 0), (2, 2))
    for route in routes:
        assert cnf.evaluate(gm.route_assignment(route))
    assert count_models(cnf) >= len(routes)
    # on the 3x3 grid the gap is real: 14 models vs 12 routes
    assert count_models(cnf) == 14


def test_route_model_learns_frequencies():
    gm = grid_map(2, 2)
    model = RouteModel(gm, (0, 0), (1, 1))
    upper = [(0, 0), (0, 1), (1, 1)]
    lower = [(0, 0), (1, 0), (1, 1)]
    model.fit([upper] * 3 + [lower] * 1)
    assert model.route_probability(upper) == pytest.approx(0.75)
    assert model.route_probability(lower) == pytest.approx(0.25)
    best, p = model.most_probable_route()
    assert best == upper
    assert p == pytest.approx(0.75)
    # edge marginal of the shared first edge of `upper`
    assert model.edge_marginal((0, 0), (0, 1)) == pytest.approx(0.75)


def test_route_model_sampling():
    gm = grid_map(2, 2)
    model = RouteModel(gm, (0, 0), (1, 1))
    upper = [(0, 0), (0, 1), (1, 1)]
    lower = [(0, 0), (1, 0), (1, 1)]
    model.fit([upper] * 9 + [lower])
    rng = random.Random(0)
    samples = model.sample_routes(200, rng)
    share = sum(1 for s in samples if s == upper) / len(samples)
    assert 0.8 < share <= 1.0


def test_route_model_psdd_support():
    gm = grid_map(3, 3)
    model = RouteModel(gm, (0, 0), (2, 2))
    assert support_size(model.psdd) == 12


# -- rankings -------------------------------------------------------------------

def test_ranking_variables_unique():
    rs = RankingSpace(3)
    seen = {rs.variable(i, j) for i in range(3) for j in range(3)}
    assert len(seen) == 9
    with pytest.raises(ValueError):
        rs.variable(3, 0)


def test_ranking_space_model_count_is_factorial():
    for n in (2, 3, 4):
        rs = RankingSpace(n)
        sdd, _manager = rs.compile()
        assert model_count(sdd) == math.factorial(n)


def test_ranking_assignment_roundtrip():
    rs = RankingSpace(4)
    ranking = [2, 0, 3, 1]
    assignment = rs.ranking_assignment(ranking)
    assert rs.assignment_ranking(assignment) == ranking
    assert rs.is_valid(assignment)


def test_invalid_ranking_assignment():
    """Fig 17's orange example: item in two positions is invalid."""
    rs = RankingSpace(2)
    assignment = {v: False for v in rs.variables()}
    assignment[rs.variable(0, 0)] = True
    assignment[rs.variable(0, 1)] = True
    assert not rs.is_valid(assignment)
    with pytest.raises(ValueError):
        rs.ranking_assignment([0, 0])


def test_ranking_cnf_models_decode():
    rs = RankingSpace(3)
    cnf = rs.constraint_cnf()
    rankings = set()
    for model in cnf.models():
        rankings.add(tuple(rs.assignment_ranking(model)))
    assert len(rankings) == 6


# -- Mallows --------------------------------------------------------------------

def test_kendall_tau():
    assert kendall_tau([0, 1, 2], [0, 1, 2]) == 0
    assert kendall_tau([2, 1, 0], [0, 1, 2]) == 3
    assert kendall_tau([1, 0, 2], [0, 1, 2]) == 1
    with pytest.raises(ValueError):
        kendall_tau([0, 1], [0, 2])


def test_mallows_normalizes():
    import itertools
    model = MallowsModel([0, 1, 2, 3], 0.6)
    total = sum(model.probability(list(p))
                for p in itertools.permutations(range(4)))
    assert total == pytest.approx(1.0)


def test_mallows_phi_one_is_uniform():
    model = MallowsModel([0, 1, 2], 1.0)
    assert model.probability([2, 1, 0]) == pytest.approx(1 / 6)


def test_mallows_center_is_mode():
    model = MallowsModel([0, 1, 2, 3], 0.3)
    import itertools
    probs = {p: model.probability(list(p))
             for p in itertools.permutations(range(4))}
    assert max(probs, key=probs.get) == (0, 1, 2, 3)


def test_mallows_invalid_phi():
    with pytest.raises(ValueError):
        MallowsModel([0, 1], 0.0)
    with pytest.raises(ValueError):
        MallowsModel([0, 1], 1.5)


def test_mallows_sampling_statistics():
    rng = random.Random(11)
    model = MallowsModel([0, 1, 2, 3], 0.4)
    samples = [model.sample(rng) for _ in range(3000)]
    center_share = sum(1 for s in samples if s == [0, 1, 2, 3]) / 3000
    assert abs(center_share - model.probability([0, 1, 2, 3])) < 0.05


def test_borda_ranking():
    data = [([0, 1, 2], 5), ([1, 0, 2], 1)]
    assert borda_ranking(data) == [0, 1, 2]


def test_fit_mallows_recovers_parameters():
    rng = random.Random(23)
    truth = MallowsModel([3, 1, 0, 2], 0.45)
    data = {}
    for _ in range(2000):
        s = tuple(truth.sample(rng))
        data[s] = data.get(s, 0) + 1
    fitted = fit_mallows([(list(r), c) for r, c in data.items()])
    assert fitted.center == [3, 1, 0, 2]
    assert abs(fitted.phi - 0.45) < 0.08
