"""Tests for explanations on the IR route: sufficient reasons, the
complete-reason graph, bias, counterfactuals (Figs 26–27).

The circuits are OBDDs lowered with ``node.to_ir()`` (an OBDD is a
Decision-DNNF); a negative decision is explained on the complement.
Ground truth is the brute-force OBDD oracle in ``tests/oracles``.
"""

import importlib.util
import itertools
import os

from hypothesis import given, settings, strategies as st
import pytest

from repro.explain import (check_necessary_batch, check_sufficient_batch,
                           decision_is_biased, decision_sticks_batch,
                           iter_sufficient_reasons, necessary_literals,
                           reason_graph, sufficient_reasons,
                           verify_even_if_because)
from repro.logic import Cnf
from repro.obdd import ObddManager, compile_cnf_obdd
from tests.oracles.sufficient import (all_sufficient_reasons,
                                      is_sufficient_reason)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fig26_function():
    """f = (A + ¬C)(B + C)(A + B) with A=1, B=2, C=3."""
    manager = ObddManager([1, 2, 3])
    f = (manager.literal(1) | manager.literal(-3)) & \
        (manager.literal(2) | manager.literal(3)) & \
        (manager.literal(1) | manager.literal(2))
    return manager, f


def admissions_classifier():
    """A Fig 27-style admissions OBDD over five features.

    Features: 1=passed entrance exam (E), 2=first-time applicant (F),
    3=good GPA (G), 4=work experience (W), 5=rich hometown (R,
    protected).  Admit iff  (E ∧ (G ∨ W)) ∨ (R ∧ (E ∨ G)).
    """
    m = ObddManager([1, 2, 3, 4, 5])
    e, g, w, r = m.literal(1), m.literal(3), m.literal(4), m.literal(5)
    f = (e & (g | w)) | (r & (e | g))
    return m, f


def trigger_ir(node, instance):
    """The IR the decision on ``instance`` is explained on: the
    circuit for a positive decision, its complement for a negative."""
    if node.evaluate(instance):
        return node.to_ir()
    return node.manager.negate(node).to_ir()


def reasons_of(node, instance):
    return {frozenset(r) for r in
            sufficient_reasons(trigger_ir(node, instance),
                               instance)["reasons"]}


def touching(reasons, protected):
    return [any(abs(lit) in protected for lit in r) for r in reasons]


# -- sufficient reasons (Fig 26) ------------------------------------------------

def test_fig26_positive_instance_reasons():
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}  # A, B, ¬C -> decision 1
    assert f.evaluate(instance)
    assert reasons_of(f, instance) == {frozenset({1, 2}),
                                       frozenset({2, -3})}


def test_fig26_negative_instance_single_reason():
    _m, f = fig26_function()
    instance = {1: False, 2: True, 3: True}  # ¬A, B, C -> decision 0
    assert not f.evaluate(instance)
    # the circuit itself refuses; its complement explains
    with pytest.raises(ValueError, match="negative decision"):
        sufficient_reasons(f.to_ir(), instance)
    out = sufficient_reasons(trigger_ir(f, instance), instance)
    assert out["reasons"] == [[-1, 3]]


def test_is_sufficient_reason():
    """The oracle's sufficiency + minimality check, against the
    batched sufficiency check on the IR."""
    _m, f = fig26_function()
    ir = f.to_ir()
    instance = {1: True, 2: True, 3: False}
    assert is_sufficient_reason(f, instance, [1, 2])
    assert is_sufficient_reason(f, instance, [2, -3])
    assert not is_sufficient_reason(f, instance, [2])  # not sufficient
    assert not is_sufficient_reason(f, instance, [1, 2, -3])  # not minimal
    assert is_sufficient_reason(f, instance, [1, 2, -3],
                                check_minimal=False)
    assert not is_sufficient_reason(f, instance, [-1, 2])  # not in inst
    terms = [[1, 2], [2, -3], [2], [1, 2, -3], [-1, 2]]
    assert check_sufficient_batch(ir, [instance] * len(terms), terms) == \
        [True, True, False, True, False]


def test_minimal_reason_is_minimal_and_sufficient():
    """The enumerator's first reason (one greedy shrink) is a true,
    subset-minimal sufficient reason."""
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}
    first = next(iter_sufficient_reasons(f.to_ir(), instance))
    assert is_sufficient_reason(f, instance, sorted(first, key=abs))


def test_smallest_reason():
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}
    smallest = sufficient_reasons(f.to_ir(), instance,
                                  smallest=True)["smallest"]
    assert len(smallest) == 2
    assert is_sufficient_reason(f, instance, smallest)


def test_smallest_reason_max_size():
    """A size-bounded search (Fig 28's): no term of at most one
    instance literal is sufficient here."""
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}
    small = [list(c) for size in (0, 1)
             for c in itertools.combinations([1, 2, -3], size)]
    assert not any(check_sufficient_batch(f.to_ir(),
                                          [instance] * len(small), small))


def test_all_reasons_refuses_huge():
    manager = ObddManager(list(range(1, 31)))
    cube = manager.cube(list(range(1, 31)))
    instance = {v: True for v in range(1, 31)}
    with pytest.raises(ValueError):
        all_sufficient_reasons(cube, instance)
    # the IR enumerator has no such limit: the cube is its own reason
    out = sufficient_reasons(cube.to_ir(), instance)
    assert out["reasons"] == [list(range(1, 31))]


# -- the complete-reason graph ------------------------------------------------

def test_reason_circuit_prime_implicants_are_reasons():
    _m, f = fig26_function()
    for instance in ({1: True, 2: True, 3: False},
                     {1: False, 2: True, 3: True},
                     {1: True, 2: False, 3: False}):
        graph = reason_graph(trigger_ir(f, instance), instance)
        assert set(iter_sufficient_reasons(graph=graph)) == \
            set(all_sufficient_reasons(f, instance))


def test_reason_circuit_semantics():
    """A term triggers the complete-reason graph iff it contains a
    sufficient reason (the complete reason = disjunction of sufficient
    reasons)."""
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}
    graph = reason_graph(f.to_ir(), instance)
    reasons = all_sufficient_reasons(f, instance)
    literals = [1, 2, -3]
    for r in range(len(literals) + 1):
        for combo in itertools.combinations(literals, r):
            expected = any(t <= set(combo) for t in reasons)
            assert graph.evaluate(set(combo)) == expected


def test_reason_circuit_is_monotone():
    """Adding literals to a term can only turn the reason on."""
    _m, f = fig26_function()
    instance = {1: True, 2: True, 3: False}
    graph = reason_graph(f.to_ir(), instance)
    literals = [1, 2, -3]
    for r in range(len(literals)):
        for combo in itertools.combinations(literals, r):
            if graph.evaluate(set(combo)):
                for lit in literals:
                    assert graph.evaluate(set(combo) | {lit})


def cnfs(max_var=4, max_clauses=6):
    literal = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return st.lists(clause, min_size=1, max_size=max_clauses).map(
        lambda cs: Cnf(cs, num_vars=max_var))


@settings(max_examples=60, deadline=None)
@given(cnfs(), st.integers(0, 15))
def test_reason_circuit_matches_enumeration(cnf, bits):
    node, manager = compile_cnf_obdd(cnf)
    instance = {v: bool((bits >> (v - 1)) & 1)
                for v in range(1, cnf.num_vars + 1)}
    if node.is_terminal:
        return
    graph = reason_graph(trigger_ir(node, instance), instance)
    assert set(iter_sufficient_reasons(graph=graph)) == \
        set(all_sufficient_reasons(node, instance))


# -- bias (Fig 27) ---------------------------------------------------------------

def test_admissions_biased_decision():
    """A Scott-style instance: admitted only thanks to the protected
    feature."""
    _m, f = admissions_classifier()
    scott = {1: False, 2: True, 3: True, 4: False, 5: True}
    assert f.evaluate(scott)  # admitted via (R ∧ G)
    assert decision_is_biased(f.to_ir(), scott, protected=[5])
    assert all(touching(reasons_of(f, scott), {5}))


def test_admissions_unbiased_decision_biased_classifier():
    """A Robin-style instance: admitted on merit, but the classifier is
    still biased (some reasons mention the protected feature)."""
    _m, f = admissions_classifier()
    robin = {1: True, 2: True, 3: True, 4: True, 5: True}
    assert f.evaluate(robin)
    assert not decision_is_biased(f.to_ir(), robin, protected=[5])
    flags = touching(reasons_of(f, robin), {5})
    assert any(flags) and not all(flags)
    # a reduced OBDD tests exactly the variables its function depends on
    assert 5 in f.variables()


def test_unbiased_classifier():
    m, f = fig26_function()
    g = m.literal(1) & m.literal(2)
    assert 3 not in g.variables()
    for bits in itertools.product([False, True], repeat=3):
        instance = dict(zip([1, 2, 3], bits))
        assert not decision_is_biased(g.to_ir(), instance, protected=[3])
    # protecting nothing: no decision can be biased
    instance = {1: True, 2: True, 3: False}
    assert not decision_is_biased(f.to_ir(), instance, protected=[])


@settings(max_examples=60, deadline=None)
@given(cnfs(), st.integers(0, 15), st.integers(1, 4))
def test_bias_characterisations_agree(cnf, bits, protected_var):
    """The direct definition (one batched sufficiency check on the
    circuit, either decision) and the sufficient-reason
    characterisation over the brute-force reasons coincide (the [33]
    theorem)."""
    node, manager = compile_cnf_obdd(cnf)
    if node.is_terminal:
        return
    instance = {v: bool((bits >> (v - 1)) & 1)
                for v in range(1, cnf.num_vars + 1)}
    direct = decision_is_biased(node.to_ir(), instance, [protected_var])
    flags = touching(all_sufficient_reasons(node, instance),
                     {protected_var})
    assert direct == (bool(flags) and all(flags))


# -- counterfactuals ---------------------------------------------------------------

def test_decision_sticks():
    _m, f = admissions_classifier()
    robin = {1: True, 2: True, 3: True, 4: True, 5: True}
    # flipping work experience does not affect Robin (E ∧ G holds);
    # flipping the exam and the GPA does
    assert decision_sticks_batch(f.to_ir(), robin,
                                 [[4], [1, 3], []]) == [True, False, True]


def test_even_if_because_valid():
    """April's statement: sticks even without work experience because
    she passed the entrance exam (and has a good GPA)."""
    _m, f = admissions_classifier()
    april = {1: True, 2: False, 3: True, 4: True, 5: False}
    result = verify_even_if_because(f.to_ir(), april, flipped=[4],
                                    because=[1, 3])
    assert result["valid"] and result["sticks"]


def test_even_if_because_invalid_reason():
    _m, f = admissions_classifier()
    ir = f.to_ir()
    april = {1: True, 2: False, 3: True, 4: True, 5: False}
    # work experience cannot be the reason the decision survives
    # flipping work experience
    result = verify_even_if_because(ir, april, flipped=[4],
                                    because=[1, 4])
    assert not result["valid"]
    assert not result["because_avoids_flipped"]
    # a non-sufficient term is not a valid 'because'
    result = verify_even_if_because(ir, april, flipped=[4], because=[1])
    assert not result["because_is_sufficient"]
    assert not result["valid"]


# -- regression: term literals over variables absent from the instance --------

def test_term_check_handles_unknown_variable():
    """A term mentioning a variable the instance does not assign is
    simply not sufficient, in the oracle and on the IR alike."""
    manager, f = fig26_function()
    instance = {1: True, 2: True, 3: False}  # no variable 9
    terms = [[1, 9], [9], [-1, 2]]  # the last: flipped polarity
    for term in terms:
        assert not is_sufficient_reason(f, instance, term)
    assert check_sufficient_batch(f.to_ir(), [instance] * 3, terms) == \
        [False, False, False]


def test_is_necessary_rejects_unknown_variable():
    """A literal outside the instance (an unassigned variable or a
    flipped polarity) is never necessary."""
    manager, f = fig26_function()
    ir = f.to_ir()
    instance = {1: True, 2: True, 3: False}
    assert check_necessary_batch(ir, [instance] * 3, [9, -1, 2]) == \
        [False, False, True]
    assert necessary_literals(ir, instance) == [2]


def test_even_if_because_handles_unknown_variable():
    """verify_even_if_because marks a 'because' term over unassigned
    variables invalid instead of crashing (regression)."""
    _m, f = admissions_classifier()
    april = {1: True, 2: False, 3: True, 4: True, 5: False}
    result = verify_even_if_because(f.to_ir(), april, flipped=[4],
                                    because=[1, 9])
    assert not result["because_is_instance_term"]
    assert not result["valid"]


class TestOracleIsolationLint:
    """Lint rule ``oracle-isolation``: no file under ``src/``,
    ``benchmarks/``, ``tools/`` or ``examples/`` imports the test
    package, so the oracles stay ground truth and off every shipped
    route."""

    @staticmethod
    def _lint():
        path = os.path.join(REPO_ROOT, "tools", "lint_invariants.py")
        spec = importlib.util.spec_from_file_location("lint_inv", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_repo_is_clean(self):
        lint = self._lint()
        extras = [(os.path.join(REPO_ROOT, name), name)
                  for name in ("tools", "benchmarks", "examples")]
        violations = [v for v in lint.collect_violations(
            os.path.join(REPO_ROOT, "src", "repro"), extras)
            if v[2] == "oracle-isolation"]
        assert violations == []

    def test_test_imports_are_flagged(self, tmp_path):
        lint = self._lint()
        (tmp_path / "figure.py").write_text(
            "from tests.oracles.sufficient import all_sufficient_reasons\n")
        (tmp_path / "lazy.py").write_text(
            "def reasons():\n"
            "    import tests.oracles\n"
            "    from tests import oracles\n")
        (tmp_path / "fine.py").write_text(
            "from repro.explain import sufficient_reasons\n"
            "import testsuite\n"
            "from . import tests\n")
        violations = [v for v in lint.collect_violations(str(tmp_path))
                      if v[2] == "oracle-isolation"]
        flagged = sorted((os.path.basename(v[0]), v[1])
                         for v in violations)
        assert flagged == [("figure.py", 1), ("lazy.py", 2),
                           ("lazy.py", 3)]
