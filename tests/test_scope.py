"""One widening rule: every query route answers over the caller's scope.

The kernel applies the root's gap — the scope variables a circuit
never mentions — after either backend's pass, and every front door
hands it the scope instead of widening on its own.  Each route is
checked against brute-force enumeration over ``1..num_vars`` on CNFs
whose header declares variables the circuit never mentions: variables
in no clause, and variables that propagation frees (``1 2 0 / 1 -2
0`` frees x2).

Routes: ``nnf.queries`` with ``variables``, ``obdd.ops``,
``sdd.queries``, ``ArithmeticCircuit`` batches, ``facade.query_ir``
on the base circuit and on an optimized variant whose Tseitin
auxiliaries were forgotten (checked on its non-forgotten variables),
and ``repro query`` for all five kinds, with and without
``--optimize``.  CI runs this file under ``REPRO_BACKEND=interp`` too.
"""

import contextlib
import io
import itertools
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import ProofViolation, clear_proved
from repro.analyze.gate import GATE_ENV
from repro.cli import main
from repro.compile.dnnf_compiler import DnnfCompiler
from repro.ir import facade
from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
from repro.ir.kernel import ir_kernel
from repro.ir.lower import nnf_to_ir
from repro.ir.passes import optimize_ir
from repro.logic.cnf import Cnf
from repro.logic.formula import And, Iff, Lit, Not, Or
from repro.logic.tseitin import tseitin
from repro.nnf import queries
from repro.nnf.transform import smooth
from repro.obdd import ops as obdd_ops
from repro.obdd.ops import compile_cnf_obdd
from repro.sdd import queries as sdd_queries
from repro.sdd.compiler import compile_cnf_sdd
from repro.wmc.arithmetic_circuit import ArithmeticCircuit

#: the example every route used to answer differently: x2 is freed
EXAMPLE = "p cnf 2 2\n1 2 0\n1 -2 0\n"


# -- inputs -------------------------------------------------------------------

@st.composite
def scoped_cnfs(draw):
    """A CNF over 2..10 declared variables whose clauses leave the top
    ones unused, sometimes with a pair ``a b / a -b`` that propagation
    resolves to ``a`` and so frees ``b``."""
    num_vars = draw(st.integers(2, 10))
    used = draw(st.integers(1, num_vars - 1))
    literal = st.integers(1, used).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3)
                            .map(tuple), max_size=2 * used))
    if used >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(1, used + 1)))[:2]
        clauses += [(a, b), (a, -b)]
    return Cnf(clauses, num_vars=num_vars)


@st.composite
def weight_maps(draw, num_vars):
    value = st.floats(0.1, 2.0)
    return {lit: draw(value) for v in range(1, num_vars + 1)
            for lit in (v, -v)}


# -- the brute-force reference --------------------------------------------------

class Truth:
    """Every answer over ``variables``, by enumerating the CNF's models
    over ``1..num_vars`` and projecting them (forgotten auxiliaries are
    functionally determined, so the projection is one-to-one)."""

    def __init__(self, cnf, variables=None):
        self.variables = list(variables or range(1, cnf.num_vars + 1))
        self.models = []
        for bits in itertools.product([False, True],
                                      repeat=cnf.num_vars):
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
                   for clause in cnf.clauses):
                self.models.append({v: bits[v - 1]
                                    for v in self.variables})

    def weight(self, model, weights):
        return math.prod(weights[v if model[v] else -v] for v in model)

    def count(self):
        return len(self.models)

    def wmc(self, weights):
        return sum(self.weight(m, weights) for m in self.models)

    def mpe(self, weights):
        return max((self.weight(m, weights) for m in self.models),
                   default=None)

    def marginals(self):
        return {lit: sum(1 for m in self.models if m[abs(lit)] == (lit > 0))
                for v in self.variables for lit in (v, -v)}


def check_mpe(truth, weights, value, model):
    """The MPE value is the best model weight over the scope, and the
    model names every scope variable and weighs that much; without a
    model the answer is the max-product zero and an empty model."""
    best = truth.mpe(weights)
    if best is None:
        assert (value, model) == (float("-inf"), {})
        return
    assert value == pytest.approx(best, rel=1e-9)
    assert sorted(model) == truth.variables
    assert model in truth.models
    assert truth.weight(model, weights) == pytest.approx(best, rel=1e-9)


def compiled(cnf):
    root = DnnfCompiler().compile(cnf)
    return root, nnf_to_ir(root,
                           flags=FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC)


def swapped(weights):
    return {lit: weights[-lit] for lit in weights}


# -- library routes ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_library_routes_answer_over_the_scope(data):
    cnf = data.draw(scoped_cnfs())
    weights = data.draw(weight_maps(cnf.num_vars))
    truth = Truth(cnf)
    variables = range(1, cnf.num_vars + 1)
    rows = [weights, swapped(weights)]
    expected_rows = [truth.wmc(w) for w in rows]
    root, ir = compiled(cnf)

    # nnf.queries with variables
    assert queries.model_count(root, variables) == truth.count()
    assert queries.weighted_model_count(root, weights, variables) == \
        pytest.approx(truth.wmc(weights), rel=1e-9)
    assert list(queries.weighted_model_count_batch(root, rows, variables)) \
        == pytest.approx(expected_rows, rel=1e-9)
    logs = queries.weighted_model_count_log_batch(root, rows, variables)
    assert list(np.exp(logs)) == pytest.approx(expected_rows, rel=1e-9)
    check_mpe(truth, weights, *queries.mpe(root, weights, variables))
    assert queries.marginal_counts(smooth(root), variables) == \
        truth.marginals()

    # obdd.ops and sdd.queries over the manager's whole order / vtree
    obdd, _ = compile_cnf_obdd(cnf)
    assert obdd_ops.model_count(obdd) == truth.count()
    assert obdd_ops.weighted_model_count(obdd, weights) == \
        pytest.approx(truth.wmc(weights), rel=1e-9)
    sdd, _ = compile_cnf_sdd(cnf)
    assert sdd_queries.model_count(sdd) == truth.count()
    assert sdd_queries.weighted_model_count(sdd, weights) == \
        pytest.approx(truth.wmc(weights), rel=1e-9)

    # ArithmeticCircuit batches
    ac = ArithmeticCircuit(root, list(variables))
    assert list(ac.evaluate_batch(rows)) == \
        pytest.approx(expected_rows, rel=1e-9)
    assert list(np.exp(ac.evaluate_log_batch(rows))) == \
        pytest.approx(expected_rows, rel=1e-9)

    # the kernel itself, on the lowered circuit
    with np.errstate(divide="ignore"):
        log_rows = {lit: np.log([w[lit] for w in rows])
                    for lit in weights}
    assert list(np.exp(ir_kernel(ir).wmc_log_batch(
        log_rows, scope=variables))) == \
        pytest.approx(expected_rows, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_facade_answers_over_num_vars(data):
    cnf = data.draw(scoped_cnfs())
    weights = data.draw(weight_maps(cnf.num_vars))
    truth = Truth(cnf)
    _, ir = compiled(cnf)
    check_facade(ir, cnf.num_vars, (), truth, weights)


def check_facade(ir, num_vars, forgotten, truth, weights):
    def ask(query, **kwargs):
        return facade.query_ir(ir, query, num_vars=num_vars,
                               forgotten=forgotten, **kwargs)
    assert ask("count")["result"] == truth.count()
    assert ask("wmc", weights=weights)["result"] == \
        pytest.approx(truth.wmc(weights), rel=1e-9)
    rows = [weights, swapped(weights), {}]
    assert ask("wmc", weight_batch=rows)["result"] == \
        pytest.approx([truth.wmc(w) for w in rows[:2]] + [truth.count()],
                      rel=1e-9)
    mpe = ask("mpe", weights=weights)
    model = {int(v): state for v, state in mpe["model"].items()}
    check_mpe(truth, weights, mpe["result"], model)
    marginals = ask("marginals")
    assert marginals["count"] == truth.count()
    expected = truth.marginals()
    assert marginals["result"] == {
        str(v): [expected[-v], expected[v]] for v in truth.variables}


def tseitin_cnfs():
    """A Tseitin CNF whose formula leaves some of its declared
    original variables unused (the auxiliaries come after them)."""
    def formula(draw_vars):
        original, seed = draw_vars
        rng = random.Random(seed)
        used = rng.randint(1, original - 1)

        def grow(depth):
            if depth == 0 or rng.random() < 0.3:
                lit = Lit(rng.randint(1, used))
                return Not(lit) if rng.random() < 0.5 else lit
            op = rng.choice([And, Or, Iff])
            if op is Iff:
                return Iff(grow(depth - 1), grow(depth - 1))
            return op(*(grow(depth - 1) for _ in range(2)))
        cnf, _ = tseitin(grow(2), num_vars=original)
        return cnf
    return st.tuples(st.integers(2, 4), st.integers(0, 10 ** 6)) \
        .map(formula).filter(lambda cnf: cnf.num_vars <= 10)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_optimized_variant_answers_over_its_unforgotten_variables(data):
    """The facade on the variant, and ``repro query --optimize`` (the
    same default pipeline, so the same forgotten set)."""
    cnf = data.draw(tseitin_cnfs())
    _, ir = compiled(cnf)
    result = optimize_ir(ir, aux_vars=cnf.aux_vars)
    assert result.forgotten <= cnf.aux_vars
    truth = Truth(cnf, [v for v in range(1, cnf.num_vars + 1)
                        if v not in result.forgotten])
    weights = data.draw(weight_maps(cnf.num_vars))
    for v in result.forgotten:  # a forgotten literal is never read
        weights[v] = weights[-v] = 1.0
    check_facade(result.ir, cnf.num_vars, result.forgotten, truth, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.cnf"
        path.write_text(cnf.to_dimacs())
        check_repro_query(path, truth, weights, optimize=True)


# -- repro query ---------------------------------------------------------------------

def run_query(path, query, weights=None, optimize=False):
    argv = ["query", str(path), "--query", query]
    argv += [f"--weight={lit}={value!r}"
             for lit, value in (weights or {}).items()]
    if optimize:
        argv.append("--optimize")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [line for line in out.getvalue().splitlines()
            if not line.startswith("c optimize")]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_repro_query_answers_over_num_vars(data):
    cnf = data.draw(scoped_cnfs())
    weights = data.draw(weight_maps(cnf.num_vars))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.cnf"
        path.write_text(cnf.to_dimacs())
        for optimize in (False, True):
            check_repro_query(path, Truth(cnf), weights, optimize)


def check_repro_query(path, truth, weights, optimize):
    assert run_query(path, "count", optimize=optimize) == \
        [f"s mc {truth.count()}"]
    assert run_query(path, "sat", optimize=optimize) == \
        ["s SATISFIABLE" if truth.count() else "s UNSATISFIABLE"]
    (wmc,) = run_query(path, "wmc", weights, optimize)
    assert float(wmc.split()[2]) == \
        pytest.approx(truth.wmc(weights), rel=1e-9)
    model_line, value_line = run_query(path, "mpe", weights, optimize)
    literals = [int(t) for t in model_line.split()[1:-1]]
    check_mpe(truth, weights, float(value_line.split()[2]),
              {abs(lit): lit > 0 for lit in literals})
    *marginal_lines, total = run_query(path, "marginals",
                                       optimize=optimize)
    expected = truth.marginals()
    assert marginal_lines == [f"c marginal {v} {expected[v]} {expected[-v]}"
                              for v in truth.variables]
    assert total == f"s mc {truth.count()}"


# -- the fixed answers --------------------------------------------------------------

@pytest.fixture
def example(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text(EXAMPLE)
    return path


@pytest.mark.parametrize("optimize", [False, True])
def test_example_on_the_cli(example, optimize):
    assert run_query(example, "marginals", optimize=optimize) == \
        ["c marginal 1 2 0", "c marginal 2 1 1", "s mc 2"]
    assert run_query(example, "mpe", {2: 3.0}, optimize) == \
        ["v 1 2 0", "s mpe 3.0"]


def test_example_through_the_facade():
    _, ir = compiled(Cnf.from_dimacs(EXAMPLE))
    mpe = facade.query_ir(ir, "mpe", num_vars=2, weights={2: 3.0})
    assert mpe["result"] == 3.0
    assert mpe["model"] == {"1": True, "2": True}
    marginals = facade.query_ir(ir, "marginals", num_vars=2)
    assert marginals["result"] == {"1": [0, 2], "2": [1, 1]}
    assert marginals["count"] == 2
    # without num_vars the answers stay over the circuit's own variable
    assert facade.query_ir(ir, "marginals") == \
        {"query": "marginals", "result": {"1": [0, 1]}, "count": 1}
    assert facade.query_ir(ir, "mpe", weights={1: 3.0})["model"] == \
        {"1": True}


# -- the kernel's scope ----------------------------------------------------------------

def test_kernel_scope_must_cover_the_circuit():
    _, ir = compiled(Cnf.from_dimacs("p cnf 3 2\n1 3 0\n-1 -3 0\n"))
    kernel = ir_kernel(ir)
    weights = {lit: 1.0 for v in (1, 2, 3) for lit in (v, -v)}
    batch = {lit: np.ones(2) for lit in weights}
    for query in (lambda s: kernel.model_count(scope=s),
                  lambda s: kernel.wmc(weights, scope=s),
                  lambda s: kernel.wmc_batch(batch, scope=s),
                  lambda s: kernel.wmc_log_batch(batch, scope=s),
                  lambda s: kernel.mpe(weights, scope=s),
                  lambda s: kernel.marginals(scope=s)):
        with pytest.raises(ValueError, match=r"misses circuit variables \[3\]"):
            query([1, 2])
    with pytest.raises(ValueError, match="misses circuit variables"):
        facade.query_ir(ir, "count", num_vars=2)


def test_scope_none_keeps_the_circuits_own_answers():
    _, ir = compiled(Cnf.from_dimacs(EXAMPLE))
    kernel = ir_kernel(ir)
    assert kernel.model_count() == 1
    assert kernel.marginals() == {1: 1}
    assert kernel.marginals(scope=[1]) == {-1: 0, 1: 1}
    # without num_vars the facade's marginals range over the circuit's
    # own variables, and name both polarities of each
    assert facade.query_ir(ir, "marginals") == \
        {"query": "marginals", "result": {"1": [0, 1]}, "count": 1}
    assert kernel.mpe({1: 2.0, -1: 5.0, 2: 3.0, -2: 3.0}) == (2.0, {1: True})
    # a tie goes to the positive literal, as in the traceback
    assert kernel.mpe({1: 2.0, -1: 5.0, 2: 3.0, -2: 3.0}, scope=[1, 2]) \
        == (6.0, {1: True, 2: True})


def test_unsatisfiable_mpe_gains_no_model():
    """Zero absorbs every gap factor: no weight (a zero one included)
    turns the max-product zero of an unsatisfiable circuit into a
    value, and no literal joins its empty model."""
    _, ir = compiled(Cnf.from_dimacs("p cnf 2 2\n1 0\n-1 0\n"))
    weights = {1: 1.0, -1: 1.0, 2: 0.0, -2: 0.0}
    assert ir_kernel(ir).mpe(weights, scope=[1, 2]) == (float("-inf"), {})
    assert facade.query_ir(ir, "mpe", num_vars=2, weights=weights) == \
        {"query": "mpe", "result": float("-inf"), "model": {}}


# -- the proved gate holds for marginals --------------------------------------------

@pytest.fixture
def unproved_example():
    clear_proved()
    _, ir = compiled(Cnf.from_dimacs(EXAMPLE))
    yield ir
    clear_proved()


@pytest.mark.parametrize("query", ["count", "marginals"])
def test_proved_gate_refuses_facade_marginals(unproved_example, monkeypatch,
                                              query):
    monkeypatch.setenv(GATE_ENV, "proved")
    with pytest.raises(ProofViolation):
        facade.query_ir(unproved_example, query, num_vars=2)


@pytest.mark.parametrize("mode", ["trust", "strict"])
def test_trust_and_strict_marginals_rise_to_repair(unproved_example,
                                                   monkeypatch, mode):
    """A non-smooth circuit is auto-smoothed for marginals."""
    _, ir = compiled(Cnf.from_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n"))
    monkeypatch.setenv(GATE_ENV, mode)
    assert facade.query_ir(ir, "marginals", num_vars=3)["result"] == \
        {"1": [2, 2], "2": [1, 3], "3": [1, 3]}


@pytest.mark.parametrize("optimize", [[], ["--optimize"]])
def test_proved_gate_refuses_cli_marginals(example, capsys, optimize):
    clear_proved()
    assert main(["query", str(example), "--query", "marginals",
                 "--gate", "proved", *optimize]) == 4
    assert "no verified equivalence proof" in capsys.readouterr().err
