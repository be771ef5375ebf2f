"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.logic import Cnf
from repro.nnf import from_nnf_format, model_count


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text("p cnf 4 3\n1 2 0\n-2 3 0\n3 -4 0\n")
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    return str(path)


def test_count_command(cnf_file, capsys):
    assert main(["count", cnf_file]) == 0
    out = capsys.readouterr().out
    assert "s mc 7" in out


def test_count_verbose_and_switches(cnf_file, capsys):
    assert main(["count", cnf_file, "-v", "--no-cache",
                 "--no-components"]) == 0
    out = capsys.readouterr().out
    assert "s mc 7" in out
    assert "c decisions" in out


def test_sat_command(cnf_file, unsat_file, capsys):
    assert main(["sat", cnf_file]) == 0
    assert "SATISFIABLE" in capsys.readouterr().out
    assert main(["sat", unsat_file]) == 1
    assert "UNSATISFIABLE" in capsys.readouterr().out


def test_compile_roundtrip(cnf_file, tmp_path, capsys):
    output = str(tmp_path / "out.nnf")
    assert main(["compile", cnf_file, "-o", output]) == 0
    circuit = from_nnf_format(open(output).read())
    assert model_count(circuit, range(1, 5)) == 7


def test_compile_to_stdout(cnf_file, capsys):
    assert main(["compile", cnf_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nnf ")


def test_compile_sdd_format(cnf_file, tmp_path, capsys):
    from repro.ir.serialize import read_sdd_file
    from repro.sdd.queries import model_count as sdd_model_count
    base = str(tmp_path / "out")
    assert main(["compile", cnf_file, "--format", "sdd",
                 "-o", base]) == 0
    root, _ = read_sdd_file(open(base + ".sdd").read(),
                            open(base + ".vtree").read())
    assert sdd_model_count(root) == 7


def test_compile_with_cache_dir(cnf_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["compile", cnf_file, "--cache-dir", cache,
                 "--stats"]) == 0
    first = capsys.readouterr().out
    assert "c artifact_misses 1" in first
    assert main(["compile", cnf_file, "--cache-dir", cache,
                 "--stats"]) == 0
    second = capsys.readouterr().out
    assert "c artifact_hits 1" in second
    assert "c artifact-hit-rate 1.00" in second
    # the compiled circuit text is identical warm and cold
    assert first.split("\nc ")[0] == second.split("\nc ")[0]


def test_query_command(cnf_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["query", cnf_file, "--query", "count",
                 "--cache-dir", cache]) == 0
    assert "s mc 7" in capsys.readouterr().out

    assert main(["query", cnf_file, "--query", "sat"]) == 0
    assert "s SATISFIABLE" in capsys.readouterr().out

    assert main(["query", cnf_file, "--query", "wmc",
                 "--weight", "1=0.3", "--weight=-1=0.7",
                 "--cache-dir", cache, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "s wmc" in out
    assert "c artifact_hits 1" in out

    assert main(["query", cnf_file, "--query", "mpe",
                 "--weight", "4=2.0"]) == 0
    out = capsys.readouterr().out
    assert "s mpe" in out and "\nv " in "\n" + out

    assert main(["query", cnf_file, "--query", "marginals"]) == 0
    out = capsys.readouterr().out
    assert "c marginal 1 " in out and "s mc 7" in out


def test_query_bad_weight(cnf_file, capsys):
    assert main(["query", cnf_file, "--query", "wmc",
                 "--weight", "nope"]) == 2
    assert "bad weight spec" in capsys.readouterr().err


def test_sdd_command(cnf_file, capsys):
    for vtree in ("balanced", "right-linear", "left-linear"):
        assert main(["sdd", cnf_file, "--vtree", vtree]) == 0
        out = capsys.readouterr().out
        assert "s mc 7" in out
        assert "c sdd-size" in out


def test_enumerate_command(cnf_file, capsys):
    assert main(["enumerate", cnf_file]) == 0
    out = capsys.readouterr().out
    assert out.count("\nc ") + out.startswith("c ") >= 0
    assert "c 7 models printed" in out
    # every printed model satisfies the formula
    cnf = Cnf.from_dimacs(open(cnf_file).read())
    for line in out.splitlines():
        if line.startswith("v "):
            literals = [int(t) for t in line.split()[1:-1]]
            assignment = {abs(l): l > 0 for l in literals}
            assert cnf.evaluate(assignment)


def test_enumerate_limit(cnf_file, capsys):
    assert main(["enumerate", cnf_file, "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "c 2 models printed" in out


def test_missing_file(capsys):
    assert main(["count", "/nonexistent/x.cnf"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_dimacs(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("1 2 0\n")  # no header
    assert main(["count", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["compile", "--proof"],
                                  ["count"], ["sat"], ["query"]])
def test_bad_backend_exits_2_before_any_command(cnf_file, capsys,
                                                monkeypatch, argv):
    """``$REPRO_BACKEND`` is validated once, before the command runs:
    a compile that never reaches a kernel rejects it too."""
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    assert main([argv[0], cnf_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: unknown backend 'bogus'" in err


def test_import_loads_only_what_it_uses():
    """``import repro`` imports its subpackages on first access, so the
    query path never loads networkx or the role-2/3 packages, while
    ``repro.<subpackage>`` attribute access still resolves."""
    code = "\n".join([
        "import sys",
        "import repro.ir.facade",
        "assert 'networkx' not in sys.modules",
        "assert 'repro.spaces' not in sys.modules",
        "import repro",
        "assert repro.sdd.SddManager.__name__ == 'SddManager'",
        "print('OK')",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
