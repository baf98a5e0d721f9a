"""Command-line front end: dispatch, exit codes, output stability, and the
generate/solve/verify round trip."""

import json
import os
import subprocess
import sys

import pytest

import expodio
from expodio import InternalError, PartitionInstance, decide, parse_system, partition_oracle
from expodio.cli import run

POW_DOC = json.dumps(
    {
        "vars": 1,
        "bases": [{"min_poly": [-2, 1]}],
        "equations": [{"base": 0, "coeffs": [["1"]], "rhs": ["4"]}],
    }
)


@pytest.fixture
def pow_instance(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(POW_DOC)
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_solve_sat(pow_instance, capsys):
    assert run(["solve", pow_instance]) == 0
    doc = out_json(capsys)
    assert doc["status"] == "sat"
    assert doc["witness"] == {"x": ["2"]}
    assert "candidates_tested" in doc["stats"]


def test_solve_output_stable(pow_instance, capsys):
    run(["solve", pow_instance])
    first = capsys.readouterr().out
    run(["solve", pow_instance])
    second = capsys.readouterr().out
    assert first == second


def test_verify_valid_and_invalid(pow_instance, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"x": ["2"]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"x": ["3"]}')
    assert run(["verify", pow_instance, str(good)]) == 0
    assert out_json(capsys) == {"valid": True, "residuals": [["0"]]}
    assert run(["verify", pow_instance, str(bad)]) == 0
    doc = out_json(capsys)
    assert doc["valid"] is False
    assert doc["residuals"] == [["4"]]


def test_bounds_output(pow_instance, capsys):
    assert run(["bounds", pow_instance]) == 0
    doc = out_json(capsys)
    assert doc["N"] == "1"
    assert int(doc["box_limit"]) >= 1


def test_enumerate_output(tmp_path, capsys):
    doc = {
        "vars": 2,
        "bases": [{"min_poly": [-2, 1]}],
        "equations": [{"base": 0, "coeffs": [["1"], ["-1"]], "rhs": ["0"]}],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    assert run(["enumerate", str(path)]) == 0
    out = out_json(capsys)
    assert out["modulus"] == "1"
    assert out["cosets"] == [{"base": ["0", "0"], "periods": [[1, 1]]}]


def test_enumerate_parallel_byte_identical(tmp_path, capsys):
    doc = {
        "vars": 2,
        "bases": [{"min_poly": [1, 1]}],
        "equations": [{"base": 0, "coeffs": [["3"], ["3"]], "rhs": ["0"]}],
    }
    path = tmp_path / "par.json"
    path.write_text(json.dumps(doc))
    assert run(["enumerate", str(path)]) == 0
    serial = capsys.readouterr().out
    assert run(["enumerate", str(path), "--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_rou_commands(capsys):
    assert run(["rou", "--min-poly", "1,1"]) == 0
    assert out_json(capsys) == {"root_of_unity": True, "order": 2}
    # negative leading coefficients need the = form
    assert run(["rou", "--min-poly=-2,0,1"]) == 0
    assert out_json(capsys) == {"root_of_unity": False, "order": None}


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nonsense")
    assert run(["solve", str(path)]) == 2
    assert capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    doc = {
        "vars": 1,
        "bases": [{"min_poly": [0, 1]}],
        "equations": [{"base": 0, "coeffs": [["1"]], "rhs": ["0"]}],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path)]) == 2


def test_budget_exit_code_without_unsat(tmp_path, capsys):
    doc = {
        "vars": 2,
        "bases": [{"min_poly": [-2, 1]}],
        "equations": [{"base": 0, "coeffs": [["1"], ["1"]], "rhs": ["7"]}],
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc))
    code = run(["solve", str(path), "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert "unsat" not in captured.out


def test_missing_file_exit_code(capsys):
    assert run(["solve", "/nonexistent/path.json"]) == 2


def test_too_many_variables_exit_code(tmp_path, capsys):
    doc = {
        "vars": 13,
        "bases": [{"min_poly": [-2, 1]}],
        "equations": [{"base": 0, "coeffs": [["1"]] * 13, "rhs": ["0"]}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path)]) == 3


def test_box_override_warns(pow_instance, capsys):
    assert run(["solve", pow_instance, "--box-limit", "1"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert json.loads(captured.out)["status"] == "unsat"


def test_budget_env_override(pow_instance, capsys, monkeypatch):
    monkeypatch.setenv("EXPODIO_BUDGET", "10")
    doc = json.loads(POW_DOC)
    doc["equations"][0]["rhs"] = ["7"]
    doc["vars"] = 2
    doc["equations"][0]["coeffs"] = [["1"], ["1"]]
    import pathlib

    path = pathlib.Path(pow_instance).parent / "env.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path)]) == 3


def test_gen_partition_round_trip(tmp_path, capsys):
    for seed in (0, 1, 2, 3, 4):
        inst_path = tmp_path / f"p{seed}.json"
        side_path = tmp_path / f"p{seed}.truth.json"
        code = run(
            [
                "gen-partition",
                "--random",
                "6",
                "--seed",
                str(seed),
                "--max-value",
                "9",
                "-o",
                str(inst_path),
                "--sidecar",
                str(side_path),
            ]
        )
        capsys.readouterr()
        assert code == 0  # the random path resamples odd totals
        truth = json.loads(side_path.read_text())
        assert run(["solve", str(inst_path)]) == 0
        solved = out_json(capsys)
        assert solved["status"] == truth["ground_truth"]
        if solved["status"] == "sat":
            sol_path = tmp_path / f"s{seed}.json"
            sol_path.write_text(json.dumps({"x": solved["witness"]["x"]}))
            assert run(["verify", str(inst_path), str(sol_path)]) == 0
            assert out_json(capsys)["valid"] is True


def test_gen_partition_matches_oracle(tmp_path, capsys):
    import random as _random

    for seed in range(5, 10):
        rng = _random.Random(seed)
        values = tuple(rng.randint(1, 9) for _ in range(6))
        inst = PartitionInstance(values)
        inst_path = tmp_path / f"q{seed}.json"
        code = run(
            ["gen-partition", "--values", ",".join(map(str, values)), "-o", str(inst_path)]
        )
        capsys.readouterr()
        if inst.half_sum is None:
            assert code == 2
            continue
        assert code == 0
        run(["solve", str(inst_path)])
        assert (out_json(capsys)["status"] == "sat") == partition_oracle(inst)


def test_gen_3partition(tmp_path, capsys):
    inst_path = tmp_path / "t.json"
    side_path = tmp_path / "t.truth.json"
    assert (
        run(
            [
                "gen-3partition",
                "--values",
                "5,5,6,5,5,6",
                "-o",
                str(inst_path),
                "--sidecar",
                str(side_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    truth = json.loads(side_path.read_text())
    assert truth["ground_truth"] == "sat"
    assert truth["witness"] == ["0", "165", "330", "1056", "1221", "1386"]
    sol_path = tmp_path / "t.sol.json"
    sol_path.write_text(json.dumps({"x": truth["witness"]}))
    assert run(["verify", str(inst_path), str(sol_path)]) == 0
    assert out_json(capsys)["valid"] is True


def test_gen_3partition_bad_range(capsys):
    assert run(["gen-3partition", "--values", "1,2,3"]) == 2


def test_verify_huge_exponents_skips_residuals(pow_instance, tmp_path, capsys):
    sol_path = tmp_path / "huge.json"
    sol_path.write_text(json.dumps({"x": [str(2**64)]}))
    assert run(["verify", pow_instance, str(sol_path)]) == 0
    doc = out_json(capsys)
    assert doc["valid"] is False
    assert doc["residuals"] is None


def test_rou_lehmer_polynomial(capsys):
    # palindromic and integral like a cyclotomic polynomial, but Lehmer's
    # polynomial has a real root above 1
    assert run(["rou", "--min-poly=1,1,0,-1,-1,-1,-1,-1,0,1,1"]) == 0
    assert out_json(capsys) == {"root_of_unity": False, "order": None}


def test_failed_witness_check_exits_4(pow_instance, monkeypatch, capsys):
    monkeypatch.setattr("expodio.solve.verify", lambda *args: False)
    with pytest.raises(InternalError):
        decide(parse_system(POW_DOC))
    assert run(["solve", pow_instance]) == 4
    assert "internal invariant violated" in capsys.readouterr().err


def test_failed_witness_check_exits_4_under_optimize(pow_instance):
    # python -O strips assert statements; the invariant check must remain
    script = (
        "import sys, expodio.solve\n"
        "from expodio.cli import run\n"
        "if __debug__:\n"
        "    sys.exit(99)\n"
        "expodio.solve.verify = lambda *args: False\n"
        f"sys.exit(run(['solve', {pow_instance!r}]))\n"
    )
    src = os.path.dirname(os.path.dirname(expodio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4, proc.stderr
