"""CLI contract: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from scipy.special import ive

import rotorlab
from rotorlab import heat
from rotorlab.algebra import (
    GAUSSIAN,
    ModelDims,
    constant,
    save_polynomial,
    variable,
)
from rotorlab.cli import MAX_GRID_POINTS, main, parse_grid, parse_int_list
from rotorlab.errors import InputError, ResourceLimitError


@pytest.fixture()
def u12sq_n2(tmp_path):
    path = tmp_path / "u12sq.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, 2), str(path))
    return str(path)


@pytest.fixture()
def cone_pair_n3(tmp_path):
    dims = ModelDims(3, 3)
    f = variable(dims, 1, 2, 2) + 2 * variable(dims, 2, 3, 2)
    g = variable(dims, 1, 3, 2)
    fp = tmp_path / "f.json"
    gp = tmp_path / "g.json"
    save_polynomial(f, str(fp))
    save_polynomial(g, str(gp))
    return str(fp), str(gp)


@pytest.fixture()
def ferro_file(tmp_path):
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"N": 2, "entries": [["2", "-1"], ["-1", "2"]]}))
    return str(path)


def test_parse_grid():
    assert parse_grid("0:0.5:2") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert parse_grid("1e-1,1e-2") == [0.1, 0.01]
    with pytest.raises(InputError):
        parse_grid("0:0:1")
    with pytest.raises(InputError):
        parse_grid("a,b")
    with pytest.raises(InputError):
        parse_grid("1:1:0")
    with pytest.raises(InputError):
        parse_grid("a:1:2")
    assert parse_int_list("8,16") == [8, 16]
    with pytest.raises(InputError, match="no entries"):
        parse_int_list(",")


@pytest.mark.parametrize("text", ["0:1:inf", "-inf:1:0", "0:inf:1", "nan:1:2", "0:1:1e400"])
def test_parse_grid_rejects_non_finite_ranges(text):
    with pytest.raises(InputError, match="finite start, step and stop"):
        parse_grid(text)


def test_parse_grid_caps_the_point_count():
    assert len(parse_grid(f"1:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    for text in (f"1:1:{MAX_GRID_POINTS + 1}", "0:1e-6:1", "-1e308:1e-300:1e308"):
        with pytest.raises(ResourceLimitError, match="more than"):
            parse_grid(text)
    # a step below the float spacing of the start stops advancing the range
    with pytest.raises(ResourceLimitError, match="more than"):
        parse_grid(f"{2.0 ** 53 - 8}:1:{2.0 ** 53 + 100}")


@pytest.mark.parametrize("argv, code", [
    (["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:1:inf"], 2),
    (["normalization", "--n", "2", "--t-grid", "0:1:inf"], 2),
    (["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:1e-6:1"], 3),
])
def test_unbounded_grids_exit_cleanly(capsys, u12sq_n2, argv, code):
    assert main([a.replace("{u}", u12sq_n2) for a in argv]) == code
    captured = capsys.readouterr()
    expected = "input error" if code == 2 else "numeric/resource"
    assert captured.out == "" and expected in captured.err


@pytest.mark.parametrize("data", [
    {"terms": 5},
    {"terms": [{"i": 1, "j": 2, "coeff": True}]},
    {"terms": [{"i": 1, "j": 2, "coeff": "-1/2"}]},
])
@pytest.mark.parametrize("command", ["moment", "mc"])
def test_malformed_coupling_is_input_error(tmp_path, capsys, data, command):
    pp = tmp_path / "u12.json"
    save_polynomial(variable(ModelDims(3, 2), 1, 2), str(pp))
    jj = tmp_path / "J.json"
    jj.write_text(json.dumps(data))
    argv = [command, "--input", str(pp), "--J", str(jj)]
    assert main(argv + (["--samples", "2000"] if command == "mc" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err


def test_coupling_file_merges_both_orientations(tmp_path, capsys):
    pp = tmp_path / "u12.json"
    save_polynomial(variable(ModelDims(3, 2), 1, 2), str(pp))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "-1/2"},
                                           {"i": 2, "j": 1, "coeff": "1"}]}))
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "1/2"}]}))
    assert main(["moment", "--input", str(pp), "--J", str(split)]) == 0
    first = capsys.readouterr().out
    assert main(["moment", "--input", str(pp), "--J", str(whole)]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("data, sites", [
    ({"entries": 5}, 1),
    ({"entries": [5]}, 1),
    ({"entries": [["a"]]}, 1),
    ({"entries": [[None]]}, 1),
    ({"entries": [["1/0"]]}, 1),
    ({"N": 2, "entries": [[True, False], [False, True]]}, 2),
    ({"N": True, "entries": [["2"]]}, 1),
])
def test_malformed_matrix_is_input_error(tmp_path, capsys, data, sites):
    path = tmp_path / "x.json"
    save_polynomial(variable(ModelDims(1, sites), 1, 1, mode=GAUSSIAN), str(path))
    fp = tmp_path / "F.json"
    fp.write_text(json.dumps(data))
    assert main(["gaussian", "moment", "--input", str(path), "--F", str(fp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err


INVALID_MATRICES = {
    "asymmetric": [["2", "-1"], ["0", "2"]],
    "not positive definite": [["1", "-2"], ["-2", "1"]],
    "positive off-diagonal": [["2", "1"], ["1", "2"]],
}


@pytest.mark.parametrize("rows", INVALID_MATRICES.values(), ids=INVALID_MATRICES.keys())
@pytest.mark.parametrize("command", ["moment", "griffiths", "trotter", "mc"])
def test_invalid_coupling_matrix_exits_2(tmp_path, capsys, rows, command):
    path = str(tmp_path / "x12.json")
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), path)
    fp = tmp_path / "F.json"
    fp.write_text(json.dumps({"N": 2, "entries": rows}))
    argv = {
        "moment": ["gaussian", "moment", "--input", path],
        "griffiths": ["gaussian", "griffiths", "--f", path, "--g", path],
        "trotter": ["gaussian", "trotter", "--input", path, "--t", "1.0", "--m", "4"],
        "mc": ["mc", "--input", path, "--samples", "2000"],
    }[command]
    assert main(argv + ["--F", str(fp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid coupling matrix" in captured.err


@pytest.mark.parametrize("sites, size", [(2, 3), (3, 2)])
def test_mc_covariance_size_mismatch_exits_2(tmp_path, capsys, sites, size):
    path = tmp_path / "p.json"
    save_polynomial(variable(ModelDims(2, sites), 1, 2, 2, mode=GAUSSIAN), str(path))
    fp = tmp_path / "F.json"
    fp.write_text(json.dumps({"entries": [[size if i == j else -1 for j in range(size)]
                                          for i in range(size)]}))
    assert main(["mc", "--input", str(path), "--F", str(fp), "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"covariance is {size}x{size} but N={sites}" in captured.err


@pytest.mark.parametrize("argv", [
    ["gaussian", "moment", "--input", "{p}", "--F", "{fifo}"],
    ["gaussian", "moment", "--input", "{fifo}", "--F", "{F}"],
    ["moment", "--input", "{u}", "--J", "{fifo}"],
    ["mc", "--input", "{p}", "--F", "{fifo}", "--samples", "2000"],
])
def test_fifo_input_exits_2_without_blocking(tmp_path, ferro_file, argv):
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    p = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN), str(p))
    u = tmp_path / "u12.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, 2), str(u))
    names = {"fifo": str(fifo), "p": str(p), "F": ferro_file, "u": str(u)}
    env = dict(os.environ, PYTHONPATH=str(Path(rotorlab.__file__).resolve().parent.parent))
    run = subprocess.run(
        [sys.executable, "-m", "rotorlab.cli", *(a.format(**names) for a in argv)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert f"input file not found: {fifo}" in run.stderr
    assert "Traceback" not in run.stderr


def test_boolean_coefficient_is_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "mode": "sphere", "n": 3, "N": 2,
        "terms": [{"coeff": True, "powers": [{"i": 1, "j": 2, "p": 2}]}],
    }))
    assert main(["moment", "--input", str(path)]) == 2
    assert "not a rational number" in capsys.readouterr().err


def test_moment_output(capsys, u12sq_n2):
    assert main(["moment", "--input", u12sq_n2]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/2 (0.500000000000000)"


def test_moment_rejects_diagonal_pair(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "mode": "sphere", "n": 2, "N": 2,
        "terms": [{"coeff": "1", "powers": [{"i": 1, "j": 1, "p": 1}]}],
    }))
    assert main(["moment", "--input", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"mode": "sphere", "n": 3, "N": 2,
     "terms": [{"coeff": "1", "powers": [{"i": True, "j": 2, "p": 2}]}]},
    {"mode": "sphere", "n": 3, "N": 2,
     "terms": [{"coeff": "1", "powers": [{"i": 1, "j": 2, "p": True}]}]},
    {"mode": "sphere", "n": 3, "N": True, "terms": []},
])
def test_moment_rejects_boolean_integers(tmp_path, capsys, data):
    # JSON true is a Python bool, an int subclass; it must not pass for 1
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["moment", "--input", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


def test_moment_too_deep_is_resource_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    save_polynomial(variable(ModelDims(3, 2), 1, 2, 4000), str(path))
    assert main(["moment", "--input", str(path)]) == 3
    assert "nested calls" in capsys.readouterr().err


def test_gaussian_moment_too_deep_is_resource_error(tmp_path, capsys, ferro_file):
    path = tmp_path / "deep.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, 2000, mode=GAUSSIAN), str(path))
    assert main(["gaussian", "moment", "--input", str(path), "--F", ferro_file]) == 3
    assert "nested calls" in capsys.readouterr().err


def test_moment_tail_bound_overflow_is_numeric_error(tmp_path, capsys):
    pp = tmp_path / "u12.json"
    save_polynomial(variable(ModelDims(3, 2), 1, 2), str(pp))
    jj = tmp_path / "J.json"
    jj.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "1000"}]}))
    assert main(["moment", "--input", str(pp), "--J", str(jj)]) == 3
    err = capsys.readouterr().err
    assert "coupling sum 1000" in err and "order 8" in err


def test_moment_missing_file(capsys):
    assert main(["moment", "--input", "/nope/missing.json"]) == 2


def test_griffiths_exit_zero(capsys, cone_pair_n3):
    fp, gp = cone_pair_n3
    assert main(["griffiths", "--f", fp, "--g", gp]) == 0
    out = capsys.readouterr().out
    assert "verdict: holds" in out and "gap" in out


def test_griffiths_json_format(capsys, cone_pair_n3):
    fp, gp = cone_pair_n3
    assert main(["griffiths", "--f", fp, "--g", gp, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "holds"
    assert set(payload) >= {"Ef", "Eg", "Efg", "gap", "model"}


def test_griffiths_non_cone_is_input_error(tmp_path, capsys):
    dims = ModelDims(2, 2)
    bad = variable(dims, 1, 2, 2) - constant(dims, 1)
    bp = tmp_path / "bad.json"
    save_polynomial(bad, str(bp))
    ok = tmp_path / "ok.json"
    save_polynomial(variable(dims, 1, 2, 2), str(ok))
    assert main(["griffiths", "--f", str(bp), "--g", str(ok)]) == 2


def test_evolve_output(capsys, u12sq_n2):
    assert main(["evolve", "--input", u12sq_n2, "--t", "0.5", "--check-cone"]) == 0
    out = capsys.readouterr().out
    assert "cone check" in out and "[ok]" in out
    lines = [l for l in out.splitlines() if not l.startswith("cone")]
    assert any(l.startswith("1 ") for l in lines)          # constant part
    assert any(l.startswith("u[1,2]^2 ") for l in lines)   # decayed square


def test_dirichlet_output(capsys, tmp_path):
    dims = ModelDims(2, 2)
    path = tmp_path / "u.json"
    save_polynomial(variable(dims, 1, 2), str(path))
    assert main(["dirichlet", "--f", str(path), "--h", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1 (1.000000000000000)"


def test_flow_csv(capsys, u12sq_n2):
    assert main(["flow", "--f", u12sq_n2, "--g", u12sq_n2, "--t-grid", "0:0.5:2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "t,h,monotone_ok"
    assert len(lines) == 6
    assert all(line.endswith(",true") for line in lines[1:])
    assert "monotone = true" in captured.err


def test_chernoff_csv(capsys):
    assert main(["chernoff", "--n", "2", "--l", "1", "--t", "1.0", "--m", "8,16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,approx,reference,error"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "8" and float(first[2]) == pytest.approx(0.36787944117144233)


def test_normalization_csv(capsys):
    assert main(["normalization", "--n", "2", "--t-grid", "1e-1,1e-2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,c,ratio_minus_1"
    assert len(lines) == 3
    assert abs(float(lines[1].split(",")[2])) <= 1.0


def test_gaussian_moment_cli(capsys, tmp_path, ferro_file):
    dims = ModelDims(1, 2)
    path = tmp_path / "x12.json"
    save_polynomial(variable(dims, 1, 2, mode=GAUSSIAN), str(path))
    assert main(["gaussian", "moment", "--input", str(path), "--F", ferro_file]) == 0
    assert capsys.readouterr().out.strip() == "1/3 (0.333333333333333)"


def test_gaussian_griffiths_cli(capsys, tmp_path, ferro_file):
    dims = ModelDims(1, 2)
    path = tmp_path / "x12.json"
    save_polynomial(variable(dims, 1, 2, mode=GAUSSIAN), str(path))
    assert main([
        "gaussian", "griffiths", "--f", str(path), "--g", str(path),
        "--F", ferro_file, "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == "5/9"


def test_gaussian_trotter_cli(capsys, tmp_path, ferro_file):
    dims = ModelDims(1, 2)
    path = tmp_path / "x12.json"
    save_polynomial(variable(dims, 1, 2, mode=GAUSSIAN), str(path))
    assert main([
        "gaussian", "trotter", "--input", str(path), "--F", ferro_file,
        "--t", "1.0", "--m", "4,8,16",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,max_error,min_intermediate_coeff"
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_evolve_rejects_non_finite_time(capsys, u12sq_n2, t):
    assert main(["evolve", "--input", u12sq_n2, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite time" in captured.err


def test_flow_rejects_non_finite_time(capsys, u12sq_n2):
    assert main(["flow", "--f", u12sq_n2, "--g", u12sq_n2, "--t-grid", "0,nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite time" in captured.err


def test_gaussian_trotter_rejects_non_finite_time(capsys, tmp_path, ferro_file):
    path = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN), str(path))
    assert main(["gaussian", "trotter", "--input", str(path), "--F", ferro_file,
                 "--t", "nan", "--m", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite time" in captured.err


def test_flow_rejects_empty_grid(capsys, u12sq_n2):
    assert main(["flow", "--f", u12sq_n2, "--g", u12sq_n2, "--t-grid", "1:1:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no points" in captured.err


def test_normalization_rejects_empty_grid(capsys):
    assert main(["normalization", "--n", "3", "--t-grid", "1:1:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no points" in captured.err


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "3", "--l", "1", "--t", "1.0", "--m", ","],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1.0", "--m", ","],
])
def test_empty_integer_list_exits_2(capsys, tmp_path, ferro_file, argv):
    path = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), str(path))
    assert main([a.replace("{x}", str(path)).replace("{F}", ferro_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "has no entries" in captured.err


def test_gaussian_trotter_caps_total_steps(capsys, tmp_path, ferro_file):
    path = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), str(path))
    assert main(["gaussian", "trotter", "--input", str(path), "--F", ferro_file,
                 "--t", "1.0", "--m", "100000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "steps, above the limit" in captured.err


@pytest.mark.parametrize("n", ["2", "3"])
def test_chernoff_rejects_oversized_node_start(capsys, n):
    assert main(["chernoff", "--n", n, "--l", "1", "--t", "1.0", "--m", "8",
                 "--nodes", "4000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "node count must be <=" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["chernoff", "--n", "3", "--l", "1000000000", "--t", "0.5", "--m", "2"],
     "harmonic degree 1000000000 is above the cap"),
    (["mc", "--input", "{u}", "--samples", "100000000000"],
     "100000000000 samples are above the cap"),
])
def test_unbounded_loops_exit_3_before_starting(capsys, u12sq_n2, argv, message):
    assert main([a.replace("{u}", u12sq_n2) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_chernoff_validates_before_printing(capsys):
    assert main(["chernoff", "--n", "3", "--l", "2", "--t", "0.5", "--m", "0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "3", "--l", "2", "--t", "inf", "--m", "2"],
    ["normalization", "--n", "3", "--t-grid", "inf"],
])
def test_kernel_rejects_infinite_time(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite t" in captured.err


@pytest.mark.parametrize("argv, max_error", [
    # a kernel narrower than the first trapezoid spacing: every early estimate is G_l(1) = 1
    (["chernoff", "--n", "2", "--l", "3", "--t", "1e-6", "--m", "1"], 1e-10),
    (["chernoff", "--n", "2", "--l", "256", "--t", "1e-6", "--m", "1"], 1e-7),
    # a start above half the node cap: the first rule cannot double
    (["chernoff", "--n", "2", "--l", "3", "--t", "0.5", "--m", "1", "--nodes", "2097152"], 1e-2),
])
def test_chernoff_reaches_the_circle_eigenvalue(capsys, argv, max_error):
    """The n = 2 kernel eigenvalue is I_l(1/2t)/I_0(1/2t); ``error`` (against the heat
    semigroup) is then the Chernoff defect of one power, 6.0e-8 for l = 256 at t = 1e-6."""
    assert main(argv) == 0
    rotorlab.clear_caches()  # the 2^21-node rule
    _, approx, reference, error = capsys.readouterr().out.splitlines()[1].split(",")
    l, t = int(argv[4]), float(argv[6])
    assert float(approx) == pytest.approx(ive(l, 0.5 / t) / ive(0, 0.5 / t), rel=0, abs=1e-10)
    assert float(error) <= max_error


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "3", "--l", "2", "--t", "1e-9", "--m", "8"],
    ["normalization", "--n", "4", "--t-grid", "1e-9"],
])
def test_kernel_underflow_exits_3_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kernel underflow" in captured.err and "RuntimeWarning" not in captured.err
    assert "reached 64 nodes" in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "--input", "{u}", "--t", "0.5"],
    ["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:0.5:2"],
])
def test_dense_generator_budget_exits_3(capsys, monkeypatch, u12sq_n2, argv):
    monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 64)
    assert main([a.replace("{u}", u12sq_n2) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "above the budget" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["evolve", "--input", "{u}", "--t", "1e308"], "not finite at t=1e+308"),
    (["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0,1e308"], "not finite at t=1e+308"),
    (["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1e308", "--m", "2"],
     "not finite at t=1e+308"),
    (["normalization", "--n", "400", "--t-grid", "0.5"], "area of S^399 overflows"),
])
def test_float_overflow_exits_3_without_warnings(capsys, tmp_path, u12sq_n2, ferro_file,
                                                 argv, message):
    x12 = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN), str(x12))
    argv = [a.replace("{u}", u12sq_n2).replace("{x}", str(x12)).replace("{F}", ferro_file)
            for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "RuntimeWarning" not in captured.err


def test_normalization_validates_before_printing(capsys):
    assert main(["normalization", "--n", "3", "--t-grid", "0.1,0"]) == 2
    assert capsys.readouterr().out == ""


def test_mc_json_fields(capsys, u12sq_n2):
    assert main(["mc", "--input", u12sq_n2, "--samples", "20000", "--seed", "42"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 0.5 and payload["exact_rational"] == "1/2"
    assert payload["sigmas"] <= 4.0
    assert payload["stderr"] > 0


def test_mc_deterministic_replay(capsys, u12sq_n2):
    main(["mc", "--input", u12sq_n2, "--samples", "20000", "--seed", "9"])
    first = capsys.readouterr().out
    main(["mc", "--input", u12sq_n2, "--samples", "20000", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_mc_weighted(capsys, tmp_path):
    dims = ModelDims(3, 2)
    pp = tmp_path / "u12.json"
    save_polynomial(variable(dims, 1, 2), str(pp))
    jj = tmp_path / "J.json"
    jj.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "1/10"}]}))
    assert main(["mc", "--input", str(pp), "--samples", "50000", "--seed", "3",
                 "--J", str(jj)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] > 0 and "tail_gap" in payload
    assert abs(payload["mean"] - payload["exact"]) <= 4 * payload["stderr"] + payload["tail_gap"]


def test_quick_suite_all_green(capsys):
    assert main(["suite", "quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "13/13 criteria passed" in out
    assert "FAIL" not in out


def test_unknown_suite_name(capsys):
    assert main(["suite", "nonsense"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
