"""CLI contract: output formats, exit codes, determinism."""

import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
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
from rotorlab.moments import MAX_ORDER


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
def huge_coeff(tmp_path):
    """10^400 u12^2 in sphere mode (n = 3) and 10^400 x12^2 in gaussian mode (n = 1):
    exact inputs whose values leave the float range."""
    paths = {}
    for name, mode, n in (("u", "sphere", 3), ("x", GAUSSIAN, 1)):
        path = tmp_path / f"huge_{name}.json"
        path.write_text(json.dumps({"mode": mode, "n": n, "N": 2, "terms": [
            {"coeff": "1e400", "powers": [{"i": 1, "j": 2, "p": 2}]}]}))
        paths[name] = str(path)
    return paths


@pytest.fixture()
def ferro_file(tmp_path):
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"N": 2, "entries": [["2", "-1"], ["-1", "2"]]}))
    return str(path)


def chain_file(tmp_path, sites, last):
    """u12^2 u23^2 ... u_{K-2,K-1}^2 u_{K-1,K}^last at n = 3, as one monomial."""
    powers = [{"i": i, "j": i + 1, "p": 2} for i in range(1, sites - 1)]
    path = tmp_path / f"chain{sites}_{last}.json"
    path.write_text(json.dumps({"mode": "sphere", "n": 3, "N": sites, "terms": [
        {"coeff": "1", "powers": powers + [{"i": sites - 1, "j": sites, "p": last}]}]}))
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
    ({"entries": []}, 1),
])
def test_malformed_matrix_is_input_error(tmp_path, capsys, data, sites):
    path = tmp_path / "x.json"
    save_polynomial(variable(ModelDims(1, sites), 1, 1, mode=GAUSSIAN), str(path))
    fp = tmp_path / "F.json"
    fp.write_text(json.dumps(data))
    assert main(["gaussian", "moment", "--input", str(path), "--F", str(fp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err
    if data["entries"] == []:  # a valid 0x0 coupling, refused by the moment's size check
        assert "input error: covariance is 0x0 but N=1" in captured.err


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


def test_odd_chain_is_zero_before_its_depth_is_checked(tmp_path, capsys):
    # 395 sites fit the site-count limit, and the odd last site makes the
    # moment 0 before the 405 frames of its elimination are counted
    assert main(["moment", "--input", chain_file(tmp_path, 395, 1)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "0 (0.000000000000000)" and captured.err == ""


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


@pytest.mark.parametrize("argv, message", [
    (["chernoff", "--n", "3", "--l", "1000000000", "--t", "0.5", "--m", "2"],
     "harmonic degree 1000000000 is above the cap"),
    (["mc", "--input", "{u}", "--samples", "100000000000"],
     "100000000000 samples are above the cap"),
    # two (32768, 10^8, 3) float64 arrays would take 150 TiB
    (["mc", "--input", "{wide}"], "needs about 150000000 MiB, above the budget of 256 MiB"),
    # the factor list of x12^(10^7) alone would take 169 MB
    (["gaussian", "moment", "--input", "{deep}", "--F", "{F}"],
     "an Isserlis sum over 10000000 factors needs about 20000001 nested calls"),
    # f * g of two 300-term inputs would multiply 90,000 term pairs
    (["griffiths", "--f", "{many}", "--g", "{many}"],
     "a product of 300 by 300 terms multiplies 90000 term pairs, above the budget of 65536"),
    # with an empty coupling each order multiplies a growing factorial: 1.2 s at 20,000
    (["moment", "--input", "{u}", "--J", "{J}", "--order", "100000"],
     f"truncation order 100000 is above the cap of {MAX_ORDER}"),
    # the site count is refused before the vector is built and before parity is looked at
    (["moment", "--input", "{odd1000}"], "eliminating 1000 sites needs about 1000 nested calls"),
    # 395 sites, 8 relabelled states and a pairing sum of depth 2
    (["moment", "--input", "{even395}"],
     "eliminating 395 sites of degree up to 4 needs about 405 nested calls"),
])
def test_unbounded_loops_exit_3_before_starting(capsys, tmp_path, u12sq_n2, ferro_file,
                                                argv, message):
    import tracemalloc

    wide = tmp_path / "wide.json"
    save_polynomial(variable(ModelDims(3, 10 ** 8), 1, 2, 2), str(wide))
    deep = tmp_path / "deep.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, 10 ** 7, mode=GAUSSIAN), str(deep))
    many = tmp_path / "many.json"  # 300 distinct monomials on the 15 pairs of 6 sites
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    many.write_text(json.dumps({"mode": "sphere", "n": 3, "N": 6, "terms": [
        {"coeff": "1", "powers": [{"i": i, "j": j, "p": 1 + k // 15}]}
        for k, (i, j) in enumerate(pairs * 20)]}))
    empty = tmp_path / "J.json"
    empty.write_text(json.dumps({"terms": []}))
    names = {"{u}": u12sq_n2, "{wide}": str(wide), "{deep}": str(deep), "{F}": ferro_file,
             "{many}": str(many), "{J}": str(empty), "{odd1000}": chain_file(tmp_path, 1000, 1),
             "{even395}": chain_file(tmp_path, 395, 2)}
    tracemalloc.start()
    try:
        assert main([names.get(a, a) for a in argv]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
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
    # a kernel of width t = 1e-6 around s = 1 (kappa = 5e5), at a low and the top degree
    (["chernoff", "--n", "2", "--l", "3", "--t", "1e-6", "--m", "1"], 1e-10),
    (["chernoff", "--n", "2", "--l", "256", "--t", "1e-6", "--m", "1"], 1e-7),
])
def test_chernoff_reaches_the_circle_eigenvalue(capsys, argv, max_error):
    """The n = 2 kernel eigenvalue is I_l(1/2t)/I_0(1/2t); ``error`` (against the heat
    semigroup) is then the Chernoff defect of one power, 6.0e-8 for l = 256 at t = 1e-6."""
    assert main(argv) == 0
    _, approx, reference, error = capsys.readouterr().out.splitlines()[1].split(",")
    l, t = int(argv[4]), float(argv[6])
    assert float(approx) == pytest.approx(ive(l, 0.5 / t) / ive(0, 0.5 / t), rel=0, abs=1e-10)
    assert float(error) <= max_error


@pytest.mark.parametrize("argv", [
    # ive is nan from kappa = 1/2t = 2^30 on
    ["chernoff", "--n", "3", "--l", "2", "--t", "1e-10", "--m", "1"],
    # e^-kappa I_nu(kappa) underflows to 0 at order nu = 499999, and so does the numerator
    ["chernoff", "--n", "1000000", "--l", "2", "--t", "0.5", "--m", "1"],
    ["normalization", "--n", "2", "--t-grid", "1e-300"],
])
def test_kernel_underflow_exits_3_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Bessel ratio of the kernel is not a finite number at n={argv[2]}, t=" in captured.err
    assert "RuntimeWarning" not in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("powers", ["2,1", "1,2"])
def test_chernoff_underflowed_step_exits_3(capsys, monkeypatch, powers):
    # t/2 rounds to 0 at the smallest subnormal t, whichever position the power takes;
    # it is refused before the first eigenvalue
    monkeypatch.setattr(rotorlab.chernoff, "funk_hecke_eigenvalue", None)
    assert main(["chernoff", "--n", "3", "--l", "2", "--t", "5e-324", "--m", powers]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the time step t/m underflows to 0 at t=5e-324, m=2" in captured.err


def test_normalization_reaches_small_t(capsys):
    # 1/B(1, kappa) - 1 = 3/(8 kappa) + O(kappa^-2) at n = 4, that is 0.75 t + O(t^2)
    assert main(["normalization", "--n", "4", "--t-grid", "1e-4,1e-9"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(t) for t, _, _ in rows] == [1e-4, 1e-9]
    for t, _, ratio_minus_1 in rows:
        assert float(ratio_minus_1) == pytest.approx(0.75 * float(t), rel=1e-3)


BASIS_COMMANDS = [
    ["evolve", "--input", "{u}", "--t", "0.5"],
    ["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:0.5:2"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "0.5", "--m", "2"],
]


def _basis_argv(tmp_path, u12sq_n2, ferro_file, argv):
    x = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), str(x))
    names = {"{u}": u12sq_n2, "{x}": str(x), "{F}": ferro_file}
    return [names.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", BASIS_COMMANDS)
def test_dense_generator_budget_exits_3(capsys, monkeypatch, tmp_path, u12sq_n2, ferro_file,
                                        argv):
    monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 64)
    assert main(_basis_argv(tmp_path, u12sq_n2, ferro_file, argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "above the budget" in captured.err


@pytest.mark.parametrize("argv", BASIS_COMMANDS)
def test_basis_cap_flag_is_gone(capsys, tmp_path, u12sq_n2, ferro_file, argv):
    with pytest.raises(SystemExit) as err:
        main(_basis_argv(tmp_path, u12sq_n2, ferro_file, argv + ["--cap", "50"]))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --cap 50" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["evolve", "--input", "{u}", "--t", "1e308"], "not finite at t=1e+308"),
    (["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0,1e308"], "not finite at t=1e+308"),
    (["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1e308", "--m", "2"],
     "not finite at t=1e+308"),
    (["normalization", "--n", "400", "--t-grid", "0.5"], "area of S^399 overflows"),
    # the reference exp(tA) overflows before any Trotter step
    (["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1e100", "--m", "1"],
     "not finite at t=1e+100"),
    # a coefficient beyond the float range, where the float path converts it
    (["evolve", "--input", "{huge_u}", "--t", "0.5"], "too large for a float"),
    (["flow", "--f", "{huge_u}", "--g", "{huge_u}", "--t-grid", "0,1"], "too large for a float"),
    (["mc", "--input", "{huge_u}", "--samples", "2000"], "too large for a float"),
    (["mc", "--input", "{huge_x}", "--F", "{F}", "--samples", "2000"], "too large for a float"),
    (["gaussian", "trotter", "--input", "{huge_x}", "--F", "{F}", "--t", "1.0", "--m", "2"],
     "too large for a float"),
    # the samples fit, their squares do not
    (["mc", "--input", "{u300}", "--samples", "2000"], "sample sums of shard 0 leave the float"),
    # e^1000 leaves the float range: the exact value's tail bound refuses before any shard
    (["mc", "--input", "{u}", "--J", "{J1000}", "--samples", "2000"],
     "coupling sum 1000 and truncation order 8 exceeds the float range"),
])
def test_float_overflow_exits_3_without_warnings(capsys, tmp_path, u12sq_n2, ferro_file,
                                                 huge_coeff, argv, message):
    x12 = tmp_path / "x12.json"
    save_polynomial(variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN), str(x12))
    u300 = tmp_path / "u300.json"
    save_polynomial(10 ** 300 * variable(ModelDims(2, 2), 1, 2), str(u300))
    j1000 = tmp_path / "J1000.json"
    j1000.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "1000"}]}))
    argv = [a.replace("{u}", u12sq_n2).replace("{x}", str(x12)).replace("{F}", ferro_file)
            .replace("{huge_u}", huge_coeff["u"]).replace("{huge_x}", huge_coeff["x"])
            .replace("{u300}", str(u300)).replace("{J1000}", str(j1000))
            for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "RuntimeWarning" not in captured.err


@pytest.mark.parametrize("argv, exact", [
    (["moment", "--input", "{u}"], Fraction(10 ** 400, 3)),  # E[u12^2] = 1/3
    (["dirichlet", "--f", "{u}", "--h", "{u}"], Fraction(16 * 10 ** 800, 15)),  # 8(1/3 - 1/5)
    (["griffiths", "--f", "{u}", "--g", "{u}"], Fraction(10 ** 400, 3)),  # E[f]
    (["gaussian", "moment", "--input", "{x}", "--F", "{F}"], Fraction(2 * 10 ** 400, 3)),
])
def test_exact_values_beyond_the_float_range_print_inf(capsys, huge_coeff, ferro_file,
                                                       argv, exact):
    argv = [a.replace("{u}", huge_coeff["u"]).replace("{x}", huge_coeff["x"])
            .replace("{F}", ferro_file) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert f"{exact} (inf)" in captured.out and captured.err == ""


def test_normalization_validates_before_printing(capsys):
    assert main(["normalization", "--n", "3", "--t-grid", "0.1,0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    # at n = 343 and t = 1 the kernel itself exits 3, so each bad entry must be found first
    ["normalization", "--n", "343", "--t-grid", "1,0"],
    ["normalization", "--n", "343", "--t-grid", "0,1"],
    ["chernoff", "--n", "343", "--l", "2", "--t", "1", "--m", "1,0"],
    ["chernoff", "--n", "343", "--l", "2", "--t", "1", "--m", "0,1"],
    # and a bad power before the step t/m = 5e-324/2 that underflows
    ["chernoff", "--n", "3", "--l", "2", "--t", "5e-324", "--m", "2,0"],
])
def test_bad_grid_or_power_exits_2_whatever_its_position(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err


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


@pytest.mark.parametrize("samples", ["4000000", "0"])
def test_mc_refuses_the_order_before_sampling(capsys, monkeypatch, tmp_path, u12sq_n2, samples):
    from rotorlab import mc

    monkeypatch.setattr(mc, "estimate_moment", None)  # a shard drawn would fail with TypeError
    coupling = tmp_path / "J.json"
    coupling.write_text(json.dumps({"terms": [{"i": 1, "j": 2, "coeff": "1/10"}]}))
    assert main(["mc", "--input", u12sq_n2, "--J", str(coupling), "--order", str(MAX_ORDER + 1),
                 "--samples", samples]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"truncation order {MAX_ORDER + 1} is above the cap of {MAX_ORDER}" in captured.err


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


# -- seeded fuzz over the JSON-reading and the kernel commands -----------------

FUZZ_EXTREMES = [True, False, None, [], [[]], {}, "1e400", 1e400, math.nan, 0, -1, 10 ** 9, "x"]
FUZZ_GRIDS = ["0,1", "0:0.5:1", "nan", ",", "0:1:inf", "1,0"]  # drawn with the call's time
FUZZ_CALLS = 150
KERNEL_FUZZ_CALLS = 60
FUZZ_SECONDS = 10  # per call


def _slots(node):
    """Every (container, key) inside a JSON value, outermost first."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _flaw(rng, data):
    """A well-formed JSON input, or three times in ten one slot of it made extreme or dropped."""
    if rng.random() < 0.3:
        container, key = rng.choice(list(_slots(data)))
        if isinstance(container, dict) and rng.random() < 0.1:
            del container[key]
        else:
            container[key] = rng.choice(FUZZ_EXTREMES)
    return data


def _fuzz_poly(rng, mode, n, sites):
    labels = list(range(1, sites + 1)) if sites in (1, 2, 6) else [1, 2]
    pairs = [(i, j) for i in labels for j in labels if i < j or (i == j and mode != "sphere")]
    terms = []
    for _ in range(rng.randrange(4)):
        powers = [{"i": i, "j": j, "p": rng.choice([1, 2])}
                  for i, j in (rng.choice(pairs) for _ in range(rng.randrange(3) if pairs else 0))]
        terms.append({"coeff": rng.choice(["1", "1/2", "-1", "3/7", "1e400", 2]), "powers": powers})
    return _flaw(rng, {"mode": mode, "n": n, "N": sites, "terms": terms})


def _fuzz_matrix(rng, sites):
    size = sites if sites in (1, 2, 6) and rng.random() < 0.8 else rng.choice([1, 2, 6])
    rows = [[str(size) if i == j else "-1/2" for j in range(size)] for i in range(size)]
    return _flaw(rng, {"N": size, "entries": rows})


def _fuzz_coupling(rng):
    pairs = [(1, 2), (1, 3), (2, 3)]
    terms = [{"i": i, "j": j, "coeff": rng.choice(["1/10", "0", "1e400"])}
             for i, j in rng.sample(pairs, rng.randrange(3))]
    return _flaw(rng, {"terms": terms})


def _fuzz_argv(rng, tmp_path):
    command = rng.choice(["moment", "griffiths", "dirichlet", "evolve", "flow", "mc",
                          "gaussian moment", "gaussian griffiths", "gaussian trotter"])
    gaussian = command.startswith("gaussian") or (command == "mc" and rng.random() < 0.5)
    mode = "gaussian" if gaussian else "sphere"

    def write(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    n = rng.choice([2, 3, 10 ** 9] if mode == "sphere" else [1, 2, 3, 10 ** 9])
    sites = rng.choice([0, 1, 2, 2, 2, 6, 6, -1, True])
    f_path = write("f", _fuzz_poly(rng, mode, n, sites))
    g_path = write("g", _fuzz_poly(rng, mode, n, sites))
    t = rng.choice(["0", "0.5", "0.5", "1", "-1", "nan", "inf", "1e308", "1e-300"])
    argv = command.split()
    if command in ("moment", "evolve", "mc", "gaussian moment", "gaussian trotter"):
        argv += ["--input", f_path]
    elif command == "dirichlet":
        argv += ["--f", f_path, "--h", g_path]
    else:
        argv += ["--f", f_path, "--g", g_path]
    if command == "griffiths":
        argv += ["--format", rng.choice(["text", "json"]), "--counterexample-dir", str(tmp_path)]
    if command in ("evolve", "gaussian trotter"):
        argv += ["--t", t]
    if command == "evolve" and rng.random() < 0.5:
        argv += ["--check-cone"]
    if command == "flow":
        argv += ["--t-grid", rng.choice(FUZZ_GRIDS + [t])]
    if command == "gaussian trotter":
        argv += ["--m", rng.choice(["1,2", "0", "-1", ",", "4096", "4097"])]
    if command == "mc":
        argv += ["--samples", rng.choice(["1000", "2000", "0", "-1", "100000000000"])]
    if gaussian:
        argv += ["--F", write("F", _fuzz_matrix(rng, sites))]
    elif command in ("moment", "mc") and rng.random() < 0.5:
        argv += ["--J", write("J", _fuzz_coupling(rng))]
    if "--J" in argv:
        argv += ["--order", rng.choice(["0", "-1", "2", str(MAX_ORDER + 1), "100000"])]
    return argv


def _fuzz_kernel_argv(rng):
    """A `chernoff` or `normalization` call on extreme dimensions, degrees, times and powers.

    Each argument is drawn from its usual values, or three times in ten from the rest, so
    that most calls reach the kernel and some reach the top degree at a small time step.
    """
    def pick(often, rest):
        return str(rng.choice(rest if rng.random() < 0.3 else often))

    n = pick([2, 3, 4, 7], [0, 1, 343, 344, 10 ** 6, 10 ** 9])
    t = pick(["0.5", "1", "1e-300"], ["0", "-1", "nan", "inf", "1e308"])
    if rng.random() < 0.7:
        l = pick([2, 256], [-1, 0, 1, 257])
        powers = pick(["1,2", "4096", "1,4096"], ["0", ",", "-1", "4097"])
        return ["chernoff", "--n", n, "--l", l, "--t", t, "--m", powers]
    return ["normalization", "--n", n, "--t-grid", pick([t, f"{t},1"], FUZZ_GRIDS)]


# what the verdict commands print with an honest exit 1: a Griffiths verdict, a failed
# cone check, a non-monotone flow, a Trotter cone breach, or `main`'s `violation:` line
VERDICT = re.compile(r"violated|\[WARNING\]|monotone = false|cone preserved: false|violation:")


def _fuzz(capsys, argvs):
    """Each argv run through `main` under a FUZZ_SECONDS limit, with RuntimeWarning as an
    error; returns the calls that broke the exit-code contract."""
    import signal

    class Timeout(Exception):
        pass

    def expire(signum, frame):
        raise Timeout

    breaches = []
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for argv in argvs:
            signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
            except Exception as exc:  # Timeout included
                code = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = capsys.readouterr()
            if code == 1 and not VERDICT.search(out + err):
                code = f"exit 1 without a verdict: {err!r}"
            if code not in (0, 1, 2, 3) or "Traceback" in err or "RuntimeWarning" in err:
                breaches.append((argv, code, err[-300:]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return breaches


def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(15)
    breaches = _fuzz(capsys, (_fuzz_argv(rng, tmp_path) for _ in range(FUZZ_CALLS)))
    assert not breaches, "\n".join(map(repr, breaches))


def test_cli_fuzz_keeps_the_exit_code_contract_on_the_kernel_commands(capsys):
    rng = random.Random(16)
    breaches = _fuzz(capsys, (_fuzz_kernel_argv(rng) for _ in range(KERNEL_FUZZ_CALLS)))
    assert not breaches, "\n".join(map(repr, breaches))
