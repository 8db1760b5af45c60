"""The names the benchmark's tracer wraps, the inputs its workloads pass,
and the CLI's lean import.

``bench/tracing.py`` wraps ``numerics.expm``, ``heat.build_invariant_basis``,
``gaussian.ou_invariant_basis``, ``gaussian.covariance`` and
``griffiths.check_second`` wherever rotorlab binds them and reads
``.basis`` off the bases they return.
``bench/workloads.py`` passes couplings as raw ``{pair: Fraction}`` dicts.
These tests fail if a rename or a refactor leaves the traced counters
reading zero or stops accepting those inputs.
``import rotorlab.cli`` loads no numpy or scipy module (each is imported
where a float array, a quadrature rule or a matrix exponential first needs
it) but does load ``rotorlab.chernoff``, whose import time
``bench/run.py --trace 1`` reads.  The exact commands (``moment``,
``griffiths``, ``dirichlet``, ``gaussian moment|griffiths``) never load numpy,
and the numeric ones print, from a fresh interpreter that turns warnings into
errors, what they print in process.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import rotorlab
from rotorlab import gaussian, griffiths, heat, mc, moments
from rotorlab.algebra import GAUSSIAN, Coupling, ModelDims, save_polynomial, variable
from rotorlab.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_engine():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        heat.heat_evolve(variable(ModelDims(3, 2), 1, 2, 2), 0.5)
        v11 = variable(ModelDims(2, 1), 1, 1, mode=GAUSSIAN)
        gaussian.ou_invariant_basis(v11, gaussian.ferro_from_rows([[2]])).evolve(v11, 0.5)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["numerics.expm_calls"] >= 2
    assert metrics["heat.basis_size_max"] > 0
    assert metrics["gaussian.ou_basis_size"] > 0


def test_tracer_sees_the_random_sweep():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        griffiths.run_random_suite(3, 7, (2, 3), (2, 3), degree_budget=2, term_count=2)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["griffiths.check_second_s"] > 0


def test_tracer_sees_the_covariance():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x12 = variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN)
        gaussian.check_gaussian_griffiths(x12, x12, gaussian.ferro_from_rows([[2, -1], [-1, 2]]))
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["gaussian.covariance_s"] > 0


def test_raw_coupling_dicts_are_accepted():
    dims = ModelDims(3, 4)
    p = variable(dims, 1, 2) * variable(dims, 3, 4)
    raw = {(1, 2): Fraction(3, 10), (3, 4): Fraction(1, 2), (2, 4): Fraction(1, 5)}
    coupling = Coupling.of(dims, raw)
    assert moments.interacting_moment(p, raw, order=3) == moments.interacting_moment(
        p, coupling, order=3)
    assert mc.estimate_moment(p, 2000, 5, coupling=raw) == mc.estimate_moment(
        p, 2000, 5, coupling=coupling)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(rotorlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # bench/run.py times rotorlab.chernoff inside `import rotorlab.cli`, so it must stay there
    code = ("import sys, rotorlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')), "
            "'rotorlab.chernoff' in sys.modules)")
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] True"


def _fill(tmp_path: Path, argv: list[str]) -> list[str]:
    """argv with {u} a sphere u12^2 file, {x} a gaussian v12 file and {F} a 2x2 coupling."""
    u, x, fmat = tmp_path / "u.json", tmp_path / "x.json", tmp_path / "F.json"
    save_polynomial(variable(ModelDims(2, 2), 1, 2, 2), str(u))
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), str(x))
    fmat.write_text('{"N": 2, "entries": [["2", "-1"], ["-1", "2"]]}')
    return [a.replace("{u}", str(u)).replace("{x}", str(x)).replace("{F}", str(fmat))
            for a in argv]


@pytest.mark.parametrize("argv", [
    ["moment", "--input", "{u}"],
    ["griffiths", "--f", "{u}", "--g", "{u}"],
    ["dirichlet", "--f", "{u}", "--h", "{u}"],
    ["gaussian", "moment", "--input", "{x}", "--F", "{F}"],
    ["gaussian", "griffiths", "--f", "{x}", "--g", "{x}", "--F", "{F}"],
])
def test_exact_commands_never_load_numpy(tmp_path, argv):
    code = ("import sys; from rotorlab.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)")
    done = _fresh_python("-c", code, *_fill(tmp_path, argv))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False False"


@pytest.mark.parametrize("argv", [
    ["mc", "--input", "{u}", "--samples", "2000"],
    ["evolve", "--input", "{u}", "--t", "0.5"],
    ["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:0.5:1"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "0.5", "--m", "2"],
    ["chernoff", "--n", "2", "--l", "2", "--t", "0.5", "--m", "2"],
])
def test_numeric_commands_load_numpy_on_first_use(capsys, tmp_path, argv):
    argv = _fill(tmp_path, argv)
    done = _fresh_python("-W", "error", "-m", "rotorlab.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "3", "--l", "2", "--t", "0.5", "--m", "2"],  # Gauss-Legendre nodes
    ["normalization", "--n", "2", "--t-grid", "0.5"],                # trapezoid nodes
    ["normalization", "--n", "4", "--t-grid", "0.5"],                # Gauss-Jacobi nodes
])
def test_quadrature_commands_load_scipy_on_first_use(capsys, argv):
    done = _fresh_python("-W", "error", "-m", "rotorlab.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
