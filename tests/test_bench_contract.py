"""The names the benchmark's tracer wraps, the inputs its workloads pass,
and the CLI's lean import.

``bench/tracing.py`` wraps ``numerics.expm``, ``heat.build_invariant_basis``,
``gaussian.ou_invariant_basis``, ``gaussian.trotter_compare``,
``gaussian.covariance`` and ``griffiths.check_second`` wherever rotorlab
binds them and reads ``.basis`` off the bases they return.
``bench/workloads.py`` passes couplings as raw ``{pair: Fraction}`` dicts.
These tests fail if a rename or a refactor leaves the traced counters
reading zero or stops accepting those inputs.
``import rotorlab.cli`` loads only the package, ``cli``, ``errors``,
``chernoff`` and ``zonal`` (each command imports its engine when it runs) and
no numpy or scipy module (each is imported where a float array, a Bessel
function or a matrix exponential first needs it).  It must load
``rotorlab.chernoff``: ``bench/run.py --trace 1`` reads that module's
``-X importtime`` row.  The exact commands (``moment``, ``griffiths``,
``dirichlet``, ``gaussian moment|griffiths``) never load numpy, and every
command prints from a fresh interpreter what it prints in process (the
numeric ones with warnings turned into errors).
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


def test_tracer_sees_the_trotter_steps():
    # one expm for the reference exp(tA), then one per factor and Trotter power
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    ms = [2, 8]
    try:
        v12 = variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN)
        gaussian.trotter_compare(v12, gaussian.ferro_from_rows([[2, -1], [-1, 2]]), 1.0, ms)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["gaussian.trotter_s"] > 0
    assert metrics["gaussian.ou_basis_size"] > 0
    assert metrics["numerics.expm_calls"] == 1 + 2 * len(ms)


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


def test_cli_import_loads_only_the_cli_errors_and_chernoff():
    code = ("import sys, rotorlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('rotorlab', 'numpy', 'scipy')))")
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    loaded = ["rotorlab", "rotorlab.chernoff", "rotorlab.cli", "rotorlab.errors", "rotorlab.zonal"]
    assert done.stdout.strip() == str(loaded)


def test_importtime_of_the_cli_import_has_a_chernoff_row():
    # parsed as bench/run.py's chernoff_import_s parses it; no row would fail the traced run
    done = _fresh_python("-X", "importtime", "-c", "import rotorlab.cli")
    assert done.returncode == 0, done.stderr
    rows = [[f.strip() for f in line.split("|")] for line in done.stderr.splitlines()]
    cumulative = [int(r[1]) for r in rows if len(r) == 3 and r[2] == "rotorlab.chernoff"]
    assert len(cumulative) == 1 and cumulative[0] > 0


def _fill(tmp_path: Path, argv: list[str]) -> list[str]:
    """argv with {u} a sphere u12^2 file, {x} a gaussian v12 file, {F} a 2x2 coupling
    matrix and {J} a sphere coupling."""
    files = {name: tmp_path / f"{name}.json" for name in "uxFJ"}
    save_polynomial(variable(ModelDims(2, 2), 1, 2, 2), str(files["u"]))
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), str(files["x"]))
    files["F"].write_text('{"N": 2, "entries": [["2", "-1"], ["-1", "2"]]}')
    files["J"].write_text('{"terms": [{"i": 1, "j": 2, "coeff": "1/10"}]}')
    for name, path in files.items():
        argv = [a.replace(f"{{{name}}}", str(path)) for a in argv]
    return argv


@pytest.mark.parametrize("argv", [
    ["moment", "--input", "{u}"],
    ["griffiths", "--f", "{u}", "--g", "{u}"],
    ["dirichlet", "--f", "{u}", "--h", "{u}"],
    ["gaussian", "moment", "--input", "{x}", "--F", "{F}"],
    ["gaussian", "griffiths", "--f", "{x}", "--g", "{x}", "--F", "{F}"],
    ["moment", "--input", "{u}", "--J", "{J}"],
])
def test_exact_commands_never_load_numpy(capsys, tmp_path, argv):
    argv = _fill(tmp_path, argv)
    code = ("import sys; from rotorlab.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)")
    done = _fresh_python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    *printed, verdict = done.stdout.splitlines(keepends=True)
    assert verdict == "0 False False\n"
    assert main(argv) == 0
    assert "".join(printed) == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["mc", "--input", "{u}", "--samples", "2000"],
    ["evolve", "--input", "{u}", "--t", "0.5"],
    ["flow", "--f", "{u}", "--g", "{u}", "--t-grid", "0:0.5:1"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "0.5", "--m", "2"],
    ["chernoff", "--n", "2", "--l", "2", "--t", "0.5", "--m", "2"],
    ["mc", "--input", "{x}", "--F", "{F}", "--samples", "2000"],
    ["mc", "--input", "{u}", "--J", "{J}", "--samples", "2000"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1e-300", "--m", "1"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "1e20", "--m", "1"],
    ["gaussian", "trotter", "--input", "{x}", "--F", "{F}", "--t", "5", "--m", "4096"],
])
def test_numeric_commands_load_numpy_on_first_use(capsys, tmp_path, argv):
    argv = _fill(tmp_path, argv)
    done = _fresh_python("-W", "error", "-m", "rotorlab.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "3", "--l", "2", "--t", "0.5", "--m", "2"],  # half-integer order
    ["normalization", "--n", "2", "--t-grid", "0.5"],                # order 0
    ["normalization", "--n", "4", "--t-grid", "0.5"],                # order 1
])
def test_quadrature_commands_load_scipy_on_first_use(capsys, argv):
    done = _fresh_python("-W", "error", "-m", "rotorlab.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
