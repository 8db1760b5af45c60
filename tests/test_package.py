"""The package namespace: every public name and submodule loads on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotorlab

SRC = str(Path(rotorlab.__file__).resolve().parent.parent)

PUBLIC = """
    Coupling DotPolynomial FerroMatrix FloatPolynomial GAUSSIAN GriffithsReport InputError
    KernelSpec MCEstimate ModelDims NumericError QuadratureError ResourceLimitError SPHERE
    ViolationError algebra build_invariant_basis check_first check_gaussian_griffiths
    check_second chernoff chernoff_iterate chernoff_table clear_caches constant
    correlation_flow covariance dirichlet eliminate_site errors estimate_moment
    ferro_from_rows funk_hecke_eigenvalue gaussian gaussian_laplacian gaussian_moment
    gegenbauer gegenbauer_coefficients generator_envelope generator_limit grad_dot griffiths
    heat heat_evolve interacting_moment laplace_eigenvalue laplacian load_polynomial
    matrix_semigroup mc moments normalization_constant numerics one ou_generator
    radial_moment random_cone_poly ratlin save_polynomial sphere_moment sphere_moment_oracle
    trotter_compare variable vector_moment wick zero zonal
""".split()


def _fresh(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_every_public_name_resolves_and_is_listed():
    assert sorted(rotorlab.__all__) == sorted(PUBLIC)
    listed = dir(rotorlab)
    for name in PUBLIC:
        assert name in listed, name
        assert getattr(rotorlab, name) is not None, name
    assert rotorlab.sphere_moment is rotorlab.moments.sphere_moment
    assert rotorlab.KernelSpec is rotorlab.chernoff.KernelSpec
    assert rotorlab.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rotorlab.no_such_name  # noqa: B018


def test_bare_import_loads_modules_on_first_access():
    code = ("import sys, rotorlab\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('rotorlab'))\n"
            "print(loaded())\n"
            "rotorlab.moments, rotorlab.KernelSpec\n"
            "print(loaded())")
    before, after = _fresh(code).splitlines()
    assert before == "['rotorlab']"
    assert after == str(["rotorlab", "rotorlab.algebra", "rotorlab.chernoff", "rotorlab.errors",
                         "rotorlab.moments", "rotorlab.wick", "rotorlab.zonal"])


def test_star_import_binds_every_public_name():
    code = ("from rotorlab import *\n"
            "import rotorlab\n"
            "print(sorted(n for n in rotorlab.__all__ if n not in globals()), "
            "sphere_moment.__module__)")
    assert _fresh(code) == "[] rotorlab.moments"
