"""Verification laboratory for Griffiths correlation inequalities.

Exact rational expectations of dot-product polynomials over products of
spheres, inequality checks, the spherical heat semigroup on the pair
algebra, Gaussian-kernel Chernoff products, ferromagnetic Gaussian spins
with Trotter splitting, and a Monte Carlo cross-validation oracle.

Importing the package imports none of its modules: each public name and
submodule loads on first access (PEP 562), so a CLI command compiles and
runs only the engines it calls.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": "GAUSSIAN SPHERE Coupling DotPolynomial FloatPolynomial ModelDims constant "
               "load_polynomial one save_polynomial variable zero",
    "chernoff": "KernelSpec chernoff_iterate chernoff_table funk_hecke_eigenvalue "
                "generator_envelope generator_limit normalization_constant",
    "errors": "InputError NumericError QuadratureError ResourceLimitError ViolationError",
    "gaussian": "FerroMatrix check_gaussian_griffiths covariance ferro_from_rows "
                "gaussian_laplacian gaussian_moment matrix_semigroup ou_generator trotter_compare",
    "griffiths": "GriffithsReport check_first check_second random_cone_poly",
    "heat": "build_invariant_basis correlation_flow dirichlet grad_dot heat_evolve laplacian",
    "mc": "MCEstimate estimate_moment",
    "moments": "eliminate_site interacting_moment radial_moment sphere_moment "
               "sphere_moment_oracle",
    "numerics": "",
    "ratlin": "",
    "wick": "vector_moment",
    "zonal": "gegenbauer gegenbauer_coefficients laplace_eigenvalue",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names.split())}

__all__ = [*_MODULE_OF, "clear_caches"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def clear_caches() -> None:
    """Empty every memo of the modules loaded so far, so the next computation runs cold.

    Imports nothing: a module not yet loaded holds no memo.
    """
    def loaded(module: str):
        return sys.modules.get(f"{__name__}.{module}")

    for module in (loaded("moments"), loaded("wick")):
        if module:
            module.clear_caches()
    if chernoff := loaded("chernoff"):
        chernoff._node_cache.clear()
    if zonal := loaded("zonal"):
        zonal.gegenbauer_coefficients.cache_clear()
