"""Verification laboratory for Griffiths correlation inequalities.

Exact rational expectations of dot-product polynomials over products of
spheres, inequality checks, the spherical heat semigroup on the pair
algebra, Gaussian-kernel Chernoff products, ferromagnetic Gaussian spins
with Trotter splitting, and a Monte Carlo cross-validation oracle.
"""

from . import chernoff, moments, zonal
from .algebra import (
    GAUSSIAN,
    SPHERE,
    Coupling,
    DotPolynomial,
    FloatPolynomial,
    ModelDims,
    constant,
    load_polynomial,
    one,
    save_polynomial,
    variable,
    zero,
)
from .chernoff import (
    KernelSpec,
    chernoff_iterate,
    chernoff_table,
    funk_hecke_eigenvalue,
    generator_envelope,
    generator_limit,
    normalization_constant,
)
from .errors import (
    InputError,
    NumericError,
    QuadratureError,
    ResourceLimitError,
    ViolationError,
)
from .gaussian import (
    FerroMatrix,
    check_gaussian_griffiths,
    covariance,
    ferro_from_rows,
    gaussian_laplacian,
    gaussian_moment,
    matrix_semigroup,
    ou_generator,
    trotter_compare,
)
from .griffiths import GriffithsReport, check_first, check_second, random_cone_poly
from .heat import (
    build_invariant_basis,
    correlation_flow,
    dirichlet,
    grad_dot,
    heat_evolve,
    laplacian,
)
from .mc import MCEstimate, estimate_moment
from .moments import (
    eliminate_site,
    interacting_moment,
    radial_moment,
    sphere_moment,
    sphere_moment_oracle,
)
from .wick import vector_moment
from .zonal import gegenbauer, gegenbauer_coefficients, laplace_eigenvalue

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo the package keeps, so the next computation runs cold."""
    moments.clear_caches()  # also the Isserlis chain memos
    chernoff._node_cache.clear()
    zonal.gegenbauer_coefficients.cache_clear()
