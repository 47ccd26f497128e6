"""Desk-scale toolkit for bracket products, coefficient series and certified bounds.

The package splits into a small stack of layers:

* ``matrices`` / ``bch``: complex matrix algebras with a submultiplicative
  norm, exp/log on a certified domain, and the bracket series that glues them.
* ``series`` / ``germs``: truncated multivariate power series and anchored
  germ families with composition, inversion and derivative bounds.
* ``dirichlet``: coefficient-sequence spaces with weighted norms, the bracket
  product, and half-plane evaluation.
* ``estimates``: Cauchy-integral coefficient extraction and the two-route
  bounded-series verifier.
* ``limits``: continuity certificates for maps between scales of spaces and
  the regularity moduli used to check them.
* ``catalog`` / ``acceptance`` / ``cli``: a frozen corpus of cases, the
  acceptance battery, and the command line front end.

Everything re-exported here is the public API, though an option that no
caller passes is removed rather than kept; the modules also expose helpers
that may move between releases.
"""

from .errors import (
    LbcalcError,
    ValidationError,
    DomainError,
    ConfigurationError,
    InternalCheckError,
    UsageError,
)
from .matrices import (
    compatible_norm,
    one_norm,
    commutator,
    mat_exp,
    mat_log,
    bch,
    BCH_DOMAIN_RADIUS,
    BCH_RESULT_BOUND,
)
from .dirichlet import (
    DirichletSeries,
    zero_series,
    norm_s,
    bracket,
    evaluate,
    bch_series,
    exp_pointwise,
    leading_coefficient,
)
from .germs import (
    AnchorSet,
    Germ,
    zero_germ,
    sup_norm,
    d_norm,
    compose,
    compose_derivative,
    invert,
    residual,
    derivative_bound,
    norms_at_index,
)
from .estimates import (
    AnalyticSample,
    cauchy_directional_coefficient,
    polarization_factor,
    verify_bounded_series,
    sample_from_polynomial,
    sample_from_germ,
)
from .limits import (
    ContinuityCertificate,
    MatrixSteps,
    DirichletSteps,
    GermSteps,
    neighborhood_contains,
    build_certificate,
    verify_certificate,
    certificate_from_json,
    dirichlet_regularity_modulus,
    check_dirichlet_regularity,
    germ_regularity_modulus,
    check_germ_regularity,
    GERM_CONSTANT,
)
from .acceptance import run_all

__all__ = [
    "LbcalcError",
    "ValidationError",
    "DomainError",
    "ConfigurationError",
    "InternalCheckError",
    "UsageError",
    "compatible_norm",
    "one_norm",
    "commutator",
    "mat_exp",
    "mat_log",
    "bch",
    "BCH_DOMAIN_RADIUS",
    "BCH_RESULT_BOUND",
    "DirichletSeries",
    "zero_series",
    "norm_s",
    "bracket",
    "evaluate",
    "bch_series",
    "exp_pointwise",
    "leading_coefficient",
    "AnchorSet",
    "Germ",
    "zero_germ",
    "sup_norm",
    "d_norm",
    "compose",
    "compose_derivative",
    "invert",
    "residual",
    "derivative_bound",
    "norms_at_index",
    "AnalyticSample",
    "cauchy_directional_coefficient",
    "polarization_factor",
    "verify_bounded_series",
    "sample_from_polynomial",
    "sample_from_germ",
    "ContinuityCertificate",
    "MatrixSteps",
    "DirichletSteps",
    "GermSteps",
    "neighborhood_contains",
    "build_certificate",
    "verify_certificate",
    "certificate_from_json",
    "dirichlet_regularity_modulus",
    "check_dirichlet_regularity",
    "germ_regularity_modulus",
    "check_germ_regularity",
    "GERM_CONSTANT",
    "run_all",
]
__version__ = "0.1.0"
