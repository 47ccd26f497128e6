"""Cauchy-estimate engine: contour coefficients and certified series bounds.

The central inequality verified here: for a family of maps analytic and
bounded on balls B_R(a) around a finite anchor set, and any r < R/(2e),

    sum_k  beta_k r^k  <=  R/(R - 2er) * max sup_bound,

where beta_k is a per-degree bound for the k-th Taylor terms across the
family.  Two routes produce the beta_k:

* coefficient route: when per-degree coefficient majorants are stored on the
  sample they are used directly (exact for polynomials and germs);
* probing route: directional Taylor coefficients recovered by trapezoidal
  contour quadrature over a probe direction set, multiplied by the
  polarization factor (2k)^k / k! that converts directional bounds into
  multilinear ones.  The Q nodes of one coefficient are formed as one
  block and the sample is called once per node; the weighted values are
  added node by node with one np.add.accumulate.  Samples read off a series
  evaluate it through `SeriesSpace.evaluator`, which gathers its
  coefficients and its center once per sample, so a node costs one
  conversion, one pass along the monomial chains and one dot product.

The probe maximum over finitely many directions can only undershoot the true
directional sup, and the stored majorants dominate the homogeneous sups they
replace, so in both routes a reported verdict of true is backed by the
inequality itself.  The comparison is decided in exact rationals, with e
bracketed by two rationals, so rounding cannot turn a false bound into a
verdict of true.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ValidationError
from .germs import DEFAULT_DEGREE
from .jsonio import integer
from .sampling import generator
from .series import space

DEFAULT_QUADRATURE = 256
_PROBE_SHRINK = 1e-6  # probe circle sits at s = R(1 - this) by default
# e lies strictly between these: the tail of sum 1/j! after j = 20 is
# positive and below 1/(20 * 20!)
_E_LOW = sum(Fraction(1, math.factorial(j)) for j in range(21))
_E_HIGH = _E_LOW + Fraction(1, 20 * math.factorial(20))


@dataclass(frozen=True)
class AnalyticSample:
    """One map of the family: black-box evaluator plus certified metadata.

    evaluator maps a point of C^d, as the caller gives it, to a vector of
    C^d; sup_bound must dominate the true sup of the max-component norm on
    B_R(center).  When `majorants` is present, majorants[k] bounds the
    degree-k coefficient sum and the verifier skips probing for this sample.
    """

    evaluator: object
    center: np.ndarray
    radius: float
    sup_bound: float
    majorants: tuple | None = None

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "center", center)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValidationError(f"radius must be positive and finite, got {self.radius}")
        if not (self.sup_bound >= 0 and math.isfinite(self.sup_bound)):
            raise ValidationError(f"sup bound must be finite and nonnegative, got {self.sup_bound}")
        if self.majorants is not None:
            m = tuple(float(x) for x in self.majorants)
            if not all(0 <= x < math.inf for x in m):  # false for NaN too
                raise ValidationError(f"coefficient majorants must be finite and nonnegative, got {m}")
            object.__setattr__(self, "majorants", m)

    @property
    def dim(self) -> int:
        return self.center.size

    def __call__(self, point) -> np.ndarray:
        value = self.evaluator(point)
        return np.asarray(value, dtype=np.complex128).reshape(-1)


def _block_sample(sp, cols: np.ndarray, center, radius: float) -> AnalyticSample:
    """Sample of the series block `cols` around `center`, read off its coefficients.

    majorants[k] is the degree-k coefficient sum and sup_bound is
    sum_k majorants[k] radius^k; a radius^k beyond the float range makes it
    infinite, which AnalyticSample refuses.
    """
    coeff_norm = np.abs(cols).max(axis=0)
    majorants = [float(coeff_norm[0])] + sp.degree_sums(coeff_norm).tolist()
    sup = 0.0
    try:
        for k, m in enumerate(majorants):
            sup += m * radius**k
    except OverflowError:
        sup = math.inf
    return AnalyticSample(sp.evaluator(cols, center), center, radius, sup, majorants=tuple(majorants))


def sample_from_polynomial(terms: dict, center, radius: float, degree: int = DEFAULT_DEGREE) -> AnalyticSample:
    """Wrap a polynomial given as {multi-index: coefficient vector}.

    sup_bound and the per-degree majorants come from the coefficient sums
    sum ||c_alpha|| rho^|alpha|, exact for polynomials, and the evaluator
    evaluates the polynomial around its center.
    """
    center = np.asarray(center, dtype=np.complex128).reshape(-1)
    sp = space(center.size, degree)
    return _block_sample(sp, sp.from_terms(terms, center.size), center, radius)


def sample_from_germ(germ, anchor: int = 0) -> AnalyticSample:
    """Wrap one anchor of a germ; R = 1/index, majorants from the series.

    The germ vanishes at its anchors, so its degree-0 majorant is 0.0.
    """
    sp = space(germ.dim, germ.degree)
    center = germ.anchors.points[anchor]
    return _block_sample(sp, germ.coeffs[anchor], center, 1.0 / germ.index)


def cauchy_directional_coefficient(
    sample: AnalyticSample, v, s: float, k: int, quadrature: int = DEFAULT_QUADRATURE
) -> np.ndarray:
    """k-th Taylor coefficient of z -> f(a + z v) by contour quadrature.

    Equals (1/k!) f^(k)(a)(v, ..., v).  The trapezoid rule on the circle
    |z| = s with Q nodes is exact for polynomial integrands whenever the
    degrees present stay below Q (aliasing only enters at degree k + Q).
    """
    if not isinstance(k, int) or k < 0:
        raise ValidationError(f"coefficient degree must be a nonnegative integer, got {k!r}")
    if not 0 < s < sample.radius:
        raise DomainError(
            f"probe radius {s} must lie strictly inside the sample radius {sample.radius}"
        )
    integer(quadrature, "quadrature size", 4)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != sample.dim:
        raise ValidationError(f"direction has dimension {v.size}, expected {sample.dim}")
    vmax = float(np.max(np.abs(v)))
    if abs(vmax - 1.0) > 1e-9:
        raise ValidationError(f"direction must be a unit vector, got max component {vmax}")
    angles = 2.0 * math.pi * np.arange(quadrature) / quadrature
    nodes = s * np.exp(1j * angles)
    weights = np.exp(-1j * k * angles)
    points = sample.center + nodes[:, None] * v
    terms = np.zeros((quadrature + 1, sample.dim), dtype=np.complex128)
    for q, point in enumerate(points, start=1):
        terms[q] = sample(point)
    terms[1:] *= weights[:, None]
    # 0.0 + f(z_1) w_1 + f(z_2) w_2 + ..., added node by node
    acc = np.add.accumulate(terms, axis=0)[-1]
    return acc / (quadrature * s**k)


def polarization_factor(k: int) -> float:
    """(2k)^k / k!, the polarization factor of degree k; (2e)^k bounds it."""
    if not isinstance(k, int) or k < 0:
        raise ValidationError(f"degree must be a nonnegative integer, got {k!r}")
    if k == 0:
        return 1.0
    return float((2 * k) ** k) / math.factorial(k)


@dataclass(frozen=True)
class EstimateReport:
    degrees: tuple
    lhs: float
    rhs: float
    verdict: bool
    radius: float
    r: float
    s: float
    quadrature: int
    route: str

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "parameters": {
                "R": self.radius,
                "r": self.r,
                "s": self.s,
                "Q": self.quadrature,
            },
            "route": self.route,
        }


def _probe_directions(dim: int, rng) -> list:
    """Coordinate directions plus 2d random-phase directions, all unit."""
    dirs = [np.eye(dim, dtype=np.complex128)[i] for i in range(dim)]
    for _ in range(2 * dim):
        phases = np.exp(2j * math.pi * rng.random(dim))
        dirs.append(phases)  # max component 1 by construction
    return dirs


def _bound_holds(betas, r: float, radius: float, sup: float) -> bool:
    """sum_k betas[k] r^k <= R/(R - 2er) * sup, decided exactly.

    Every float is a rational, so the left side is summed exactly.  The
    right side grows with e while R - 2er > 0, so it is bounded below by
    putting the lower bracket of e in place of e, once the upper bracket
    confirms R - 2er > 0.  True therefore means that the inequality holds.
    """
    r_q, big_r = Fraction(r), Fraction(radius)
    lhs = sum(Fraction(b) * r_q**k for k, b in enumerate(betas))
    if big_r - 2 * _E_HIGH * r_q <= 0:
        return False
    return lhs * (big_r - 2 * _E_LOW * r_q) <= big_r * Fraction(sup)


def verify_bounded_series(
    family,
    r: float,
    s: float | None = None,
    degree: int = DEFAULT_DEGREE,
    quadrature: int = DEFAULT_QUADRATURE,
    seed: int = 0,
) -> EstimateReport:
    """Check sum_k beta_k r^k <= R/(R - 2er) * max sup_bound for the family.

    beta_k is the max across samples of the per-degree bound: stored
    majorants when a sample has them, otherwise probed directional
    coefficients times the polarization factor.  Truncation at `degree` only
    lowers the left side, so it never flips a sound verdict to a false one.
    The verdict compares the two sides exactly (see `_bound_holds`); the
    reported lhs and rhs are their float values.  `degree` is at least 1,
    since a bound with no terms on its left side certifies nothing, and
    `quadrature` at least 4.
    """
    integer(degree, "truncation degree", 1)
    integer(quadrature, "quadrature size", 4)
    samples = list(family)
    if not samples:
        raise ValidationError("the family must contain at least one sample")
    radius = samples[0].radius
    for smp in samples[1:]:
        if smp.radius != radius:
            raise ValidationError("all samples must share one radius")
    if not 0 < r < radius / (2.0 * math.e):
        raise DomainError(
            f"inner radius {r} must satisfy 0 < r < R/(2e) = {radius / (2.0 * math.e)}"
        )
    if s is None:
        s = radius * (1.0 - _PROBE_SHRINK)
    if not 0 < s < radius:
        raise DomainError(f"probe radius {s} must lie in (0, R = {radius})")
    rng = generator(seed)
    betas = [0.0] * (degree + 1)
    probed = False
    for smp in samples:
        if smp.majorants is not None:
            for k in range(min(degree, len(smp.majorants) - 1) + 1):
                betas[k] = max(betas[k], smp.majorants[k])
            continue
        probed = True
        dirs = _probe_directions(smp.dim, rng)
        for k in range(degree + 1):
            factor = polarization_factor(k)
            best = 0.0
            for v in dirs:
                coef = cauchy_directional_coefficient(smp, v, s, k, quadrature)
                size = float(np.max(np.abs(coef)))
                if not math.isfinite(size):  # max() would drop a NaN
                    raise DomainError(f"probed coefficient of degree {k} is {size}")
                best = max(best, size)
            betas[k] = max(betas[k], best * factor)
    lhs = 0.0
    for k in range(degree, -1, -1):  # small terms first
        lhs += betas[k] * r**k
    sup = max(smp.sup_bound for smp in samples)
    rhs = radius / (radius - 2.0 * math.e * r) * sup
    verdict = _bound_holds(betas, r, radius, sup)
    stored = any(smp.majorants is not None for smp in samples)
    route = "mixed" if (probed and stored) else ("probed" if probed else "majorants")
    return EstimateReport(
        degrees=tuple(betas),
        lhs=lhs,
        rhs=rhs,
        verdict=bool(verdict),
        radius=radius,
        r=float(r),
        s=float(s),
        quadrature=int(quadrature),
        route=route,
    )
