"""Direct-limit neighborhoods, continuity certificates and regularity moduli.

The limit spaces here are increasing sequences of normed step spaces with
norm-nonincreasing bonding maps: matrices with a fixed compatible norm,
Dirichlet series under the half-plane norms s_j = j, or germs under the sup
majorant at index j.  A zero-neighborhood of the limit is described by a
sequence of radii: V(delta_1, ..., delta_m) collects sums x_1 + ... + x_m
with each x_j strictly inside the delta_j ball of step j.

A ContinuityCertificate packages the explicit radii that force an analytic
map f with known per-step sup bounds S_n to satisfy ||f(x)|| < epsilon on
the whole neighborhood:

    a_j = r / 2^j,   b_n = min(1, epsilon / (2^n S_n)),   delta_n = a_n b_n,

so that sum delta_j < r stays inside the radius where every step bound
applies.  verify_certificate hammers a certificate with random
decompositions and reports the worst observed value; the moduli at the
bottom certify the two compact-regularity statements (one per scale) with
explicit cutoffs and radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dirichlet import DirichletSeries, norm_s, ordered_sum, sum_series, term_norms, zero_series
from .errors import DomainError, InternalCheckError, ValidationError
from .germs import AnchorSet, Germ, degree_majorants, norms_at_index, sum_germs, zero_germ
from .jsonio import fields, integer, numbers
from .matrices import compatible_norm
from .sampling import generator, random_germ, random_matrix, random_series

DEFAULT_SAMPLES = 1000
GERM_CONSTANT = 3.0 / (3.0 - math.e)  # the overhead R/(R - 2er) at r/R = 1/6
_DRAW_SHAVE = 1.0 - 1e-12  # keeps rescaled draws strictly under their radius
# each step draws STEP_SERIES_TERMS frequencies from STEP_FREQUENCIES, or a
# germ of the default degree with STEP_GERM_TERMS terms per anchor
STEP_FREQUENCIES = np.arange(1, 9, dtype=np.int64)
STEP_SERIES_TERMS = 3
STEP_GERM_TERMS = 6


# -- step scales ------------------------------------------------------------


class MatrixSteps:
    """Constant sequence: every step is the same matrix algebra."""

    def __init__(self, dim: int):
        self.dim = integer(dim, "matrix dimension", 1)

    def norm(self, j: int, x) -> float:
        return compatible_norm(x)

    def random(self, j: int, rng, target: float):
        return random_matrix(rng, self.dim, target=target)

    def zero(self):
        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def combine(self, terms):
        out = self.zero()
        for x in terms:
            out = out + x
        return out


class DirichletSteps:
    """Step j carries the half-plane norm at s = j; bondings contract."""

    def __init__(self, dim: int):
        self.dim = integer(dim, "series dimension", 1)

    def norm(self, j: int, x: DirichletSeries) -> float:
        return norm_s(x, float(j))

    def random(self, j: int, rng, target: float) -> DirichletSeries:
        return random_series(
            rng, self.dim, STEP_FREQUENCIES, STEP_SERIES_TERMS, s=float(j), target=target
        )

    def zero(self) -> DirichletSeries:
        return zero_series(self.dim)

    def combine(self, terms):
        return sum_series(list(terms), self.dim)


class GermSteps:
    """Step j holds germs at index j, measured by the sup majorant there."""

    def __init__(self, anchors: AnchorSet):
        self.anchors = anchors

    def norm(self, j: int, g: Germ) -> float:
        return norms_at_index(g, j)[0]

    def random(self, j: int, rng, target: float) -> Germ:
        return random_germ(rng, self.anchors, j, terms=STEP_GERM_TERMS, sup_target=target)

    def zero(self) -> Germ:
        return zero_germ(self.anchors, 1)

    def combine(self, terms):
        terms = list(terms)
        return sum_germs(terms) if terms else self.zero()


# -- neighborhoods ----------------------------------------------------------


def neighborhood_contains(delta, decomposition, scale) -> bool:
    """Membership of one explicit decomposition in V(delta_1, ..., delta_m).

    True iff every term sits strictly inside its step ball.  This certifies
    the supplied decomposition; it does not search for one.
    """
    delta = [float(d) for d in delta]
    if any(d <= 0 for d in delta):
        raise ValidationError("all radii must be positive")
    last = 0
    for j, _ in decomposition:
        if not isinstance(j, int) or j < 1:
            raise ValidationError(f"step index must be a positive integer, got {j!r}")
        if j <= last:
            raise ValidationError("decomposition indices must be strictly increasing")
        if j > len(delta):
            raise ValidationError(
                f"step index {j} exceeds the certificate length {len(delta)}"
            )
        last = j
    for j, x in decomposition:
        if not scale.norm(j, x) < delta[j - 1]:
            return False
    return True


# -- continuity certificates -------------------------------------------------


@dataclass(frozen=True)
class ContinuityCertificate:
    radius: float          # R: step balls where the sup bounds hold
    r: float               # working radius, r < R/(2e)
    epsilon: float
    step_sups: tuple       # S_n, one per step
    a: tuple
    b: tuple
    delta: tuple

    def __len__(self) -> int:
        return len(self.delta)

    def to_json(self) -> dict:
        return {
            "R": self.radius,
            "r": self.r,
            "epsilon": self.epsilon,
            "step_sups": list(self.step_sups),
            "a": list(self.a),
            "b": list(self.b),
            "delta": list(self.delta),
        }


def certificate_from_json(obj) -> ContinuityCertificate:
    """Load a certificate, re-deriving its radii from its R, r, epsilon and step sups.

    `build_certificate` derives a, b and delta again.  A stored delta above
    the derived one is refused; a positive one at or below it is kept, since
    a smaller neighborhood keeps the bound, and its running sums stay below
    those of the derived delta, which stay below r.  The stored a and b are
    replaced by the derived ones.
    """
    obj = fields(obj, "certificate JSON", ("R", "r", "epsilon", "step_sups", "a", "b", "delta"))
    radius, r, epsilon = numbers([obj["R"], obj["r"], obj["epsilon"]], "R, r and epsilon")
    lists = {k: numbers(obj[k], k) for k in ("step_sups", "a", "b", "delta")}
    sizes = {len(v) for v in lists.values()}
    if len(sizes) != 1:
        raise ValidationError("certificate lists must share one length")
    if any(v <= 0 for v in lists["delta"]):
        raise ValidationError("all delta radii must be positive")
    derived = build_certificate(lists["step_sups"], radius, r, epsilon)
    for n, (stored, bound) in enumerate(zip(lists["delta"], derived.delta), start=1):
        if stored > bound:
            raise ValidationError(
                f"delta_{n} = {stored} exceeds {bound}, the radius that R, r, epsilon "
                f"and the step sups give"
            )
    return replace(derived, delta=tuple(lists["delta"]))


def build_certificate(step_sups, radius: float, r: float, epsilon: float) -> ContinuityCertificate:
    """Certificate radii from per-step sup bounds, by the explicit formulas.

    A delta that underflows to 0 is refused: it certifies nothing, and
    `certificate_from_json` would refuse the certificate.  So is a step past
    1023, whose 2^j lies beyond the float range.
    """
    try:
        sups = [float(s) for s in step_sups]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"step sups must be a list of numbers: {exc}") from exc
    if not sups:
        raise ValidationError("at least one step sup is required")
    if len(sups) > 1023:
        raise DomainError(f"{len(sups)} steps; at most 1023 are supported, as 2^j must be a float")
    if any(not (s > 0 and math.isfinite(s)) for s in sups):
        raise ValidationError("step sups must be positive and finite")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not 0 < r < radius / (2.0 * math.e):
        raise DomainError(
            f"working radius {r} must satisfy 0 < r < R/(2e) = {radius / (2.0 * math.e)}"
        )
    a = [r / 2.0**j for j in range(1, len(sups) + 1)]
    b = [min(1.0, epsilon / (2.0**n * sups[n - 1])) for n in range(1, len(sups) + 1)]
    delta = [aj * bj for aj, bj in zip(a, b)]
    for n, dj in enumerate(delta, start=1):
        if not dj > 0:
            raise DomainError(f"delta_{n} underflows to 0; raise epsilon or lower the step sups")
    for aj, dj in zip(a, delta):
        if dj > aj:
            raise InternalCheckError(f"delta {dj} exceeds its ceiling a = {aj}")
    running = 0.0
    for dj in delta:
        running += dj
        if not running < r:
            raise InternalCheckError(f"partial radius sum {running} reached r = {r}")
    return ContinuityCertificate(
        radius=float(radius),
        r=float(r),
        epsilon=float(epsilon),
        step_sups=tuple(sups),
        a=tuple(a),
        b=tuple(b),
        delta=tuple(delta),
    )


def verify_certificate(
    f,
    out_norm,
    cert: ContinuityCertificate,
    scale,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict:
    """Sample random decompositions in V(delta) and bound ||f|| empirically.

    f eats a combined step element and returns anything out_norm can
    measure; f(0) must be exactly 0 (the certificate formulas assume the
    normalized map).  Each sample draws a random number of leading steps and
    one element per step with norm uniform in [0, delta_j).  Reports the
    worst observed value, the margin to epsilon, and a verdict.  `samples`
    must be a positive integer: a verdict after zero draws claims nothing.
    An output norm that is NaN is refused, since no comparison can see it.
    """
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ValidationError(f"samples must be a positive integer, got {samples!r}")
    rng = generator(seed)
    zero_val = out_norm(f(scale.zero()))
    if zero_val != 0.0:
        raise DomainError(
            f"the certificate formulas need f(0) = 0, got norm {zero_val}"
        )
    delta, r = cert.delta, cert.r
    m = len(delta)
    worst = 0.0
    for _ in range(samples):
        length = int(rng.integers(1, m + 1))
        terms = []
        norms = []
        for j in range(1, length + 1):
            bound = delta[j - 1]
            x = scale.random(j, rng, float(rng.random()) * bound * _DRAW_SHAVE)
            nj = scale.norm(j, x)
            # membership, with the strict balls neighborhood_contains uses
            if not nj < bound:
                raise InternalCheckError(f"sampled term at step {j} has norm {nj} >= delta {bound}")
            terms.append(x)
            norms.append(nj)
        if not math.fsum(norms) < r:
            raise InternalCheckError(
                f"sampled decomposition leaves the working ball of radius {r}"
            )
        value = float(out_norm(f(scale.combine(terms))))
        if math.isnan(value):  # max() would keep the old worst and certify it
            raise DomainError("the map's output norm is NaN on a sampled decomposition")
        worst = max(worst, value)
    verdict = worst < cert.epsilon
    return {
        "max_observed": worst,
        "epsilon": cert.epsilon,
        "samples": int(samples),
        "verdict": bool(verdict),
        "seed": int(seed),
        "margin": cert.epsilon - worst,
    }


# -- regularity moduli -------------------------------------------------------


@dataclass(frozen=True)
class RegularityModulus:
    scale: str             # "dirichlet" or "germ"
    source: int            # s or n
    target: int            # t = s + 2 or m = 6n
    control: int           # u or l: the fine index whose smallness is assumed
    cutoff: int            # n0 or k0
    delta: float
    epsilon: float
    constant: float | None = None   # D, germ scale only

    def to_json(self) -> dict:
        out = {
            "scale": self.scale,
            "source": self.source,
            "target": self.target,
            "control": self.control,
            "cutoff": self.cutoff,
            "delta": self.delta,
            "epsilon": self.epsilon,
        }
        if self.constant is not None:
            out["constant"] = self.constant
        return out


def _zeta2_tail_brackets(m: int) -> tuple:
    """Two rational brackets (low, high) of sum over n > m of 1/n^2, coarse first.

    Telescoping 1/(n(n+1)) < 1/n^2 < 1/(n - 1/2) - 1/(n + 1/2) over n > m
    gives 1/(m+1) < tail < 1/(m+1/2).  The tail is the trigamma function at
    x = m + 1, which its asymptotic series encloses:
    1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) < tail < 1/x + 1/(2x^2) + 1/(6x^3).
    """
    x = Fraction(m + 1)
    fine = 1 / x + 1 / (2 * x**2) + 1 / (6 * x**3)
    return (1 / x, 1 / (x - Fraction(1, 2))), (fine - 1 / (30 * x**5), fine)


def _zeta2_tail_below(m: int, q: float) -> bool:
    """Whether sum over n > m of 1/n^2 < q, decided by the brackets of the tail.

    A q that neither bracket places on one side of the tail is refused.
    """
    q = Fraction(q)
    for low, high in _zeta2_tail_brackets(m):
        if high <= q:
            return True
        if low >= q:
            return False
    raise DomainError(f"cannot decide whether the zeta(2) tail after {m} is below {float(q)}")


def dirichlet_regularity_modulus(s: int, epsilon: float, u: int) -> RegularityModulus:
    """Explicit (t, n0, delta) forcing norm_t small from norm_s bounded, norm_u tiny.

    t = s + 2; n0 is the minimal integer with sum over n > n0 of 1/n^2
    strictly below epsilon/4, decided in rationals (`_zeta2_tail_below`); an
    epsilon too close to 4 times a tail to decide is refused, and so is one
    whose cutoff passes the float range or whose delta underflows to 0.
    delta = n0^(t-u) * epsilon/2.  The companion checker is
    check_dirichlet_regularity.
    """
    if not isinstance(s, int) or not isinstance(u, int):
        raise ValidationError("half-plane indices must be integers")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    t = s + 2
    if u < t:
        raise DomainError(f"the fine index u = {u} must be at least s + 2 = {t}")
    quarter = epsilon / 4.0
    if not (quarter > 0.0 and 1.0 / quarter < math.inf):
        raise DomainError(f"the cutoff n0 > 4/epsilon - 2 lies beyond the float range for epsilon = {epsilon}")
    # tail(m) > 1/(m+1), so nothing below this start can satisfy the cut; it
    # is exact, since a float 1/quarter above 2^53 is off by more than 1
    m = max(0, math.ceil(1 / Fraction(quarter)) - 2)
    while not _zeta2_tail_below(m, quarter):
        m += 1
    if m > 0 and _zeta2_tail_below(m - 1, quarter):
        raise InternalCheckError(f"cutoff scan overshot minimality at n0 = {m}")
    n0 = m
    delta = float(n0) ** (t - u) * epsilon / 2.0 if n0 > 0 else epsilon / 2.0
    if not delta > 0.0:
        raise DomainError(f"delta = n0^(t-u) epsilon/2 underflows to 0 at n0 = {n0}; raise epsilon or lower u")
    return RegularityModulus(
        scale="dirichlet",
        source=s,
        target=t,
        control=u,
        cutoff=n0,
        delta=delta,
        epsilon=float(epsilon),
    )


def check_dirichlet_regularity(mod: RegularityModulus, gamma: DirichletSeries) -> dict:
    """Run the modulus on one series and certify the target-norm bound.

    Requires norm_s(gamma) < 2 and norm_u(gamma) < delta; concludes
    norm_t(gamma) < epsilon by the head/tail split at n0, and verifies the
    conclusion directly.  A failed conclusion raises InternalCheckError.
    """
    if mod.scale != "dirichlet":
        raise ValidationError(f"expected a dirichlet modulus, got scale {mod.scale!r}")
    coarse = norm_s(gamma, float(mod.source))
    if not coarse < 2.0:
        raise DomainError(f"the checker assumes norm_s < 2, got {coarse}")
    fine = norm_s(gamma, float(mod.control))
    if not fine < mod.delta:
        raise DomainError(
            f"the checker assumes norm_u < delta = {mod.delta}, got {fine}"
        )
    terms = list(zip(term_norms(gamma.freqs, gamma.mats, float(mod.target)), gamma.freqs.tolist()))
    target_norm = ordered_sum(t for t, _ in terms)  # norm_s at the target, summed once
    head = ordered_sum(t for t, n in terms if n <= mod.cutoff)
    tail = ordered_sum(t for t, n in terms if n > mod.cutoff)
    half = mod.epsilon / 2.0
    # head: each n <= n0 trades n^(-t) for n0^(u-t) n^(-u); tail: each
    # n > n0 trades n^(-t) for 2/n^2 via the coarse per-term bound
    head_route = fine * float(max(mod.cutoff, 1)) ** (mod.control - mod.target)
    tail_route = 2.0 * float(_zeta2_tail_brackets(mod.cutoff)[1][1])
    if head > head_route * (1.0 + 1e-12):
        raise InternalCheckError(f"head {head} exceeded its route bound {head_route}")
    if tail > tail_route * (1.0 + 1e-12):
        raise InternalCheckError(f"tail {tail} exceeded its route bound {tail_route}")
    if not (head < half and tail < half):
        raise InternalCheckError(f"head/tail split failed: {head}, {tail} vs {half}")
    if not target_norm < mod.epsilon:
        raise InternalCheckError(
            f"regularity conclusion failed: norm_t = {target_norm} >= {mod.epsilon}"
        )
    return {
        "norm_source": coarse,
        "norm_control": fine,
        "norm_target": target_norm,
        "head": head,
        "tail": tail,
        "head_ceiling": half,
        "tail_ceiling": half,
        "epsilon": mod.epsilon,
        "verdict": True,
    }


def germ_regularity_modulus(n: int, epsilon: float, l: int) -> RegularityModulus:
    """Explicit (m, k0, delta, D) for the germ scale.

    m = 6n and D = 3/(3-e).  The degree sups s_k (k >= 1) of the family are
    budgeted at the constant level 2D (1 - 1/(6n)), so the tail past k0 has
    the closed form 2D (1/(6n))^(k0+1).  k0 is the minimal integer with that
    tail strictly below epsilon/2, and delta = (1/D) (n/l)^k0 epsilon/2; an
    epsilon whose half or delta underflows to 0 is refused.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"the source index must be a positive integer, got {n!r}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    m = 6 * n
    if not isinstance(l, int) or l < m:
        raise DomainError(f"the fine index l = {l!r} must be at least 6n = {m}")
    q = 1.0 / m
    cap = 2.0 * GERM_CONSTANT
    half = epsilon / 2.0
    if not half > 0.0:
        raise DomainError(f"epsilon/2 underflows to 0 for epsilon = {epsilon}")
    k0 = 0
    while not cap * q ** (k0 + 1) < half:
        k0 += 1
    delta = (1.0 / GERM_CONSTANT) * (float(n) / float(l)) ** k0 * half
    if not delta > 0.0:
        raise DomainError(f"delta = (1/D) (n/l)^k0 epsilon/2 underflows to 0 at k0 = {k0}; raise epsilon or lower l")
    return RegularityModulus(
        scale="germ",
        source=n,
        target=m,
        control=l,
        cutoff=k0,
        delta=delta,
        epsilon=float(epsilon),
        constant=GERM_CONSTANT,
    )


def check_germ_regularity(mod: RegularityModulus, g: Germ) -> dict:
    """Run the germ modulus on one germ and certify the target-index bound.

    Requires each degree sup h_k of g to stay within the budget level
    2D (1 - 1/m), the sup majorant at the fine index l to be below delta,
    and (the family gate) the sup at the source index to be at most 2.  Concludes that the sup
    majorant at m = 6n is below epsilon and verifies that directly.
    """
    if mod.scale != "germ":
        raise ValidationError(f"expected a germ modulus, got scale {mod.scale!r}")
    n, m, l = mod.source, mod.target, mod.control
    if g.index > n:
        raise DomainError(
            f"the family lives at index {n}, got a germ at index {g.index}"
        )
    h = degree_majorants(g)
    q = 1.0 / m
    level = 2.0 * GERM_CONSTANT * (1.0 - q)
    for k in range(1, len(h)):
        if h[k] > level * (1.0 + 1e-12):
            raise DomainError(
                f"degree-{k} coefficient sum {h[k]} exceeds the budget {level}"
            )
    source_sup = norms_at_index(g, n)[0]
    if source_sup > 2.0:
        raise DomainError(f"the family gate needs sup at index {n} <= 2, got {source_sup}")
    fine = norms_at_index(g, l)[0]
    if not fine < mod.delta:
        raise DomainError(
            f"the checker assumes sup at index {l} below delta = {mod.delta}, got {fine}"
        )
    target_sup = norms_at_index(g, m)[0]
    head = math.fsum(float(h[k]) * q**k for k in range(1, min(mod.cutoff, len(h) - 1) + 1))
    tail = math.fsum(float(h[k]) * q**k for k in range(mod.cutoff + 1, len(h)))
    half = mod.epsilon / 2.0
    head_ceiling = (float(l) / float(m)) ** mod.cutoff * mod.delta
    if head > head_ceiling * (1.0 + 1e-12):
        raise InternalCheckError(f"head {head} exceeded its ceiling {head_ceiling}")
    if tail > half:
        raise InternalCheckError(f"tail {tail} reached epsilon/2 = {half}")
    if not target_sup < mod.epsilon:
        raise InternalCheckError(
            f"regularity conclusion failed: sup at {m} is {target_sup} >= {mod.epsilon}"
        )
    return {
        "sup_source": source_sup,
        "sup_control": fine,
        "sup_target": target_sup,
        "head": head,
        "tail": tail,
        "head_ceiling": head_ceiling,
        "tail_ceiling": half,
        "epsilon": mod.epsilon,
        "verdict": True,
    }
