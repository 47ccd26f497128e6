"""Batch acceptance suite: ten numbered desk-scale checks.

Each criterion draws its own seeded data, runs one oracle- or
property-based check, and returns a CriterionResult with a pass flag and a
one-line detail.  run_all executes all ten in order and is what the `suite`
command wraps.  The oracles here are deliberately independent of the code
under test: matrix BCH is checked against exp/log composed numerically,
series reversion against an exact rational Lagrange computation, and the
zeta tail cutoff against a partial-sum bracket.

Reports carry no wall times, so two runs with one seed print the same
bytes and the verdicts do not depend on host load.  The time budgets of
criteria 1 (10 s) and 8 (60 s) are checked by the test suite, which times
each criterion as the battery runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog
from .dirichlet import DirichletSeries, bch_series, bracket, exp_pointwise, norm_s
from .errors import InternalCheckError
from .estimates import cauchy_directional_coefficient, sample_from_polynomial, verify_bounded_series
from .germs import (
    AnchorSet,
    Germ,
    compose,
    compose_derivative,
    composition_codomain_index,
    d_norm,
    invert,
    norm_check_stats,
    norms_at_index,
    residual,
    sup_norm,
)
from .limits import dirichlet_regularity_modulus, check_dirichlet_regularity, verify_certificate
from .matrices import bch, mat_exp, mat_log, one_norm
from .sampling import generator, random_germ, random_matrix, random_series, spawn


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.number:2d} {self.name}: {self.detail}"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _result(number, name, passed, detail) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail)


# -- oracles -----------------------------------------------------------------


def lagrange_reversion(coeffs, degree: int) -> list:
    """Exact compositional inverse coefficients, by Lagrange's formula.

    coeffs[k] is the x^(k+1) coefficient of f (so coeffs[0] = f'(0) != 0),
    all converted exactly to rationals.  Returns [g_1, ..., g_degree] with
    f(g(y)) = y through degree `degree`.  Runs entirely in Fraction
    arithmetic: no rounding anywhere.
    """
    u = [Fraction(c) for c in coeffs]  # u = f/x
    if u[0] == 0:
        raise ValueError("f'(0) must be nonzero")
    u += [Fraction(0)] * (degree - len(u))
    # v = 1/u truncated
    v = [Fraction(0)] * degree
    v[0] = 1 / u[0]
    for m in range(1, degree):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += u[i] * v[m - i]
        v[m] = -acc / u[0]

    def mul(a, b):
        out = [Fraction(0)] * degree
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j >= degree:
                    break
                out[i + j] += ai * bj
        return out

    out = []
    w = [Fraction(1)] + [Fraction(0)] * (degree - 1)
    for k in range(1, degree + 1):
        w = mul(w, v)  # w = v^k
        out.append(w[k - 1] / k)
    return out


def zeta2_tail_bracket(m: int) -> tuple:
    """Rigorous lower/upper bounds for sum over n > m of 1/n^2.

    Partial sum to N = m + 10^6, then the integral comparison brackets the
    remainder between 1/(N+1) and 1/N.
    """
    upper_n = m + 1_000_000
    partial = math.fsum(1.0 / (n * n) for n in range(m + 1, upper_n + 1))
    return partial + 1.0 / (upper_n + 1), partial + 1.0 / upper_n


# -- criteria ----------------------------------------------------------------


def criterion_bch_matrix_oracle(seed: int) -> CriterionResult:
    """500 seeded 3x3 pairs: series BCH against log(exp x exp y), 1e-9."""
    rng = generator(seed)
    worst = 0.0
    for _ in range(500):
        x = random_matrix(rng, 3, target=0.1)
        y = random_matrix(rng, 3, target=0.1)
        direct = bch(x, y, 10)
        via_group = mat_log(mat_exp(x) @ mat_exp(y))
        worst = max(worst, one_norm(direct - via_group))
    passed = worst <= 1e-9
    return _result(
        1, "bch-matrix-oracle", passed,
        f"max defect {worst:.3g} over 500 pairs, budget 1e-9",
    )


def criterion_exp_homomorphism(seed: int) -> CriterionResult:
    """200 sparse series pairs: exp of the BCH combination against the product."""
    rng = generator(seed)
    probes = (0.0 + 0.0j, 1.0 + 0.5j, 2.0 - 1.0j)
    worst = 0.0
    for _ in range(200):
        g1 = random_series(rng, 2, (2, 3, 5, 7, 11, 13), 3, s=0.0, target=0.07)
        g2 = random_series(rng, 2, (2, 3, 5, 7, 11, 13), 3, s=0.0, target=0.07)
        z = bch_series(g1, g2, 0.0, 10)
        for p in probes:
            lhs = exp_pointwise(z, p)
            rhs = exp_pointwise(g1, p) @ exp_pointwise(g2, p)
            worst = max(worst, one_norm(lhs - rhs))
    return _result(
        2, "exp-homomorphism", worst <= 1e-8,
        f"max pointwise defect {worst:.3g} over 200 pairs x 3 points, budget 1e-8",
    )


def criterion_bracket_axioms(seed: int) -> CriterionResult:
    """10^4 samples: antisymmetry exact, Jacobi <= 1e-12, submultiplicative norms."""
    rng = generator(seed)
    jac_worst = 0.0
    anti_bad = 0
    sub_bad = 0
    for _ in range(10_000):
        g1 = random_series(rng, 2, (2, 3, 4, 5, 6, 7), 2)
        g2 = random_series(rng, 2, (2, 3, 4, 5, 6, 7), 2)
        g3 = random_series(rng, 2, (2, 3, 4, 5, 6, 7), 2)
        b12 = bracket(g1, g2)
        if len((b12 + bracket(g2, g1)).freqs) != 0:
            anti_bad += 1
        jac = bracket(g1, bracket(g2, g3)) + bracket(g2, bracket(g3, g1)) + bracket(g3, b12)
        jac_worst = max(jac_worst, norm_s(jac, 0.0))
        for s in (0.0, 1.0, 2.0):
            lhs = norm_s(b12, s)
            rhs = norm_s(g1, s) * norm_s(g2, s)
            if lhs > rhs * (1.0 + 1e-12):
                sub_bad += 1
    passed = anti_bad == 0 and jac_worst <= 1e-12 and sub_bad == 0
    return _result(
        3, "bracket-axioms", passed,
        f"antisymmetry misses {anti_bad}, worst Jacobi {jac_worst:.3g}, "
        f"submultiplicativity misses {sub_bad} over 10^4 triples",
    )


def criterion_bonding_contraction(seed: int) -> CriterionResult:
    """10^4 samples: norm_t <= norm_s whenever t > s."""
    rng = generator(seed)
    bad = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 4))
        g = random_series(rng, dim, tuple(range(1, 50)), int(rng.integers(1, 6)))
        s = float(rng.uniform(0.0, 3.0))
        t = s + float(rng.uniform(0.1, 3.0))
        if norm_s(g, t) > norm_s(g, s) * (1.0 + 1e-12):
            bad += 1
    return _result(
        4, "bonding-contraction", bad == 0,
        f"{bad} violations of norm_t <= norm_s over 10^4 samples",
    )


def criterion_germ_inversion(seed: int) -> CriterionResult:
    """10^3 germs, dims 1-3: residual below 1e-10, sup bound 1/(6n), oracle match."""
    rngs = spawn(seed, 4)
    worst_res = 0.0
    least_slack = math.inf  # the least 1/(6n) - sup_norm(h)
    counts = {1: 500, 2: 300, 3: 200}
    for dim, count in counts.items():
        rng = rngs[dim - 1]
        anchors = AnchorSet.origin(dim)
        for _ in range(count):
            n = int(rng.integers(1, 5))
            g = random_germ(
                rng, anchors, n, terms=12, d_target=float(rng.uniform(0.05, 0.45))
            )
            h = invert(g)
            defect = residual(g, h)
            worst_res = max(
                worst_res, max(float(np.abs(c).max()) for c in defect.coeffs)
            )
            least_slack = min(least_slack, 1.0 / (6 * n) - sup_norm(h))

    # dim-1 cross-check against exact rational Lagrange reversion
    rng = rngs[3]
    sp_anchors = AnchorSet.origin(1)
    worst_oracle = 0.0
    for _ in range(60):
        coeffs = [0.0] + [float(c) for c in rng.uniform(-0.05, 0.05, size=8)]
        g = Germ.from_terms(
            sp_anchors, 1, [{(k,): [coeffs[k]] for k in range(1, 9)}]
        )
        if d_norm(g) > 0.5:
            continue
        h = invert(g)
        chart_over_x = [1.0 + coeffs[1]] + coeffs[2:]  # the full chart x + g, divided by x
        oracle = lagrange_reversion(chart_over_x, 8)
        got = h.terms(0)
        for k in range(1, 9):
            want = float(oracle[k - 1]) - (1.0 if k == 1 else 0.0)
            have = complex(got.get((k,), np.zeros(1))[0]).real
            worst_oracle = max(worst_oracle, abs(have - want))
    passed = worst_res <= 1e-10 and least_slack >= 0.0 and worst_oracle <= 1e-12
    return _result(
        5, "germ-inversion", passed,
        f"max residual coeff {worst_res:.3g}, sup slack {least_slack:.3g}, "
        f"oracle gap {worst_oracle:.3g}",
    )


def criterion_composition_derivative(seed: int) -> CriterionResult:
    """compose_derivative against central differences, 100 quadruples."""
    rng = generator(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        anchors = AnchorSet.origin(dim)
        n = 1
        l = composition_codomain_index(n, 0.6)
        inner = random_germ(rng, anchors, l, terms=8, d_target=0.4)
        outer = random_germ(rng, anchors, n, terms=8, sup_target=0.3)
        d_outer = random_germ(rng, anchors, n, terms=6, sup_target=0.1)
        d_inner = random_germ(rng, anchors, l, terms=6, d_target=0.05)
        exact = compose_derivative(outer, inner, d_outer, d_inner)
        plus = compose(outer + h * d_outer, inner + h * d_inner)
        minus = compose(outer + (-h) * d_outer, inner + (-h) * d_inner)
        approx = (1.0 / (2.0 * h)) * (plus + (-1.0) * minus)
        scale = max(1.0, max(float(np.abs(c).max()) for c in exact.coeffs))
        diff = exact + (-1.0) * approx
        worst = max(
            worst, max(float(np.abs(c).max()) for c in diff.coeffs) / scale
        )
    return _result(
        6, "composition-derivative", worst <= 1e-6,
        f"max relative gap {worst:.3g} against central differences",
    )


def criterion_series_bound_suite(seed: int) -> CriterionResult:
    """Zero false verdicts on the 50-family corpus; exact monomial recovery."""
    false_verdicts = 0
    routes = {"majorants": 0, "probed": 0, "mixed": 0}
    for case in catalog.estimate_corpus():
        report = verify_bounded_series(list(case.family), case.r, seed=seed)
        routes[report.route] += 1
        if not report.verdict:
            false_verdicts += 1
    worst_coeff = 0.0
    for dim in (1, 2, 3):
        for k in (0, 1, 3, 5, 8):
            c = 0.7 - 0.2j
            alpha = tuple([k] + [0] * (dim - 1))
            sample = sample_from_polynomial(
                {alpha: np.full(dim, c)}, np.zeros(dim), 1.0, degree=8
            )
            v = np.zeros(dim)
            v[0] = 1.0
            got = cauchy_directional_coefficient(sample, v, 0.5, k)
            worst_coeff = max(worst_coeff, float(np.abs(got - c).max()))
            if k >= 1:
                off = cauchy_directional_coefficient(sample, v, 0.5, k - 1)
                worst_coeff = max(worst_coeff, float(np.abs(off).max()))
    passed = false_verdicts == 0 and worst_coeff <= 1e-12
    return _result(
        7, "series-bound-suite", passed,
        f"{false_verdicts} false verdicts over 50 families "
        f"(routes {routes['majorants']}/{routes['probed']}/{routes['mixed']}), "
        f"monomial recovery gap {worst_coeff:.3g}",
    )


def criterion_certificate_hammer(seed: int) -> CriterionResult:
    """All 20 registry maps: 10^4 samples inside the certificate, margin > 0."""
    bad = []
    for case in catalog.map_registry():
        f, out_norm, scale, cert = case.bundle()
        report = verify_certificate(f, out_norm, cert, scale, samples=10_000, seed=seed)
        if not (report["verdict"] and report["margin"] > 0.0):
            bad.append(case.name)
    passed = not bad
    return _result(
        8, "certificate-hammer", passed,
        f"{20 - len(bad)}/20 maps passed 10^4-sample runs, budget 60 s",
    )


def criterion_regularity_moduli(seed: int) -> CriterionResult:
    """Constant and cutoff against oracles; adversarial single-frequency sweep."""
    from .limits import GERM_CONSTANT

    d_ok = abs(GERM_CONSTANT - 10.6489403) < 5e-8
    mod = dirichlet_regularity_modulus(1, 0.1, 10)
    lo40, hi40 = zeta2_tail_bracket(40)
    lo39, hi39 = zeta2_tail_bracket(39)
    cutoff_ok = mod.cutoff == 40 and hi40 < 0.025 < lo39
    sweep_bad = 0
    t, u, s = mod.target, mod.control, mod.source
    for nu in range(1, 10_001):
        size = min(2.0 * float(nu) ** s, mod.delta * float(nu) ** u) * (1.0 - 1e-9)
        mats = np.full((1, 1, 1), size / 2.0, dtype=np.complex128)
        gamma = DirichletSeries(np.array([nu], dtype=np.int64), mats, dim=1)
        try:
            report = check_dirichlet_regularity(mod, gamma)
            if not report["verdict"]:
                sweep_bad += 1
        except InternalCheckError:
            sweep_bad += 1
    passed = d_ok and cutoff_ok and sweep_bad == 0
    return _result(
        9, "regularity-moduli", passed,
        f"constant within {abs(GERM_CONSTANT - 10.6489403):.2g} of 10.6489403, "
        f"cutoff 40 bracketed by [{lo40:.6f}, {hi39:.6f}], "
        f"{sweep_bad} sweep counterexamples over 10^4 frequencies",
    )


def criterion_norm_comparison_hook(seed: int) -> CriterionResult:
    """Every germ construction runs the sup <= (1/n) d comparison hook."""
    start = norm_check_stats["checked"]
    rng = generator(seed)
    worst = 0.0
    built = 0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        g = random_germ(rng, AnchorSet.origin(dim), n, terms=10)
        sup, dval = norms_at_index(g, n)
        worst = max(worst, sup - dval / n)
        built += 1
    ran = norm_check_stats["checked"] - start
    passed = ran >= built and worst <= 1e-12
    return _result(
        10, "norm-comparison-hook", passed,
        f"hook ran {ran} times for {built} constructions here, max excess {worst:.3g}",
    )


CRITERIA = (
    criterion_bch_matrix_oracle,
    criterion_exp_homomorphism,
    criterion_bracket_axioms,
    criterion_bonding_contraction,
    criterion_germ_inversion,
    criterion_composition_derivative,
    criterion_series_bound_suite,
    criterion_certificate_hammer,
    criterion_regularity_moduli,
    criterion_norm_comparison_hook,
)


def run_all(seed: int = 0) -> list:
    """Run the ten criteria in order with per-criterion derived seeds."""
    seeds = spawn(seed, len(CRITERIA))
    results = []
    for fn, sub in zip(CRITERIA, seeds):
        sub_seed = int(sub.integers(0, 2**63 - 1))
        results.append(fn(sub_seed))
    return results
