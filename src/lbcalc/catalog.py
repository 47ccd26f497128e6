"""Named demo inputs used by the batch suite and the command line.

Two collections live here.  estimate_corpus builds fifty small analytic
families with certified sup bounds for the series-bound verifier, spread
over stored-majorant, probed and mixed routes.  map_registry builds twenty
polynomial maps on three-step limits, each with a provable per-step sup
bound on the unit ball, so a continuity certificate can be constructed and
hammered with random decompositions.

Everything is deterministic: each entry draws from its own fixed-seed
generator, so two processes always see identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import bracket, norm_s
from .estimates import AnalyticSample, sample_from_germ, sample_from_polynomial
from .errors import ConfigurationError
from .germs import AnchorSet, Germ, norms_at_index
from .limits import (
    DirichletSteps,
    GermSteps,
    MatrixSteps,
    build_certificate,
)
from .matrices import compatible_norm
from .sampling import generator, random_germ, random_matrix, random_series
from .series import space


# -- estimate corpus ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    name: str
    family: tuple
    r: float


def _random_terms(rng, dim: int, degree: int, count: int, scale: float) -> dict:
    terms = {}
    for _ in range(count):
        total = int(rng.integers(0, degree + 1))
        alpha = [0] * dim
        for _ in range(total):
            alpha[int(rng.integers(0, dim))] += 1
        vec = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * scale
        terms[tuple(alpha)] = vec
    return terms


def _strip_majorants(sample: AnalyticSample) -> AnalyticSample:
    return replace(sample, majorants=None)


def _entire_sample(dim: int, radius: float, c: complex) -> AnalyticSample:
    # f(x) = c (exp(x_1 + ... + x_d) - 1), entire; on the closed ball of
    # radius R in the max norm, |f| <= |c| (e^(dR) - 1)
    def evaluator(point):
        return np.array([c * (np.exp(np.sum(point)) - 1.0)], dtype=np.complex128)

    return AnalyticSample(
        evaluator=evaluator,
        center=np.zeros(dim, dtype=np.complex128),
        radius=radius,
        sup_bound=abs(c) * (math.exp(dim * radius) - 1.0),
        majorants=None,
    )


def estimate_corpus() -> list:
    """Fifty families with certified sup bounds, all honest inputs."""
    cases = []
    shrink = 1.0 / (2.0 * math.e)

    # 18 polynomial families with stored degree majorants
    for i in range(18):
        rng = generator(3000 + i)
        dim = 1 + i % 3
        degree = 4 + i % 5
        members = []
        for j in range(1 + i % 3):
            center = np.zeros(dim)
            if j == 1:
                center = np.full(dim, 0.1)
            elif j == 2:
                center = np.full(dim, -0.1)
            terms = _random_terms(rng, dim, degree, 5 + int(rng.integers(0, 4)), 0.5)
            members.append(sample_from_polynomial(terms, center, 1.0, degree=degree))
        cases.append(
            CorpusCase(f"poly-majorant-{i:02d}", tuple(members), shrink * (0.2 + 0.02 * i))
        )

    # 16 of the same shape with majorants withheld, forcing the probed route
    for i in range(16):
        rng = generator(3100 + i)
        dim = 1 + i % 3
        terms = _random_terms(rng, dim, 6, 6, 0.4)
        base = sample_from_polynomial(terms, np.zeros(dim), 1.0, degree=6)
        family = [_strip_majorants(base)]
        if i % 2 == 1:
            extra = sample_from_polynomial(_random_terms(rng, dim, 6, 4, 0.3), np.zeros(dim), 1.0, degree=6)
            family.append(extra)  # mixed route: one stored, one probed
        cases.append(CorpusCase(f"poly-probed-{i:02d}", tuple(family), shrink * 0.3))

    # 8 germ-backed families
    for i in range(8):
        rng = generator(3200 + i)
        dim = 1 + i % 2
        g = random_germ(rng, AnchorSet.origin(dim), 1, terms=8, sup_target=0.5)
        sample = sample_from_germ(g)
        if i % 2 == 0:
            sample = _strip_majorants(sample)
        cases.append(CorpusCase(f"germ-{i:02d}", (sample,), 0.05))

    # 8 entire non-polynomial functions with closed-form sup bounds
    for i in range(8):
        dim = 1 + i % 2
        c = (0.3 + 0.05 * i) * np.exp(1j * 0.7 * i)
        sample = _entire_sample(dim, 0.8, c)
        cases.append(CorpusCase(f"entire-{i:02d}", (sample,), 0.1))

    if len(cases) != 50:
        raise ConfigurationError(f"corpus size drifted to {len(cases)}")
    return cases


# -- polynomial maps on three-step limits ------------------------------------


@dataclass(frozen=True)
class MapCase:
    name: str
    kind: str
    radius: float
    r: float
    epsilon: float
    setup: object  # () -> (f, out_norm, scale, sup_on_ball)

    def bundle(self):
        """(f, out_norm, scale, certificate) from one call of setup."""
        f, out_norm, scale, sup = self.setup()
        factor = self.radius / (self.radius - 2.0 * math.e * self.r)
        sups = [factor * sup] * 3
        return f, out_norm, scale, build_certificate(sups, self.radius, self.r, self.epsilon)


def _germ_product(g: Germ, h: Germ) -> Germ:
    """Truncated pointwise product of two one-dimensional germs.

    Coefficient majorants multiply, so on any shared ball the product's sup
    majorant is at most the product of the factors' majorants.
    """
    if g.dim != 1 or h.dim != 1:
        raise ConfigurationError("the demo product map is one-dimensional")
    sp = space(1, g.degree)
    blocks = [sp.mul(a[0], b[0])[np.newaxis] for a, b in zip(g.coeffs, h.coeffs)]
    return Germ(g.anchors, max(g.index, h.index), blocks, g.degree)


def _matrix_case(name, dim, seed, form, sup_of):
    def setup():
        rng = generator(seed)
        a = random_matrix(rng, dim, target=1.0)
        f = form(a)
        return f, compatible_norm, MatrixSteps(dim), sup_of(1.0)

    return MapCase(name, "matrix", radius=1.0, r=0.05, epsilon=0.01, setup=setup)


def _dirichlet_case(name, seed, form, sup_of):
    def setup():
        rng = generator(seed)
        g0 = random_series(rng, 2, (2, 3, 5, 7), 3, s=3.0, target=1.0)
        g1 = random_series(rng, 2, (2, 3, 4, 9), 3, s=3.0, target=1.0)
        f = form(g0, g1)
        return f, (lambda g: norm_s(g, 3.0)), DirichletSteps(2), sup_of(1.0, 1.0)

    return MapCase(name, "dirichlet", radius=1.0, r=0.05, epsilon=0.02, setup=setup)


def _germ_case(name, seed, form, sup_of):
    def setup():
        rng = generator(seed)
        g0 = random_germ(rng, AnchorSet.origin(1), 3, terms=6, sup_target=1.0)
        f = form(g0)
        out = lambda g: norms_at_index(g, 3)[0]
        return f, out, GermSteps(AnchorSet.origin(1)), sup_of(1.0)

    return MapCase(name, "germ", radius=1.0, r=0.05, epsilon=0.02, setup=setup)


def map_registry() -> list:
    """Twenty polynomial maps with provable per-step sup bounds at radius 1.

    The compatible matrix norm satisfies ||xy|| <= ||x|| ||y|| / 2, the
    half-plane norms are bracket-submultiplicative, and germ majorants
    multiply under the truncated product, so every stated bound is a
    theorem, not a measurement.
    """
    cases = []
    matrix_forms = [
        ("square", lambda a: (lambda x: x @ x), lambda R: R * R / 2.0),
        ("cube", lambda a: (lambda x: x @ x @ x), lambda R: R**3 / 4.0),
        ("commutator", lambda a: (lambda x: a @ x - x @ a), lambda R: R),
        (
            "comm-square",
            lambda a: (lambda x: a @ (x @ x) - (x @ x) @ a),
            lambda R: R * R / 2.0,
        ),
        (
            "quad-mix",
            lambda a: (lambda x: x @ x - 0.5 * (a @ x - x @ a)),
            lambda R: R * R / 2.0 + 0.5 * R,
        ),
        ("sandwich", lambda a: (lambda x: a @ x @ a), lambda R: R / 4.0),
    ]
    for k, (tag, form, sup_of) in enumerate(matrix_forms):
        cases.append(_matrix_case(f"matrix2-{tag}", 2, 4000 + k, form, sup_of))
    for k, (tag, form, sup_of) in enumerate(matrix_forms):
        cases.append(_matrix_case(f"matrix3-{tag}", 3, 4100 + k, form, sup_of))

    dirichlet_forms = [
        ("ad", lambda g0, g1: (lambda g: bracket(g0, g)), lambda n0, n1: n0),
        (
            "ad-squared",
            lambda g0, g1: (lambda g: bracket(g1, bracket(g1, g))),
            lambda n0, n1: n1 * n1,
        ),
        (
            "ad-mix",
            lambda g0, g1: (lambda g: bracket(g0, g) + 0.5 * bracket(g1, bracket(g1, g))),
            lambda n0, n1: n0 + 0.5 * n1 * n1,
        ),
        (
            "shift-ad",
            lambda g0, g1: (lambda g: 2.0 * g + bracket(g0, g)),
            lambda n0, n1: 2.0 + n0,
        ),
    ]
    for k, (tag, form, sup_of) in enumerate(dirichlet_forms):
        cases.append(_dirichlet_case(f"dirichlet-{tag}", 4200 + k, form, sup_of))

    germ_forms = [
        ("square", lambda g0: (lambda g: _germ_product(g, g)), lambda R: R * R),
        (
            "cube",
            lambda g0: (lambda g: _germ_product(_germ_product(g, g), g)),
            lambda R: R**3,
        ),
        (
            "affine",
            lambda g0: (lambda g: _germ_product(g0, g) + 0.5 * g),
            lambda R: R + 0.5 * R,
        ),
        (
            "quad-mix",
            lambda g0: (lambda g: _germ_product(g, g) + _germ_product(g0, g)),
            lambda R: R * R + R,
        ),
    ]
    for k, (tag, form, sup_of) in enumerate(germ_forms):
        cases.append(_germ_case(f"germ-{tag}", 4300 + k, form, sup_of))

    if len(cases) != 20:
        raise ConfigurationError(f"map registry size drifted to {len(cases)}")
    return cases


def get_map(name: str) -> MapCase:
    for case in map_registry():
        if case.name == name:
            return case
    known = ", ".join(c.name for c in map_registry())
    raise ConfigurationError(f"unknown map {name!r}; known maps: {known}")
