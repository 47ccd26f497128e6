"""Coefficient extraction by contour quadrature and the bounded-series verdict."""

import dataclasses
import math

import numpy as np
import pytest
from loop_references import random_germ_of_degree, reference_cauchy_coefficient, same_bits

from lbcalc.errors import DomainError, ValidationError
from lbcalc.estimates import (
    AnalyticSample,
    cauchy_directional_coefficient,
    polarization_factor,
    sample_from_germ,
    sample_from_polynomial,
    verify_bounded_series,
)
from lbcalc.germs import AnchorSet, Germ
from lbcalc.sampling import generator, random_germ
from lbcalc.series import space


def scalar_sample(terms, radius=1.0, degree=8):
    return sample_from_polynomial(
        {(k,): np.array([c]) for k, c in terms.items()}, [0.0], radius, degree=degree
    )


# -- directional coefficients ------------------------------------------------


def test_cubic_coefficient_is_exact_for_small_quadratures():
    smp = scalar_sample({3: 1.0}, radius=1.0)
    # five nodes already suffice: aliasing needs degree k + 5
    coef = cauchy_directional_coefficient(smp, [1.0], 0.5, 3, quadrature=5)
    assert abs(coef[0] - 1.0) < 1e-14


def test_order_zero_recovers_the_value_at_the_center():
    smp = scalar_sample({0: 0.7, 2: -0.3})
    coef = cauchy_directional_coefficient(smp, [1.0], 0.5, 0)
    assert abs(coef[0] - 0.7) < 1e-14


def test_geometric_series_coefficient():
    # 1/(1 - x) on the 0.9 ball: every directional coefficient equals one
    smp = AnalyticSample(lambda p: 1.0 / (1.0 - p), np.zeros(1), 0.9, 10.0)
    coef = cauchy_directional_coefficient(smp, [1.0], 0.5, 5)
    assert abs(coef[0] - 1.0) < 1e-10


def test_complex_monomial_recovery():
    c = 0.7 - 0.2j
    smp = scalar_sample({2: c})
    coef = cauchy_directional_coefficient(smp, [1.0], 0.6, 2)
    assert abs(coef[0] - c) < 1e-12


def _per_node_coefficient(sample, v, s, k, quadrature):
    """The quadrature with its weight exp(-i k theta) taken node by node."""
    v = np.asarray(v, dtype=np.complex128)
    angles = 2.0 * math.pi * np.arange(quadrature) / quadrature
    nodes = s * np.exp(1j * angles)
    acc = np.zeros(sample.dim, dtype=np.complex128)
    for z, theta in zip(nodes, angles):
        acc += sample(sample.center + z * v) * np.exp(-1j * k * theta)
    return acc / (quadrature * s**k)


@pytest.mark.parametrize("quadrature", [5, 32, 256])
def test_weights_taken_once_per_call_match_the_per_node_loop(quadrature):
    rng = generator(8)
    terms = {(1, 0): [0.5, 0.1j], (2, 1): [0.2 - 0.3j, 0.7], (0, 3): [0.1, -0.4]}
    smp = sample_from_polynomial(terms, [0.1, -0.2j], 1.0, degree=6)
    v = np.exp(2j * math.pi * rng.random(2))
    for k in range(9):
        got = cauchy_directional_coefficient(smp, v, 0.9, k, quadrature)
        assert got.tobytes() == _per_node_coefficient(smp, v, 0.9, k, quadrature).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("quadrature", [4, 32, 256])
def test_node_block_matches_the_node_by_node_sum(dim, quadrature):
    # the nodes formed as one block, the weights applied as one block and the
    # terms added by np.add.accumulate after a zero row: the loop's bits
    rng = generator(20 + dim)
    center = 0.5 + 0.25j * np.arange(dim)
    g = random_germ(rng, AnchorSet([center]), 2, terms=12)
    terms = {alpha: rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
             for alpha in space(dim, 8).alphas if rng.random() < 0.3}
    samples = [
        sample_from_germ(g),
        sample_from_polynomial(terms, center, 1.0, degree=8),
        AnalyticSample(lambda p: np.sin(p) + p[::-1] ** 2, center, 1.0, 10.0),
        # -0.0 terms, which only the leading zero row turns into +0.0
        AnalyticSample(lambda p: np.full(p.size, complex(-0.0, -0.0)), center, 1.0, 0.0),
    ]
    directions = [np.eye(dim, dtype=np.complex128)[-1], np.exp(2j * math.pi * rng.random(dim))]
    for smp in samples:
        s = 0.9 * smp.radius
        for v in directions:
            for k in range(9):
                got = cauchy_directional_coefficient(smp, v, s, k, quadrature)
                assert same_bits(got, reference_cauchy_coefficient(smp, v, s, k, quadrature))


def test_a_sample_hands_the_node_to_its_evaluator_as_given():
    # the series evaluator converts the node; the sample does not convert it first
    seen = []
    smp = AnalyticSample(lambda p: seen.append(p) or p, np.zeros(2), 1.0, 1.0)
    node = np.array([0.1 + 0.2j, -0.3j])
    assert same_bits(smp(node), node)
    assert len(seen) == 1 and seen[0] is node


# -- polarization -------------------------------------------------------------


def test_a_sup_bound_that_overflows_is_refused():
    # radius^2 leaves the float range, so no finite sup bound exists
    with pytest.raises(ValidationError, match="sup bound must be finite"):
        sample_from_polynomial({(1,): [1.0]}, [0.0], 1e308)


def test_polarization_values_at_small_degrees():
    assert polarization_factor(0) == 1.0
    assert polarization_factor(1) == 2.0
    assert polarization_factor(2) == 8.0


def test_polarization_bound_is_a_true_ceiling():
    # (2k)^k / k! <= (2e)^k, checked across the supported range
    assert 8.0 <= (2 * math.e) ** 2
    for k in range(13):
        assert polarization_factor(k) <= (2.0 * math.e) ** k * (1.0 + 1e-12)


def test_polarization_rejects_negative_degrees():
    with pytest.raises(ValidationError):
        polarization_factor(-1)


# -- the two-route verdict ------------------------------------------------------


def test_zero_family_verdict_is_true_with_zero_left_side():
    report = verify_bounded_series([scalar_sample({1: 0.0})], 0.1)
    assert report.lhs == 0.0
    assert report.verdict is True


def test_identity_map_frozen_sides():
    report = verify_bounded_series([scalar_sample({1: 1.0})], 0.1)
    assert report.lhs == pytest.approx(0.1, abs=1e-15)
    want_rhs = 1.0 / (1.0 - 0.2 * math.e)
    assert report.rhs == pytest.approx(want_rhs, rel=1e-14)
    assert round(report.rhs, 4) == 2.1913
    assert report.verdict is True
    assert report.route == "majorants"


def test_singleton_family_reduces_to_the_one_map_bound():
    # one map, one center: the family bound degenerates to the plain
    # single-function statement
    smp = scalar_sample({2: 0.4, 3: 0.1}, radius=0.8)
    report = verify_bounded_series([smp], 0.05)
    lhs_oracle = 0.4 * 0.05**2 + 0.1 * 0.05**3
    assert report.lhs == pytest.approx(lhs_oracle, rel=1e-13)
    assert report.rhs == pytest.approx(
        0.8 / (0.8 - 2 * math.e * 0.05) * smp.sup_bound, rel=1e-13
    )
    assert report.verdict is True



def test_a_false_bound_below_the_old_slack_is_refused():
    # f(x) = 1e-10 x claims sup 0: lhs = 5e-13 > rhs = 0, a false bound that
    # an absolute slack of 1e-12 used to accept
    smp = AnalyticSample(
        lambda p: 1e-10 * p, np.zeros(1), 1.0, 0.0, majorants=(0.0, 1e-10) + (0.0,) * 7
    )
    report = verify_bounded_series([smp], 0.005)
    assert (report.lhs, report.rhs) == (5e-13, 0.0)
    assert report.verdict is False


@pytest.mark.parametrize("rel, verdict", [(1e-14, False), (-1e-14, True)])
def test_verdict_is_exact_next_to_the_right_side(rel, verdict):
    # lhs = 0.1 b sits a relative 1e-14 above or below R/(R - 2er) * sup
    rhs = 1.0 / (1.0 - 0.2 * math.e)
    smp = AnalyticSample(
        lambda p: p, np.zeros(1), 1.0, 1.0, majorants=(0.0, rhs * (1.0 + rel) / 0.1)
    )
    report = verify_bounded_series([smp], 0.1, degree=1)
    assert report.verdict is verdict

def test_probed_route_reproduces_stored_majorants_up_to_polarization():
    terms = {1: 0.3, 2: 0.2}
    stored = scalar_sample(terms, radius=1.0, degree=4)
    blind = AnalyticSample(
        stored.evaluator, stored.center, stored.radius, stored.sup_bound, majorants=None
    )
    with_stored = verify_bounded_series([stored], 0.1, degree=4)
    probed = verify_bounded_series([blind], 0.1, degree=4, seed=3)
    assert with_stored.route == "majorants"
    assert probed.route == "probed"
    # probing pays the polarization factor but never undershoots the truth
    assert probed.lhs >= with_stored.lhs * (1.0 - 1e-12)
    assert probed.verdict is True


def test_mixed_families_report_the_mixed_route():
    stored = scalar_sample({2: 0.1})
    blind = AnalyticSample(stored.evaluator, stored.center, stored.radius, stored.sup_bound)
    report = verify_bounded_series([stored, blind], 0.05)
    assert report.route == "mixed"


def test_inner_radius_gate_quotes_the_threshold():
    with pytest.raises(DomainError, match=r"R/\(2e\)"):
        verify_bounded_series([scalar_sample({1: 1.0})], 0.2)


def test_probe_circle_must_sit_inside_the_ball():
    with pytest.raises(DomainError, match="probe radius"):
        verify_bounded_series([scalar_sample({1: 1.0})], 0.1, s=1.5)


def test_family_must_share_one_radius():
    with pytest.raises(ValidationError, match="share one radius"):
        verify_bounded_series([scalar_sample({1: 1.0}), scalar_sample({1: 1.0}, radius=0.5)], 0.05)


def test_empty_families_are_rejected():
    with pytest.raises(ValidationError, match="at least one sample"):
        verify_bounded_series([], 0.1)


def test_degrees_below_one_are_refused():
    # the bound fails at degrees 1 and 8; with no degree at all, the left
    # side is an empty sum that used to certify it
    smp = AnalyticSample(lambda x: x, [0.0], 1.0, 1e-3, majorants=(0.0, 1.0, 1.0))
    for degree in (8, 1):
        assert verify_bounded_series([smp], 0.1, degree=degree).verdict is False
    for degree in (0, -1, 2.0, True):
        with pytest.raises(ValidationError, match="truncation degree"):
            verify_bounded_series([smp], 0.1, degree=degree)


@pytest.mark.parametrize("quadrature", [3, 0, 16.0, None])
def test_bad_quadrature_sizes_are_refused_on_entry(quadrature):
    blind = AnalyticSample(lambda x: x, [0.0], 1.0, 1.0)
    with pytest.raises(ValidationError, match="quadrature size"):
        verify_bounded_series([blind], 0.1, degree=2, quadrature=quadrature)
    with pytest.raises(ValidationError, match="quadrature size"):
        cauchy_directional_coefficient(blind, [1.0], 0.5, 1, quadrature)


# -- wrappers --------------------------------------------------------------------


def test_polynomial_sup_bound_is_the_coefficient_sum():
    smp = scalar_sample({1: 0.5, 3: 0.25}, radius=2.0)
    assert smp.sup_bound == pytest.approx(0.5 * 2.0 + 0.25 * 8.0, rel=1e-15)
    assert smp.majorants[1] == 0.5
    assert smp.majorants[3] == 0.25


def test_germ_wrapper_uses_the_index_radius():
    g = Germ.from_terms(AnchorSet.origin(1), 4, [{(2,): [0.8]}])
    smp = sample_from_germ(g)
    assert smp.radius == 0.25
    assert smp.sup_bound == pytest.approx(0.8 * 0.25**2, rel=1e-15)
    # the evaluator is the actual truncated series
    assert abs(smp([0.1])[0] - 0.8 * 0.01) < 1e-16


def _loop_majorants(cols, degree, radius, first):
    """Majorants and sup bound by the per-degree loop, the sup summed from degree `first`."""
    sp = space(cols.shape[0], degree)
    coeff_norm = np.abs(cols).max(axis=0)
    majorants = [float(coeff_norm[0]) if first == 0 else 0.0]
    majorants += [float(coeff_norm[sp.packed[sp.starts[k]:sp.starts[k + 1]]].sum()) for k in range(1, degree + 1)]
    sup = 0.0
    for k in range(first, degree + 1):
        sup += majorants[k] * radius**k
    return tuple(majorants), sup


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 6), (3, 8)])
def test_wrappers_match_the_per_degree_loop(dim, degree):
    # (3, 8) has degrees with eight or more monomials, summed pairwise by numpy
    rng = generator(5)
    sp = space(dim, degree)
    for _ in range(10):
        terms = {
            alpha: rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            for alpha in sp.alphas
            if rng.random() < 0.5
        }
        smp = sample_from_polynomial(terms, np.zeros(dim), 0.7, degree=degree)
        want = _loop_majorants(sp.from_terms(terms, dim), degree, 0.7, first=0)
        assert (smp.majorants, smp.sup_bound) == want
        g = random_germ_of_degree(rng, AnchorSet.origin(dim), 3, degree, 12)
        smp = sample_from_germ(g)
        want = _loop_majorants(g.coeffs[0], degree, 1.0 / 3, first=1)
        assert (smp.majorants, smp.sup_bound) == want


def test_sample_validation():
    with pytest.raises(ValidationError):
        AnalyticSample(lambda p: p, np.zeros(1), -1.0, 1.0)
    with pytest.raises(ValidationError):
        AnalyticSample(lambda p: p, np.zeros(1), 1.0, -0.5)
    with pytest.raises(ValidationError):
        AnalyticSample(lambda p: p, np.zeros(1), 1.0, 1.0, majorants=(-0.1,))


def test_a_nan_probed_coefficient_is_refused():
    # max(best, nan) keeps best, so a NaN evaluator probed to beta_k = 0
    sample = AnalyticSample(lambda p: np.array([np.nan]), np.zeros(1), 1.0, 1.0)
    with pytest.raises(DomainError, match="nan"):
        verify_bounded_series([sample], 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_majorant_is_refused(bad):
    # nan < 0 is false, so a NaN majorant passed the sign check; an infinite
    # one stopped the exact verdict with an OverflowError
    with pytest.raises(ValidationError, match=str(bad)):
        AnalyticSample(lambda p: p, np.zeros(1), 1.0, 1.0, majorants=(0.0, bad))


@pytest.mark.parametrize("dim, degree, quadrature", [(1, 8, 32), (2, 3, 8), (3, 2, 4)])
def test_a_probe_calls_the_sample_once_per_node(monkeypatch, dim, degree, quadrature):
    # 3d directions, D + 1 degrees and Q nodes each: 3d (D + 1) Q calls
    g = random_germ(generator(dim), AnchorSet.origin(dim), 2, terms=6, d_target=0.3)
    blind = dataclasses.replace(sample_from_germ(g), majorants=None)
    calls = []
    original = AnalyticSample.__call__

    def counted(self, point):
        calls.append(1)
        return original(self, point)

    monkeypatch.setattr(AnalyticSample, "__call__", counted)
    report = verify_bounded_series([blind], 0.5 * blind.radius / (2.0 * math.e), degree=degree,
                                   quadrature=quadrature)
    assert report.route == "probed"
    assert len(calls) == 3 * dim * (degree + 1) * quadrature
