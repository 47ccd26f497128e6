"""Anchored germ families: norms, composition, inversion, derivative growth.

Independent oracles used below: plain convolution for the scalar
composition, central finite differences for the directional derivative,
exact-fraction series reversion and a matrix inverse for the two inversion
examples.  The one-pass inversion and the substitutions under composition
are also checked bit for bit against the loops they replaced
(`loop_references`).
"""

import math

import numpy as np
import pytest
from loop_references import (
    chart_components,
    reference_compose_derivative_blocks,
    reference_inverse_blocks,
    reference_substitute,
    same_bits,
)

from lbcalc.acceptance import lagrange_reversion
from lbcalc.errors import DomainError, InternalCheckError, ValidationError
from lbcalc.germs import (
    AnchorSet,
    Germ,
    compose,
    compose_derivative,
    d_norm,
    degree_majorants,
    derivative_bound,
    evaluate_germ,
    germ_from_json,
    germ_to_json,
    invert,
    norm_check_stats,
    norms_at_index,
    residual,
    sum_germs,
    sup_norm,
    with_index,
    zero_germ,
)
from lbcalc.sampling import generator, random_germ
from lbcalc.series import space

ORIGIN1 = AnchorSet.origin(1)
ORIGIN2 = AnchorSet.origin(2)


def scalar_germ(index, terms):
    return Germ.from_terms(ORIGIN1, index, [{(k,): [c] for k, c in terms.items()}])


# -- construction gates ---------------------------------------------------------


def test_constant_terms_are_rejected():
    with pytest.raises(ValidationError, match="vanish at their anchors"):
        Germ.from_terms(ORIGIN1, 2, [{(0,): [1.0]}])


def test_anchor_balls_must_be_disjoint():
    pair = AnchorSet([[0.0], [0.5]])
    with pytest.raises(DomainError, match="not disjoint"):
        Germ.from_terms(pair, 2, [{(1,): [0.1]}, {(1,): [0.1]}])
    # at index 5 the balls of radius 1/5 fit
    g = Germ.from_terms(pair, 5, [{(1,): [0.1]}, {(1,): [0.1]}])
    assert g.index == 5


def test_coinciding_anchors_are_rejected():
    with pytest.raises(ValidationError, match="coincide"):
        AnchorSet([[0.0, 0.0], [0.0, 0.0]])


def test_every_construction_runs_the_norm_hook():
    before = norm_check_stats["checked"]
    scalar_germ(3, {2: 0.25})
    zero_germ(ORIGIN2, 1)
    assert norm_check_stats["checked"] == before + 2


# -- majorant norms --------------------------------------------------------------


def test_zero_germ_has_zero_norms():
    z = zero_germ(ORIGIN2, 4)
    assert sup_norm(z) == 0.0
    assert d_norm(z) == 0.0


def test_single_monomial_sup_is_the_scaled_coefficient():
    g = scalar_germ(2, {3: 0.6})
    assert sup_norm(g) == 0.6 * 2.0**-3


def test_square_at_index_two():
    g = scalar_germ(2, {2: 1.0})
    assert sup_norm(g) == 0.25
    assert d_norm(g) == 1.0  # 2 h_2 (1/2)


def test_linear_germ_derivative_majorant():
    A = np.array([[0.3, 0.1], [0.05, 0.2]])
    g = Germ.from_terms(ORIGIN2, 4, [{(1, 0): A[:, 0], (0, 1): A[:, 1]}])
    # degree-one majorant: sum over variables of the largest component
    want = float(np.abs(A).max(axis=0).sum())
    assert d_norm(g) == want
    assert degree_majorants(g)[1] == want


def test_sup_majorant_shrinks_with_the_index():
    rng = generator(13)
    for _ in range(50):
        g = random_germ(rng, ORIGIN2, int(rng.integers(1, 4)))
        n = g.index
        sup_n, d_n = norms_at_index(g, n)
        assert sup_n <= (1.0 / n) * d_n * (1.0 + 1e-12)
        finer = n + int(rng.integers(1, 10))
        assert norms_at_index(g, finer)[0] <= sup_n * (1.0 + 1e-12)


def test_restriction_moves_to_a_finer_index():
    g = scalar_germ(2, {2: 1.0})
    fine = with_index(g, 8)
    assert fine.index == 8
    assert sup_norm(fine) == 1.0 / 64.0
    with pytest.raises(DomainError):
        with_index(g, 1)


# -- composition ------------------------------------------------------------------


def test_composing_zero_with_a_germ_returns_it():
    inner = scalar_germ(6, {2: 1.0})
    out = compose(zero_germ(ORIGIN1, 2), inner)
    assert out.index == inner.index
    assert out.terms() == {(2,): pytest.approx([1.0])}


def test_composing_with_the_zero_germ_restricts():
    outer = scalar_germ(2, {2: 1.0})
    out = compose(outer, zero_germ(ORIGIN1, 6))
    assert out.index == 6
    assert out.terms() == {(2,): pytest.approx([1.0])}


def test_scalar_square_composed_with_itself():
    outer = scalar_germ(2, {2: 1.0})
    inner = scalar_germ(6, {2: 1.0})
    got = compose(outer, inner)
    # convolution oracle for (x + x^2)^2 + x^2
    chart = np.array([0.0, 1.0, 1.0])
    opoly = np.convolve(chart, chart)
    opoly[2] += 1.0
    terms = got.terms()
    for k in range(2, 5):
        assert terms[(k,)][0] == pytest.approx(opoly[k], abs=1e-15)
    assert set(terms) == {(2,), (3,), (4,)}


def test_containment_gate_blocks_coarse_inner_germs():
    outer = scalar_germ(2, {2: 1.0})
    inner = scalar_germ(2, {2: 1.0})
    with pytest.raises(DomainError, match="containment check failed"):
        compose(outer, inner)


def test_linear_directional_derivative_formula():
    A = np.array([[0.2, 0.0], [0.1, 0.1]])
    B = np.array([[0.05, 0.02], [0.0, 0.04]])
    Ah = np.array([[0.3, -0.1], [0.0, 0.2]])
    Bh = np.array([[0.0, 0.15], [0.05, -0.1]])

    def linear(M, index):
        return Germ.from_terms(ORIGIN2, index, [{(1, 0): M[:, 0], (0, 1): M[:, 1]}])

    got = compose_derivative(linear(A, 2), linear(B, 6), linear(Ah, 2), linear(Bh, 6))
    want = Ah @ (B + np.eye(2)) + A @ Bh + Bh
    terms = got.terms()
    got_matrix = np.stack([terms[(1, 0)], terms[(0, 1)]], axis=1)
    assert np.max(np.abs(got_matrix - want)) < 1e-15
    assert set(terms) == {(1, 0), (0, 1)}


def test_zero_direction_gives_the_zero_derivative():
    g1 = scalar_germ(2, {2: 0.3})
    g2 = scalar_germ(8, {2: 0.1})
    out = compose_derivative(g1, g2, zero_germ(ORIGIN1, 2), zero_germ(ORIGIN1, 8))
    assert sup_norm(out) == 0.0


def test_directional_derivative_against_central_differences():
    g1 = scalar_germ(2, {2: 0.3})
    g2 = scalar_germ(8, {2: 0.1})
    dg1 = scalar_germ(2, {2: 0.2})
    dg2 = scalar_germ(8, {2: -0.15})
    got = compose_derivative(g1, g2, dg1, dg2)
    h = 1e-5
    plus = compose(g1 + h * dg1, g2 + h * dg2)
    minus = compose(g1 + (-h) * dg1, g2 + (-h) * dg2)
    fd = (plus.coeffs[0] - minus.coeffs[0]) / (2.0 * h)
    assert np.max(np.abs(got.coeffs[0] - fd)) < 1e-8


def test_directions_must_match_the_base_indices():
    g1 = scalar_germ(2, {2: 0.3})
    g2 = scalar_germ(8, {2: 0.1})
    with pytest.raises(ValidationError, match="indices of their base"):
        compose_derivative(g1, g2, zero_germ(ORIGIN1, 3), zero_germ(ORIGIN1, 8))


# -- inversion --------------------------------------------------------------------


def test_the_zero_germ_inverts_to_itself():
    out = invert(zero_germ(ORIGIN1, 3))
    assert out.index == 36
    assert sup_norm(out) == 0.0


def test_quadratic_inversion_against_series_reversion():
    g = scalar_germ(1, {2: 0.1})
    h = invert(g)
    assert h.index == 12
    terms = h.terms()
    # exact-fraction oracle for the reversion of x + 0.1 x^2
    oracle = lagrange_reversion([1.0, 0.1], g.degree)
    for k in range(2, g.degree + 1):
        assert terms[(k,)][0] == pytest.approx(float(oracle[k - 1]), abs=1e-12)
    # frozen leading terms
    assert terms[(2,)][0] == pytest.approx(-0.1, abs=1e-14)
    assert terms[(3,)][0] == pytest.approx(0.02, abs=1e-14)
    assert terms[(4,)][0] == pytest.approx(-0.005, abs=1e-14)


def test_linear_inversion_against_the_matrix_oracle():
    A = np.array([[0.2, 0.1], [0.0, -0.15]])
    g = Germ.from_terms(ORIGIN2, 3, [{(1, 0): A[:, 0], (0, 1): A[:, 1]}])
    h = invert(g)
    want = np.linalg.inv(np.eye(2) + A) - np.eye(2)
    terms = h.terms()
    got = np.stack([terms[(1, 0)], terms[(0, 1)]], axis=1)
    assert np.max(np.abs(got - want)) < 1e-14


def test_inversion_residual_vanishes_through_the_degree():
    g = scalar_germ(1, {2: 0.08, 3: -0.05})
    h = invert(g)
    defect = residual(g, h)
    assert max(float(np.abs(c).max()) for c in defect.coeffs) < 1e-10
    assert sup_norm(h) <= 1.0 / 6.0


def test_residual_collapses_on_zero_arguments():
    g = scalar_germ(6, {2: 0.5})
    r = residual(zero_germ(ORIGIN1, 1), g)
    assert r.terms() == {(2,): pytest.approx([0.5])}
    r = residual(scalar_germ(1, {2: 0.5}), zero_germ(ORIGIN1, 6))
    assert r.index == 6
    assert r.terms() == {(2,): pytest.approx([0.5])}



def _family(seed, dim, count, terms, index, d_target):
    anchors = AnchorSet([np.zeros(dim), np.full(dim, 3.0)][:count])
    return random_germ(generator(seed), anchors, index, degree=8, terms=terms, d_target=d_target)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2], ids=["one-anchor", "two-anchors"])
@pytest.mark.parametrize("terms", [5, 1000], ids=["sparse", "dense"])
def test_one_pass_inversion_matches_the_degree_loop(dim, count, terms):
    for seed in range(3):
        g = _family(100 * dim + 10 * count + seed, dim, count, terms, 1 + seed, 0.1 + 0.15 * seed)
        h = invert(g)
        want = reference_inverse_blocks(g)
        assert all(same_bits(got, ref) for got, ref in zip(h.coeffs, want))


def test_one_pass_inversion_of_a_linear_germ_matches_the_degree_loop():
    # only the unit slots are nonzero, so no monomial of degree >= 2 is read
    g = Germ.from_terms(ORIGIN2, 3, [{(1, 0): [0.2, 0.05], (0, 1): [0.1, -0.15]}])
    assert same_bits(invert(g).coeffs[0], reference_inverse_blocks(g)[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("terms", [6, 1000], ids=["sparse", "dense"])
def test_composition_substitutions_match_the_memoised_monomials(dim, terms):
    sp = space(dim, 8)
    for seed in range(3):
        outer = _family(7 * dim + seed, dim, 2, terms, 2, 0.3)
        inner = _family(70 * dim + seed, dim, 2, terms, 12, 0.4)
        for cols1, cols2 in zip(outer.coeffs, inner.coeffs):
            u = chart_components(sp, cols2)
            assert same_bits(sp.substitute(cols1, u), reference_substitute(sp, cols1, u))
            # the d*d-row Jacobian that compose_derivative substitutes
            jac = np.concatenate([sp.differentiate(cols1, j) for j in range(dim)], axis=0)
            assert jac.shape[0] == dim * dim
            assert same_bits(sp.substitute(jac, u), reference_substitute(sp, jac, u))
        comp = compose(outer, inner)
        want = [
            reference_substitute(sp, c1, chart_components(sp, c2)) + c2
            for c1, c2 in zip(outer.coeffs, inner.coeffs)
        ]
        assert all(same_bits(got, ref) for got, ref in zip(comp.coeffs, want))

@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("terms", [3, 1000], ids=["sparse", "dense"])
def test_composition_derivative_matches_the_full_products(dim, terms):
    # the Jacobian term multiplies by each component of dg2 over the pairs
    # where that component is nonzero; sparse directions skip most pairs
    sp = space(dim, 8)
    rng = np.random.default_rng(50 + dim)
    for seed in range(3):
        g1 = _family(11 * dim + seed, dim, 2, 1000, 2, 0.3)
        g2 = _family(110 * dim + seed, dim, 2, 1000, 12, 0.4)
        dg1 = _family(1100 * dim + seed, dim, 2, terms, 2, 0.1)
        dg2 = _family(11000 * dim + seed, dim, 2, terms, 12, 0.05)
        if seed == 2:
            # a zero component, and -0.0 parts on the zero slots of the others
            blocks = np.array(dg2.coeffs)
            blocks[:, 0] = 0.0
            live = np.zeros(sp.size, dtype=bool)
            live[sp.packed[1:]] = True
            spots = (blocks == 0) & live
            signs = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
            blocks[spots] = rng.choice(signs, size=int(spots.sum()))
            dg2 = Germ(dg2.anchors, dg2.index, blocks, dg2.degree)
        got = compose_derivative(g1, g2, dg1, dg2)
        want = reference_compose_derivative_blocks(g1, g2, dg1, dg2)
        assert all(same_bits(block, ref) for block, ref in zip(got.coeffs, want))


def test_inversion_requires_a_small_derivative():
    g = scalar_germ(9, {1: 0.6})
    assert d_norm(g) == 0.6
    with pytest.raises(DomainError, match="inversion needs d_norm"):
        invert(g)


# -- derivative growth -------------------------------------------------------------


def test_derivative_bound_at_order_zero():
    g = scalar_germ(1, {1: 1.0})
    assert sup_norm(g) == 1.0
    assert derivative_bound(g, 0) == 2.0 * sup_norm(g)


def test_derivative_bound_first_order_frozen():
    # index 1 gives the gap radius R = 1/2, so the order-one ceiling is
    # 2 * (4e / R) * sup = 16 e
    g = scalar_germ(1, {1: 1.0})
    got = derivative_bound(g, 1)
    assert got == pytest.approx(16.0 * math.e, rel=1e-15)
    assert got == pytest.approx(43.49250925534472, abs=1e-11)


def test_derivative_bound_of_the_zero_germ():
    z = zero_germ(ORIGIN1, 2)
    for order in range(5):
        assert derivative_bound(z, order) == 0.0


def test_derivative_bound_dominates_sampled_derivatives():
    # compare against a central difference of the actual series on the
    # shrunk ball; the certified constant is far above it
    g = scalar_germ(1, {2: 0.3, 3: 0.2})
    step = 1e-6
    worst = 0.0
    for x in np.linspace(-0.4, 0.4, 9):
        fd = (evaluate_germ(g, 0, [x + step]) - evaluate_germ(g, 0, [x - step])) / (2 * step)
        worst = max(worst, float(np.abs(fd).max()))
    assert worst <= derivative_bound(g, 1)


# -- serialization ------------------------------------------------------------------


def test_germ_json_roundtrip():
    g = Germ.from_terms(
        AnchorSet([[0.0, 0.0], [1.0, 1.0]]),
        3,
        [{(1, 0): [0.1, 0.2j]}, {(0, 2): [0.05, -0.1]}],
    )
    back = germ_from_json(germ_to_json(g))
    assert back.index == g.index
    assert back.anchors == g.anchors
    for a, b in zip(back.coeffs, g.coeffs):
        assert np.array_equal(a, b)


def test_one_frame_check_for_sums_and_compositions():
    g = scalar_germ(2, {2: 0.1})
    other = Germ.from_terms(AnchorSet([[0.5]]), 2, [{(2,): [0.1]}])
    for op in (lambda a, b: a + b, lambda a, b: sum_germs([a, b]), compose):
        with pytest.raises(ValidationError, match="expected a germ"):
            op(g, 5)
        with pytest.raises(ValidationError, match="different anchor sets"):
            op(g, other)


def test_germ_json_rejects_bad_schemas():
    with pytest.raises(ValidationError):
        germ_from_json({"dim": 1, "index": 2})
    good = germ_to_json(scalar_germ(2, {2: 0.1}))
    broken = dict(good)
    broken["index"] = 0
    with pytest.raises(ValidationError):
        germ_from_json(broken)


# -- fast paths against direct references ---------------------------------------


def _majorants_reference(g, index):
    """The per-anchor, per-degree loop the stacked majorants replace."""
    sp = space(g.dim, g.degree)
    rho = 1.0 / index
    sup = dval = 0.0
    h_max = np.zeros(g.degree + 1)
    for cols in g.coeffs:
        coeff_norm = np.abs(cols).max(axis=0)
        s = d = 0.0
        rho_pow = 1.0
        for k in range(1, g.degree + 1):
            if k > 1:
                rho_pow *= rho
            h = float(coeff_norm[sp.by_degree[k]].sum())
            h_max[k] = max(h_max[k], h)
            if h:
                t = h * rho_pow
                s += t * rho
                d += k * t
        sup = max(sup, s)
        dval = max(dval, d)
    return sup, dval, h_max


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 5), (2, 8), (3, 6)])
def test_stacked_majorants_match_the_per_degree_loop(dim, degree):
    # (2, 8) and (3, 6) have degrees with eight or more monomials, where
    # numpy sums pairwise rather than left to right
    rng = generator(31)
    anchors = AnchorSet([np.zeros(dim), np.full(dim, 1.0)])
    for _ in range(20):
        g = random_germ(rng, anchors, 3, degree=degree, terms=40)
        g = Germ(anchors, 3, [c * 10.0 ** rng.integers(-6, 7, c.shape) for c in g.coeffs], degree)
        for index in (3, 4, 7):
            sup, dval, h = _majorants_reference(g, index)
            assert norms_at_index(g, index) == (sup, dval)
        assert degree_majorants(g).tobytes() == h.tobytes()


@pytest.mark.parametrize("which", ["sup", "d"])
def test_random_germ_matches_build_then_rescale(which):
    anchors = AnchorSet([[0.0], [1.0]])
    rng_fast, rng_ref = generator(41), generator(41)
    sp = space(1, 8)
    valid = np.flatnonzero(sp.totals >= 1)
    for _ in range(25):
        kwargs = {"sup_target": 0.01} if which == "sup" else {"d_target": 0.02}
        got = random_germ(rng_fast, anchors, 3, terms=5, **kwargs)
        blocks = []
        for _ in range(len(anchors)):
            cols = sp.zeros(1)
            slots = rng_ref.choice(valid, size=5, replace=False)
            cols[:, slots] = rng_ref.standard_normal((1, 5)) + 1j * rng_ref.standard_normal((1, 5))
            blocks.append(cols)
        want = Germ(anchors, 3, blocks, 8)
        current = sup_norm(want) if which == "sup" else d_norm(want)
        want = ((0.01 if which == "sup" else 0.02) / current) * want
        for a, b in zip(got.coeffs, want.coeffs):
            assert a.tobytes() == b.tobytes()
    assert rng_fast.random() == rng_ref.random()


def test_coefficients_are_read_only():
    g = scalar_germ(2, {1: 0.5, 2: 0.25})
    with pytest.raises(ValueError):
        g.coeffs[0][0, 1] = 9.0
    # so the majorants cached by the hook still describe the germ
    assert sup_norm(g) == 0.5 / 2 + 0.25 / 4


def test_germ_sum_matches_a_fold_of_additions():
    rng = generator(51)
    terms = [random_germ(rng, ORIGIN2, j, degree=5, terms=8) for j in (1, 2, 3, 2)]
    folded = terms[0]
    for g in terms[1:]:
        folded = folded + g
    got = sum_germs(terms)
    assert got.index == folded.index == 3
    for a, b in zip(got.coeffs, folded.coeffs):
        assert a.tobytes() == b.tobytes()
    assert sum_germs(terms[:1]) is terms[0]
