"""Anchored germ families: norms, composition, inversion, derivative growth.

Independent oracles used below: plain convolution for the scalar
composition, central finite differences for the directional derivative,
exact-fraction series reversion and a matrix inverse for the two inversion
examples.  The one-pass inversion and the substitutions under composition
are also checked bit for bit against the loops they replaced
(`loop_references`).
"""

import gc
import math
import weakref

import numpy as np
import pytest
from loop_references import (
    chart_components,
    random_germ_of_degree,
    reference_compose_derivative_blocks,
    reference_inverse_blocks,
    reference_majorants,
    reference_substitute,
    same_bits,
)

from lbcalc import catalog, germs
from lbcalc.acceptance import lagrange_reversion
from lbcalc.errors import DomainError, InternalCheckError, ValidationError
from lbcalc.germs import (
    AnchorSet,
    Germ,
    block_majorants,
    compose,
    compose_derivative,
    d_norm,
    degree_majorants,
    derivative_bound,
    germ_from_json,
    germ_to_json,
    invert,
    norm_check_stats,
    norms_at_index,
    residual,
    sum_germs,
    sup_norm,
    zero_germ,
)
from lbcalc.sampling import generator, random_germ
from lbcalc.series import SeriesSpace, space

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
    # restriction keeps the coefficients and takes a larger index
    g = scalar_germ(2, {2: 1.0})
    fine = Germ(g.anchors, 8, g.coeffs, g.degree)
    assert sup_norm(fine) == norms_at_index(g, 8)[0] == 1.0 / 64.0


def test_majorants_keep_a_nan():
    # max(0.0, nan) is 0.0: a NaN coefficient read as a majorant of 0
    sp = space(1, 8)
    block = np.zeros((1, 1, sp.size), dtype=np.complex128)
    block[0, 0, 2] = np.nan
    assert all(math.isnan(x) for x in block_majorants(ORIGIN1, 2, block, 8))
    # a NaN at the first anchor outlasts a finite majorant at the next one
    blocks = np.zeros((2, 1, sp.size), dtype=np.complex128)
    blocks[0, 0, 2] = np.nan
    blocks[1, 0, 1] = 0.1
    assert all(math.isnan(x) for x in block_majorants(AnchorSet([[0.0], [0.5]]), 5, blocks, 8))


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
    return random_germ(generator(seed), anchors, index, terms=terms, d_target=d_target)


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
        # negated germs carry -0.0 in every zero slot, the constant slot too,
        # where da and the Jacobian begin their one stacked substitution
        got = compose_derivative(-g1, g2, -dg1, dg2)
        want = reference_compose_derivative_blocks(-g1, g2, -dg1, dg2)
        assert all(same_bits(block, ref) for block, ref in zip(got.coeffs, want))


def test_an_inflated_inversion_residual_is_refused(monkeypatch):
    # h is moved by 1e-9 at degree 1, so the residual's sup majorant at the
    # output index 12 is about 1e-9 / 12, above 1e-10 times the ceiling 1/6
    g = scalar_germ(1, {2: 0.1})
    chart_inverse = SeriesSpace.chart_inverse

    def inflated(sp, cols):
        h = chart_inverse(sp, cols)
        h[:, sp.unit_packed[0]] += 1e-9
        return h

    monkeypatch.setattr(SeriesSpace, "chart_inverse", inflated)
    with pytest.raises(InternalCheckError, match="inversion residual"):
        invert(g)


def test_inversion_requires_a_small_derivative():
    g = scalar_germ(9, {1: 0.6})
    assert d_norm(g) == 0.6
    with pytest.raises(DomainError, match="inversion needs d_norm"):
        invert(g)


def test_a_nan_inversion_defect_fails_the_gate(monkeypatch):
    g = scalar_germ(1, {2: 0.1})
    monkeypatch.setattr(SeriesSpace, "chart_compose", lambda self, a, b: np.full_like(a, np.nan))
    with pytest.raises(InternalCheckError, match="inversion residual sup_norm nan"):
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
    sp = space(g.dim, g.degree)
    step = 1e-6
    worst = 0.0
    for x in np.linspace(-0.4, 0.4, 9):
        f = sp.evaluator(g.coeffs[0], 0)
        fd = (f([x + step]) - f([x - step])) / (2 * step)
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


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 5), (2, 8), (3, 6)])
def test_stacked_majorants_match_the_per_degree_loop(dim, degree):
    # (2, 8) and (3, 6) have degrees with eight or more monomials, where
    # numpy sums pairwise rather than left to right
    rng = generator(31)
    anchors = AnchorSet([np.zeros(dim), np.full(dim, 1.0)])
    for _ in range(20):
        g = random_germ_of_degree(rng, anchors, 3, degree, 40)
        g = Germ(anchors, 3, [c * 10.0 ** rng.integers(-6, 7, c.shape) for c in g.coeffs], degree)
        for index in (3, 4, 7):
            sup, dval, h = reference_majorants(space(dim, degree), g.coeffs, 1.0 / index)
            assert norms_at_index(g, index) == (sup, dval)
        assert degree_majorants(g).tobytes() == h.tobytes()


@pytest.mark.parametrize("which", ["sup", "d"])
def test_random_germ_matches_build_then_rescale(which):
    anchors = AnchorSet([[0.0], [1.0]])
    rng_fast, rng_ref = generator(41), generator(41)
    sp = space(1, 8)
    valid = sp.nonconstant
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
    terms = [random_germ_of_degree(rng, ORIGIN2, j, 5, 8) for j in (1, 2, 3, 2)]
    folded = terms[0]
    for g in terms[1:]:
        folded = folded + g
    got = sum_germs(terms)
    assert got.index == folded.index == 3
    for a, b in zip(got.coeffs, folded.coeffs):
        assert a.tobytes() == b.tobytes()
    assert sum_germs(terms[:1]) is terms[0]


def _wild_blocks(rng, sp, count, dim):
    """Blocks with magnitudes far apart, -0.0 parts and exact cancellations."""
    blocks = np.zeros((count, dim, sp.size), dtype=np.complex128)
    live = sp.nonconstant
    shape = (count, dim, live.size)
    raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-6, 7, shape)
    raw.real[rng.random(shape) < 0.2] = -0.0
    raw.imag[rng.random(shape) < 0.2] = -0.0
    raw[rng.random(shape) < 0.2] = -0.0 - 0.0j
    blocks[:, :, live] = raw
    # a sum that cancels exactly leaves +0.0 where it ran
    cancel = rng.random(shape) < 0.2
    blocks[:, :, live] = np.where(cancel, raw + (-raw), raw)
    return blocks


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_majorants_match_the_loop_reference(dim):
    rng = generator(61)
    for degree in range(1, 9):
        sp = space(dim, degree)
        for count in (1, 2, 3):
            anchors = AnchorSet([np.full(dim, 3.0 * a) for a in range(count)])
            for _ in range(3):
                blocks = _wild_blocks(rng, sp, count, dim)
                for index in (1, 2, 12):
                    sup, dval, h = reference_majorants(sp, blocks, 1.0 / index)
                    g = Germ(anchors, index, blocks, degree)
                    assert math.copysign(1.0, sup) == 1.0
                    assert (sup, dval) == (sup_norm(g), d_norm(g)) == block_majorants(anchors, index, blocks, degree)
                    assert (sup, dval) == norms_at_index(Germ(anchors, 12, blocks, degree), index)
                    assert degree_majorants(g).tobytes() == h.tobytes()


_SP2 = space(2, 8)


def _bad_pair(const=False, unused=False, nan=None):
    cols = np.zeros((2, _SP2.size), dtype=np.complex128)
    if const:
        cols[0, 0] = 1.0
    if unused:
        cols[1, _SP2.vanishing[1]] = 1.0
    if nan is not None:
        cols[0, nan] = np.nan
    return [cols]


@pytest.mark.parametrize(
    "anchors, blocks, message",
    [
        (ORIGIN1, [np.zeros((1, 9))] * 2, "got 2 coefficient blocks for 1 anchors"),
        (ORIGIN1, [np.zeros((1, 5))], "coefficient block has shape (1, 5), expected (1, 9)"),
        (ORIGIN1, [np.zeros(9)], "coefficient block has shape (9,), expected (1, 9)"),
        (
            AnchorSet([[0.0], [3.0]]),
            [np.zeros((1, 9)), np.zeros((1, 5))],
            "coefficient block has shape (1, 5), expected (1, 9)",
        ),
        (ORIGIN2, _bad_pair(const=True), "germs vanish at their anchors; degree-0 term must be zero"),
        (ORIGIN2, _bad_pair(unused=True), "coefficients above the truncation degree must be zero"),
        (ORIGIN2, _bad_pair(const=True, unused=True), "germs vanish at their anchors; degree-0 term must be zero"),
        (ORIGIN2, _bad_pair(nan=5), "series coefficients must be finite"),
        (ORIGIN2, _bad_pair(nan=0), "series coefficients must be finite"),
        (ORIGIN2, _bad_pair(nan=int(_SP2.vanishing[1])), "series coefficients must be finite"),
    ],
    ids=["count", "shape", "flat", "ragged", "constant", "unused", "constant-and-unused",
         "nan", "nan-constant", "nan-unused"],
)
def test_construction_refusals_name_the_first_fault(anchors, blocks, message):
    with pytest.raises(ValidationError) as err:
        Germ(anchors, 1, blocks, 8)
    assert str(err.value) == message


def test_sums_products_and_scalar_multiples_run_the_hook_once():
    rng = generator(71)
    g, h = (random_germ(rng, ORIGIN1, j, terms=5) for j in (2, 3))
    builds = {
        "sum": lambda: g + h,
        "difference": lambda: g - h,
        "sum_germs": lambda: sum_germs([g, h, g]),
        "negation": lambda: -g,
        "left scalar": lambda: 0.5 * g,
        "right scalar": lambda: g * (2.0 - 1.0j),
        "product": lambda: catalog._germ_product(g, h),
        "random_germ": lambda: random_germ(rng, ORIGIN1, 2, terms=5, sup_target=0.1),
    }
    for name, build in builds.items():
        before = norm_check_stats["checked"]
        build()
        assert norm_check_stats["checked"] == before + 1, name


def test_inversion_composes_through_the_series_space(monkeypatch):
    # the residual certificate is a chart composition of its own, not a call of
    # `compose`, whose calls the benchmark counts per family
    g = scalar_germ(2, {1: 0.1, 2: 0.05, 3: -0.02})
    want = invert(g)

    def refuse(*args):
        raise AssertionError("invert called compose")

    monkeypatch.setattr(germs, "compose", refuse)
    assert same_bits(invert(g).coeffs, want.coeffs)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; return the count list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_residual_of_an_inverse_is_its_certified_defect(monkeypatch):
    # residual(g, invert(g)) calls compose once, and compose hands back the
    # defect that invert certified: the bytes of a fresh chart composition
    g = _family(5, 2, 2, 12, 2, 0.3)
    h = invert(g)
    sp = space(g.dim, g.degree)
    fresh = [sp.chart_compose(a, b) for a, b in zip(g.coeffs, h.coeffs)]
    composes = _count_calls(monkeypatch, germs, "compose")
    charts = _count_calls(monkeypatch, SeriesSpace, "chart_compose")
    res = residual(g, h)
    assert len(composes) == 1 and charts == []
    assert res.index == h.index
    assert all(same_bits(got, want) for got, want in zip(res.coeffs, fresh))
    # a germ equal to g but not g itself, or to h but not h, composes afresh
    twin = Germ(g.anchors, g.index, g.coeffs, g.degree)
    assert all(same_bits(got, want) for got, want in zip(residual(twin, h).coeffs, fresh))
    assert len(charts) == len(g.anchors)
    h_twin = Germ(h.anchors, h.index, h.coeffs, h.degree)
    assert all(same_bits(got, want) for got, want in zip(residual(g, h_twin).coeffs, fresh))
    assert len(charts) == 2 * len(g.anchors)

    # the containment gate still runs before the defect is handed back
    def refuse(outer, inner):
        raise DomainError("containment check failed")

    monkeypatch.setattr(germs, "_containment_gate", refuse)
    with pytest.raises(DomainError, match="containment"):
        residual(g, h)


def test_negated_germs_keep_the_bits_of_a_fresh_residual():
    g = -_family(6, 3, 1, 12, 1, 0.4)  # -0.0 in every zero slot
    h = invert(g)
    sp = space(g.dim, g.degree)
    fresh = [sp.chart_compose(a, b) for a, b in zip(g.coeffs, h.coeffs)]
    assert all(same_bits(got, want) for got, want in zip(residual(g, h).coeffs, fresh))


def test_the_certified_defect_lives_and_dies_with_its_inverse(monkeypatch):
    g = _family(7, 1, 2, 8, 3, 0.2)
    h = invert(g)
    blocks = [weakref.ref(block) for block in h._defect[1]]
    assert all(ref() is not None for ref in blocks)
    del h
    gc.collect()
    assert all(ref() is None for ref in blocks)
    # a second invert of the same germ recomputes the inverse and its defect
    inverses = _count_calls(monkeypatch, SeriesSpace, "chart_inverse")
    first, second = invert(g), invert(g)
    assert len(inverses) == 2 * len(g.anchors)
    assert first._defect[1] is not second._defect[1]
    assert same_bits(first.coeffs, second.coeffs)
    # germs built from an inverse carry no defect
    assert Germ(first.anchors, first.index, first.coeffs, first.degree)._defect is None
    assert (-(-first))._defect is None


def test_the_derivative_substitutes_once_per_anchor(monkeypatch):
    # da and the Jacobian of a share the monomials of id + b: one substitution
    g1, g2 = _family(8, 2, 2, 12, 2, 0.3), _family(9, 2, 2, 12, 12, 0.4)
    dg1, dg2 = _family(10, 2, 2, 6, 2, 0.1), _family(11, 2, 2, 6, 12, 0.05)
    calls = _count_calls(monkeypatch, SeriesSpace, "substitute")
    compose_derivative(g1, g2, dg1, dg2)
    assert len(calls) == len(g1.anchors)
