"""The packed truncated-series layout against independent polynomial oracles.

One-variable cases are checked against plain convolution; multivariate
identities use small integer coefficients so the expected equalities are
exact in floating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcalc.errors import ValidationError
from lbcalc.series import space


def _poly_1d(sp, coeffs):
    """Pack a one-variable coefficient list [c0, c1, ...] into a scalar series."""
    out = sp.zeros()
    for k, c in enumerate(coeffs):
        out[sp.pack((k,))] = c
    return out


def test_pack_and_alpha_roundtrip():
    sp = space(3, 4)
    for alpha in sp.alphas:
        assert sp.alpha_of(sp.pack(alpha)) == alpha


def test_pack_rejects_out_of_range_indices():
    sp = space(2, 3)
    with pytest.raises(ValidationError):
        sp.pack((2, 2))
    with pytest.raises(ValidationError):
        sp.pack((1,))
    with pytest.raises(ValidationError):
        sp.pack((-1, 0))


def test_terms_roundtrip_drops_zero_columns():
    sp = space(2, 5)
    terms = {(1, 0): np.array([1.0, 2.0]), (2, 3): np.array([0.5j, 0.0])}
    cols = sp.from_terms(terms, 2)
    back = sp.to_terms(cols)
    assert set(back) == {(1, 0), (2, 3)}
    assert np.array_equal(back[(1, 0)], [1.0, 2.0])


def test_from_terms_checks_component_count():
    sp = space(1, 4)
    with pytest.raises(ValidationError, match="components"):
        sp.from_terms({(1,): np.array([1.0, 2.0])}, 1)


def test_one_variable_product_is_truncated_convolution():
    sp = space(1, 8)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(5)
    b = rng.standard_normal(6)
    got = sp.mul(_poly_1d(sp, a), _poly_1d(sp, b))
    want = np.convolve(a, b)[:9]
    for k in range(9):
        assert got[sp.pack((k,))] == pytest.approx(want[k], abs=1e-15)


coeff_ints = st.integers(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_commutes_and_distributes(data):
    sp = space(2, 4)
    draw = lambda: sp.from_terms(
        {
            alpha: np.array([data.draw(coeff_ints)], dtype=complex)
            for alpha in sp.alphas
        },
        1,
    )[0]
    f, g, h = draw(), draw(), draw()
    assert np.array_equal(sp.mul(f, g), sp.mul(g, f))
    assert np.array_equal(sp.mul(f, g + h), sp.mul(f, g) + sp.mul(f, h))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_product_associates_exactly_on_integers(data):
    # degrees <= 1 each, so the triple product at degree <= 3 < 4 never
    # truncates and all arithmetic stays integral
    sp = space(2, 4)

    def draw():
        out = sp.zeros()
        for alpha in [(0, 0), (1, 0), (0, 1)]:
            out[sp.pack(alpha)] = data.draw(coeff_ints)
        return out

    f, g, h = draw(), draw(), draw()
    assert np.array_equal(sp.mul(sp.mul(f, g), h), sp.mul(f, sp.mul(g, h)))


def test_product_rule_for_partial_derivatives():
    sp = space(3, 8)
    rng = np.random.default_rng(9)
    # degrees 2 + 2 <= 8: no truncation anywhere in the identity
    low = [a for a in sp.alphas if sum(a) <= 2]
    f = sp.zeros()
    g = sp.zeros()
    for alpha in low:
        f[sp.pack(alpha)] = complex(*rng.standard_normal(2))
        g[sp.pack(alpha)] = complex(*rng.standard_normal(2))
    prod = sp.mul(f, g)
    for j in range(3):
        lhs = sp.differentiate(prod[None, :], j)[0]
        rhs = sp.mul(sp.differentiate(f[None, :], j)[0], g) + sp.mul(
            f, sp.differentiate(g[None, :], j)[0]
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_substitution_matches_convolution_powers():
    # f(u) with u = u(x), both one-variable, against a hand-rolled composition
    sp = space(1, 8)
    f = [0.0, 2.0, -1.0, 0.5]        # 2u - u^2 + 0.5 u^3
    u = [0.0, 1.0, 0.25, 0.0, -0.125]
    cols = _poly_1d(sp, f)[None, :]
    comp = sp.substitute(cols, [_poly_1d(sp, u)])[0]

    want = np.zeros(9)
    upow = np.array([1.0])
    for k, c in enumerate(f):
        if k > 0:
            upow = np.convolve(upow, u)[:9]
        want[: len(upow)] += c * upow[:9] if k else 0.0
        if k == 0:
            want[0] += c
    for k in range(9):
        assert comp[sp.pack((k,))] == pytest.approx(want[k], abs=1e-14)


def test_substitution_keeps_the_constant_term():
    sp = space(2, 3)
    cols = sp.from_terms({(0, 0): [3.0], (1, 0): [1.0]}, 1)
    zero = sp.zeros()
    out = sp.substitute(cols, [zero, zero])
    assert out[0, 0] == 3.0
    assert np.all(out[0, 1:] == 0)


def test_evaluation_agrees_with_monomial_summation():
    sp = space(2, 6)
    rng = np.random.default_rng(21)
    cols = sp.zeros(2)
    for alpha in sp.alphas:
        cols[:, sp.pack(alpha)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        want = np.zeros(2, dtype=complex)
        for alpha in sp.alphas:
            want += cols[:, sp.pack(alpha)] * z[0] ** alpha[0] * z[1] ** alpha[1]
        got = sp.evaluate(cols, z)
        assert np.max(np.abs(got - want)) < 1e-12


def test_evaluation_checks_the_point_shape():
    sp = space(2, 3)
    with pytest.raises(ValidationError):
        sp.evaluate(sp.zeros(1), [1.0, 2.0, 3.0])


def test_space_rejects_degenerate_parameters():
    with pytest.raises(ValidationError):
        space(0, 3)
    with pytest.raises(ValidationError):
        space(2, 0)


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 5), (2, 8), (3, 6)])
def test_degree_sums_match_the_per_degree_loop(dim, degree):
    # the constant slot is nonzero, and (2, 8) and (3, 6) have degrees with
    # eight or more monomials, where numpy sums pairwise
    rng = np.random.default_rng(7)
    sp = space(dim, degree)
    norms = np.abs(rng.standard_normal((3, sp.size))) * 10.0 ** rng.integers(-6, 7, (3, sp.size))
    want = np.array(
        [[row[sp.by_degree[k]].sum() for k in range(1, degree + 1)] for row in norms]
    )
    assert sp.degree_sums(norms).tobytes() == want.tobytes()
    assert sp.degree_sums(norms[0]).tobytes() == want[0].tobytes()


def test_product_matches_an_unbuffered_scatter():
    # the bincount scatter adds each slot in table order, as np.add.at does
    rng = np.random.default_rng(4)
    for dim, degree in [(1, 8), (2, 6), (3, 4)]:
        sp = space(dim, degree)
        live = sp.totals >= 0
        a, b = sp.zeros(), sp.zeros()
        a[live] = rng.standard_normal(live.sum()) * 10.0 ** rng.integers(-6, 7, live.sum())
        b[live] = rng.standard_normal(live.sum()) + 1j * rng.standard_normal(live.sum())
        want = np.zeros(sp.size, dtype=np.complex128)
        np.add.at(want, sp._mul_out, a[sp._mul_lhs] * b[sp._mul_rhs])
        assert sp.mul(a, b).tobytes() == want.tobytes()
