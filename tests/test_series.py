"""The packed truncated-series layout against independent polynomial oracles.

One-variable cases are checked against plain convolution; multivariate
identities use small integer coefficients so the expected equalities are
exact in floating point.  The index tables, `substitute` and `evaluate` are
also checked bit for bit against the loops they replaced (`loop_references`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_references import (
    reference_evaluate,
    reference_substitute,
    reference_tables,
    same_bits,
)

from lbcalc.errors import ValidationError
from lbcalc.series import SeriesSpace, space


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


# -- the tables and the table-driven operations against their loop references ---


@pytest.mark.parametrize("dim, degree", [(1, 1), (1, 8), (2, 1), (2, 8), (3, 4), (3, 8), (4, 5)])
def test_tables_match_the_double_loop(dim, degree):
    sp = SeriesSpace(dim, degree)
    alphas, packed, lhs, rhs, out = reference_tables(dim, degree)
    assert sp.alphas == tuple(alphas)
    assert sp.packed.tolist() == packed
    assert sp._mul_lhs.tolist() == lhs
    assert sp._mul_rhs.tolist() == rhs
    assert sp._mul_out.tolist() == out
    column = {p: c for c, p in enumerate(packed)}
    total = {p: sum(a) for a, p in zip(alphas, packed)}
    assert {p: int(sp.compact[p]) for p in packed} == column
    assert np.count_nonzero(sp.compact >= 0) == len(packed) == sp.live
    for k in range(degree + 1):
        assert sp.by_degree[k].tolist() == [p for p in packed if total[p] == k]
        assert sp.packed[sp.starts[k]:sp.starts[k + 1]].tolist() == sp.by_degree[k].tolist()
    assert sp.unit_compact.tolist() == [column[w] for w in sp.unit_packed]
    # each slot extends its parent by the first variable it holds, as the
    # memoised `monomial` chose it
    for c, (a, p) in enumerate(zip(alphas, packed)):
        if c == 0:
            assert (sp.parents[0], sp.variables[0]) == (-1, -1)
            continue
        i = next(k for k, ai in enumerate(a) if ai > 0)
        assert sp.variables[c] == i
        assert sp.parents[c] == column[p - sp.unit_packed[i]]
    # the per-degree tables: the pairs with both factors of degree >= 1, in table order
    for k in range(degree + 1):
        want = [
            (column[l], column[r], column[o] - sp.starts[k])
            for l, r, o in zip(lhs, rhs, out)
            if total[l] >= 1 and total[r] >= 1 and total[o] == k
        ]
        got = list(zip(*(part.tolist() for part in sp.products_by_degree[k])))
        assert got == want


def _random_cols(rng, sp, rows, dense):
    """(rows, size) coefficients on every live slot, or on five random ones."""
    cols = sp.zeros(rows)
    slots = sp.packed if dense else rng.choice(sp.packed[1:], size=min(5, sp.live - 1), replace=False)
    cols[:, slots] = rng.standard_normal((rows, slots.size)) + 1j * rng.standard_normal((rows, slots.size))
    return cols


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_substitution_matches_the_memoised_monomials(dim, dense):
    rng = np.random.default_rng(11 + dim)
    sp = space(dim, 8)
    for trial in range(4):
        cols = _random_cols(rng, sp, dim, dense)
        comps = [0.3 * _random_cols(rng, sp, 1, dense)[0] for _ in range(dim)]
        if trial % 2 == 0:  # zero constant terms, as in a composition
            for comp in comps:
                comp[0] = 0.0
        got = sp.substitute(cols, comps)
        assert same_bits(got, reference_substitute(sp, cols, comps))
    # a zero series touches no monomial
    assert same_bits(sp.substitute(sp.zeros(dim), comps), reference_substitute(sp, sp.zeros(dim), comps))
    # components with exact zeros, -0.0 parts, a bare unit and a zero series:
    # each product runs over the pairs where its component is nonzero
    cols = _random_cols(rng, sp, dim, dense)
    for comps in _sparse_components(rng, sp):
        assert same_bits(sp.substitute(cols, comps), reference_substitute(sp, cols, comps))


def _sparse_components(rng, sp):
    """Lists of dim scalar series that are zero, or -0.0, on most slots."""
    dim = sp.dim
    signed = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    few = [_random_cols(rng, sp, 1, False)[0] for _ in range(dim)]
    for comp in few:
        comp[0] = 0.0
    yield few
    negzero = [comp.copy() for comp in few]
    for comp in negzero:
        zeros = np.flatnonzero(comp == 0)
        comp[zeros] = rng.choice(signed, size=zeros.size)
    yield negzero
    units = [sp.zeros() for _ in range(dim)]
    for i, comp in enumerate(units):
        comp[sp.unit_packed[i]] = 1.0
    yield units
    yield [units[0]] + [sp.zeros() for _ in range(dim - 1)]
    # unit plus a real or an imaginary coefficient, as in the chart of a germ
    chart = [unit.copy() for unit in units]
    for comp in chart:
        comp[rng.choice(sp.packed[1:])] += rng.choice([0.25, 0.25j, -0.5])
    yield chart


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_substitution_falls_back_to_full_products_where_monomials_overflow(dim):
    # inf * 0 is NaN, so a pair whose component slot is zero can change an
    # overflowing product: these components take the full table, as `mul`
    rng = np.random.default_rng(41 + dim)
    sp = space(dim, 8)
    cols = _random_cols(rng, sp, dim, True)
    comps = [0.3 * _random_cols(rng, sp, 1, False)[0] for _ in range(dim)]
    for i, comp in enumerate(comps):
        comp[0] = 0.0
        comp[sp.unit_packed[i]] = 1e60  # monomials of degree 6 and up overflow
    with np.errstate(over="ignore", invalid="ignore"):
        got = sp.substitute(cols, comps)
        want = reference_substitute(sp, cols, comps)
    assert not np.isfinite(want).all()
    assert same_bits(got, want)


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 6), (3, 8)])
def test_row_products_match_the_full_table(dim, degree):
    rng = np.random.default_rng(17 + dim)
    sp = space(dim, degree)
    for comps in _sparse_components(rng, sp):
        rows = np.concatenate([_random_cols(rng, sp, 2, True), _random_cols(rng, sp, 2, False)])
        for b in comps:
            want = np.array([sp.mul(row, b) for row in rows])
            assert same_bits(sp.mul_rows(rows, b), want)
            # a row with an infinity takes the full table: inf * 0 is NaN
            rows[1, sp.packed[-1]] = np.inf
            with np.errstate(invalid="ignore"):
                want = np.array([sp.mul(row, b) for row in rows])
                assert same_bits(sp.mul_rows(rows, b), want)
            rows[1, sp.packed[-1]] = 1.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_evaluation_matches_the_per_slot_loop(dim, dense):
    rng = np.random.default_rng(31 + dim)
    sp = space(dim, 8)
    for _ in range(10):
        cols = _random_cols(rng, sp, dim, dense)
        x = 0.7 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        assert same_bits(sp.evaluate(cols, x), reference_evaluate(sp, cols, x))


@pytest.mark.parametrize("dim, degree", [(3, 40), (1, 2000), (30, 1)])
def test_oversized_spaces_are_refused(dim, degree):
    # (3, 40) has C(46, 6) = 9,366,819 product pairs, (1, 2000) has 2,003,001;
    # (30, 1) has 61 pairs but 2**30 packed slots
    with pytest.raises(ValidationError, match="too large"):
        SeriesSpace(dim, degree)

