"""Finitely supported coefficient series: norms, brackets, evaluation.

Derived expectations are rebuilt in place with independent oracles (brute
force pair enumeration, partial sums, pointwise matrix arithmetic) before
the frozen values are asserted.
"""

import math

import numpy as np
import pytest

from lbcalc.dirichlet import (
    DirichletSeries,
    _canonical,
    bch_series,
    bracket,
    embed,
    evaluate,
    exp_pointwise,
    leading_coefficient,
    norm_s,
    series_from_json,
    series_to_json,
    sum_series,
    zero_series,
)
from lbcalc.errors import DomainError, ValidationError
from lbcalc.matrices import bch, commutator, compatible_norm, mat_exp
from lbcalc.sampling import generator, random_series
from loop_references import reference_bch_series, reference_canonical

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
A = np.array([[0.1, 0.2], [0.0, -0.1]], dtype=complex)
B = np.array([[0.0, 0.1j], [0.1, 0.0]], dtype=complex)
C = np.array([[0.05, 0.0], [0.2j, 0.0]], dtype=complex)

# partial sum of 1/n^2 for n <= 100, math.fsum oracle
ZETA2_PARTIAL_100 = 1.634983900184893


# -- construction -------------------------------------------------------------


def test_duplicate_frequencies_merge():
    g = DirichletSeries([2, 2, 3], np.stack([A, A, B]))
    assert list(g.freqs) == [2, 3]
    assert np.array_equal(g.terms()[2], 2 * A)


def test_exact_cancellation_drops_the_term():
    g = DirichletSeries([5, 5], np.stack([A, -A]))
    assert g.support == 0


def test_frequencies_must_be_positive():
    with pytest.raises(ValidationError):
        DirichletSeries([0], A[None, :, :])


def test_empty_series_needs_a_dimension():
    with pytest.raises(ValidationError):
        DirichletSeries([], None)
    assert zero_series(3).dim == 3


# -- half-plane norms ----------------------------------------------------------


def test_constant_series_norm_is_the_coefficient_norm():
    g = embed(A)
    for s in (-2.0, 0.0, 1.0, 7.5):
        assert norm_s(g, s) == compatible_norm(A)


def test_single_term_at_frequency_two():
    a = np.array([[0.5, 0.0], [0.0, 0.0]])  # compatible norm exactly 1
    g = DirichletSeries([2], a[None, :, :])
    assert norm_s(g, 1.0) == 0.5


def test_three_unit_terms_sum_geometrically():
    a = 0.5 * np.eye(2)
    g = DirichletSeries([1, 2, 4], np.stack([a, a, a]))
    assert norm_s(g, 1.0) == 1.75


def test_norms_decrease_in_the_half_plane_parameter():
    rng = generator(23)
    for _ in range(200):
        g = random_series(rng, 2, (1, 2, 3, 4, 5, 6, 7, 8), 4)
        s = float(rng.uniform(-1.0, 3.0))
        t = s + float(rng.uniform(0.0, 3.0))
        assert norm_s(g, t) <= norm_s(g, s) * (1.0 + 1e-12)


# -- bracket -------------------------------------------------------------------


def test_bracket_with_itself_is_empty():
    g = DirichletSeries([1, 2, 3], np.stack([A, B, C]))
    assert bracket(g, g).support == 0


def test_bracket_of_constants_embeds_the_commutator():
    got = bracket(embed(A), embed(B))
    assert list(got.freqs) == [1]
    assert np.array_equal(got.terms()[1], commutator(A, B))


def test_bracket_against_pair_enumeration():
    g1 = DirichletSeries([1, 2], np.stack([A, B]))
    g2 = DirichletSeries([2], C[None, :, :])
    got = bracket(g1, g2)
    # oracle: enumerate every frequency pair by hand
    oracle = {}
    for n1, a1 in g1.terms().items():
        for n2, a2 in g2.terms().items():
            key = n1 * n2
            oracle[key] = oracle.get(key, 0) + commutator(a1, a2)
    assert list(got.freqs) == sorted(oracle)
    for n, want in oracle.items():
        assert np.max(np.abs(got.terms()[n] - want)) < 1e-15
    # spot the closed form: [a,c] 2^-z + [b,c] 4^-z
    assert np.array_equal(got.terms()[2], commutator(A, C))
    assert np.array_equal(got.terms()[4], commutator(B, C))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bracket_refuses_coefficients_that_overflow():
    # the finite check alone reports the overflow; numpy must not warn of it
    huge = DirichletSeries([1], [1e200 * A])
    with pytest.raises(ValidationError, match="finite"):
        bracket(huge, DirichletSeries([1], [1e200 * B]))


def test_bracket_refuses_frequency_products_that_leave_int64():
    # 2^32 * 2^32 wraps to 0, 3 * 2^62 to a negative and (2^33 + 1) * 2^31 to 2^31
    for n1, n2 in ((2**32, 2**32), (3, 2**62), (2**33 + 1, 2**31)):
        with pytest.raises(ValidationError, match="64-bit"):
            bracket(DirichletSeries([n1], [A]), DirichletSeries([n2], [B]))
    edge = bracket(DirichletSeries([2], [A]), DirichletSeries([2**62 - 1], [B]))
    assert list(edge.terms()) == [2**63 - 2]


def test_frequencies_outside_int64_are_refused():
    with pytest.raises(ValidationError, match="below 2\\^63"):
        DirichletSeries.from_terms({2**63: A})
    assert DirichletSeries.from_terms({2**63 - 1: A}).support == 1


def test_bracket_norm_is_submultiplicative():
    rng = generator(31)
    for _ in range(200):
        g1 = random_series(rng, 2, (1, 2, 3, 5), 3)
        g2 = random_series(rng, 2, (1, 2, 4, 7), 3)
        s = float(rng.uniform(0.0, 2.0))
        assert norm_s(bracket(g1, g2), s) <= norm_s(g1, s) * norm_s(g2, s) * (1.0 + 1e-12)


# -- evaluation ----------------------------------------------------------------


def test_constant_series_evaluates_to_its_coefficient():
    for z in (0.0, 2.0, 1.0 + 3.0j):
        assert np.array_equal(evaluate(embed(A), z), A)


def test_single_frequency_two_term_halves_at_one():
    g = DirichletSeries([2], A[None, :, :])
    assert np.array_equal(evaluate(g, 1.0), A / 2.0)


def test_evaluation_matches_the_partial_zeta_sum():
    ones = np.ones((100, 1, 1), dtype=complex)
    g = DirichletSeries(np.arange(1, 101), ones)
    got = evaluate(g, 2.0)[0, 0]
    oracle = math.fsum(1.0 / (n * n) for n in range(1, 101))
    assert got == pytest.approx(oracle, abs=1e-13)
    assert got == pytest.approx(ZETA2_PARTIAL_100, abs=1e-13)


# -- the combination on series ---------------------------------------------------


def test_combination_with_zero_series_is_identity():
    g = DirichletSeries([1, 3], 0.25 * np.stack([A, B]))
    out = bch_series(g, zero_series(2), 0.0, 8)
    assert list(out.freqs) == list(g.freqs)
    assert np.max(np.abs(out.mats - g.mats)) == 0.0


def test_combination_of_constants_embeds_the_matrix_combination():
    out = bch_series(embed(0.25 * A), embed(0.25 * B), 0.0, 6)
    assert list(out.freqs) == [1]
    want = bch(0.25 * A, 0.25 * B, 6)
    assert np.max(np.abs(out.terms()[1] - want)) < 1e-15


def test_combination_evaluates_pointwise():
    # sparse generic pair, order 8: evaluation at z = 3 must match the
    # matrix-level combination of the evaluations
    g1 = DirichletSeries([1, 2, 5], 0.125 * np.stack([A, B, C]))
    g2 = DirichletSeries([3, 4], 0.125 * np.stack([B, C]))
    out = bch_series(g1, g2, 0.0, 8)
    z = 3.0
    want = bch(evaluate(g1, z), evaluate(g2, z), 8)
    assert np.max(np.abs(evaluate(out, z) - want)) < 1e-9


def test_combination_on_a_two_prime_support_matches_the_matrix_oracle():
    rng = generator(41)
    g1 = random_series(rng, 2, (2, 3), 2, target=0.15)
    g2 = random_series(rng, 2, (2, 3), 2, target=0.15)
    out = bch_series(g1, g2, 0.0, 6)
    # every frequency is a product of at most six support members
    assert set(out.freqs.tolist()) <= {2**a * 3**b for a in range(7) for b in range(7 - a)}
    z = 1.5
    want = bch(evaluate(g1, z), evaluate(g2, z), 6)
    assert np.max(np.abs(evaluate(out, z) - want)) < 1e-12


def test_combination_on_a_wide_support_matches_the_matrix_oracle():
    rng = generator(43)
    g1 = random_series(rng, 2, (2, 3, 5, 7, 11), 4, target=0.12)
    g2 = random_series(rng, 2, (2, 3, 5, 7, 11), 4, target=0.12)
    out = bch_series(g1, g2, 0.0, 8)
    # at z = 1.5 the brackets still move the value by about 5e-6, so a walker
    # off by 1e-4 relative in each bracket misses the tolerance by far
    z = 1.5
    want = bch(evaluate(g1, z), evaluate(g2, z), 8)
    assert np.max(np.abs(evaluate(out, z) - want)) < 1e-12


def test_combination_domain_gate_quotes_the_bound():
    heavy = embed(np.eye(2))
    with pytest.raises(DomainError, match=r"log\(3/2\)"):
        bch_series(heavy, heavy, 0.0, 4)


def test_combination_refuses_frequency_overflow():
    # 256^8 = 2^64 would leave exact int64 products
    a = 0.01 * np.eye(2)
    g = DirichletSeries([256], a[None, :, :])
    with pytest.raises(DomainError, match="integer range"):
        bch_series(g, g, 0.0, 8)


# -- pointwise exponential and the leading coefficient ---------------------------


def test_exp_of_the_zero_series():
    assert np.array_equal(exp_pointwise(zero_series(2), 1.5), np.eye(2))


def test_exp_of_a_constant_series():
    got = exp_pointwise(embed(A), 4.0)
    assert np.max(np.abs(got - mat_exp(A))) == 0.0


def test_exp_of_a_nilpotent_term():
    g = DirichletSeries([2], (0.1 * E12)[None, :, :])
    got = exp_pointwise(g, 1.0)
    assert np.max(np.abs(got - (np.eye(2) + 0.05 * E12))) < 1e-16


def test_leading_coefficient_of_a_constant():
    lead = leading_coefficient(embed(A), 5.0)
    assert np.array_equal(lead.value, A)
    assert lead.tail_bound == 0.0


def test_leading_coefficient_two_terms():
    g = DirichletSeries([1, 2], np.stack([A, B]))
    lead = leading_coefficient(g, 20.0)
    assert np.max(np.abs(lead.value - (A + B * 2.0**-20))) < 1e-18
    assert lead.tail_bound == pytest.approx(compatible_norm(B) * 2.0**-20, rel=1e-15)


def test_leading_coefficient_probe_stays_within_its_tail_bound():
    rng = generator(47)
    for _ in range(50):
        g = random_series(rng, 2, (1, 2, 3, 4, 5), 5)
        stored = g.terms().get(1, np.zeros((2, 2)))
        lead = leading_coefficient(g, 30.0)
        deviation = compatible_norm(lead.value - stored)
        assert deviation <= lead.tail_bound * (1.0 + 1e-12)


def test_leading_probe_rejects_small_abscissas():
    with pytest.raises(DomainError, match="below the minimum"):
        leading_coefficient(embed(A), 1.0)


# -- serialization ----------------------------------------------------------------


def test_series_json_roundtrip():
    g = DirichletSeries([1, 6], np.stack([A, B]))
    back = series_from_json(series_to_json(g))
    assert list(back.freqs) == [1, 6]
    assert np.array_equal(back.mats, g.mats)


def test_series_json_rejects_bad_schemas():
    with pytest.raises(ValidationError):
        series_from_json({"dim": 2})
    with pytest.raises(ValidationError):
        series_from_json({"dim": 2, "terms": [{"n": 0, "coeff": series_to_json(embed(A))["terms"][0]["coeff"]}]})


# -- fast paths against direct references ---------------------------------------
#
# The canonical form, the vectorised norm and the one-pass random draw must
# give the same bits as the plain loops they replace; comparisons are on the
# raw bytes, so even the sign of a zero counts.


def _merge_reference(freqs, mats):
    """Sequential dict merge: 0.0 plus each input, in input order."""
    acc = {}
    for n, m in zip(freqs, mats):
        n = int(n)
        acc[n] = (acc[n] if n in acc else np.zeros_like(m)) + m
    keep = sorted(n for n in acc if np.any(acc[n] != 0))
    dim = mats.shape[1]
    stack = np.array([acc[n] for n in keep]).reshape(len(keep), dim, dim)
    return np.array(keep, dtype=np.int64), stack


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _wild_mats(rng, count, dim):
    # magnitudes far apart, so the order of addition shows in the last bits
    scale = 10.0 ** rng.integers(-8, 9, size=(count, 1, 1))
    mats = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) * scale
    mats[0, 0, 0] = -0.0
    return mats


@pytest.mark.parametrize("layout", ["sorted", "unsorted", "duplicates"])
def test_canonical_form_matches_a_sequential_merge(layout):
    rng = np.random.default_rng(11)
    for trial in range(40):
        dim = 1 + trial % 3
        if layout == "sorted":
            freqs = np.sort(rng.choice(np.arange(1, 40), size=6, replace=False))
        elif layout == "unsorted":
            freqs = rng.permutation(np.arange(1, 40))[:6]
        else:
            freqs = rng.integers(1, 5, size=12)
        mats = _wild_mats(rng, freqs.size, dim)
        if layout == "duplicates":
            # one frequency cancels exactly and must drop out
            freqs = np.concatenate([freqs, [7, 7]])
            mats = np.concatenate([mats, mats[:1], -mats[:1]])
        g = DirichletSeries(freqs, mats, dim=dim)
        ref_freqs, ref_mats = _merge_reference(freqs, mats)
        assert _same_bits(g.freqs, ref_freqs)
        assert _same_bits(g.mats, ref_mats)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_canonical_form_matches_the_inverse_scatter_reference(dim):
    rng = np.random.default_rng(17)
    layouts = [
        lambda: np.zeros(0, dtype=np.int64),
        lambda: np.array([5]),
        lambda: np.sort(rng.choice(np.arange(1, 40), size=6, replace=False)),
        lambda: rng.permutation(np.arange(1, 40))[:6],
        lambda: rng.integers(1, 5, size=12),
        lambda: np.concatenate([np.full(11, 6), rng.integers(1, 9, size=5)]),  # a group of 11
    ]
    for trial in range(60):
        freqs = layouts[trial % len(layouts)]()
        mats = _wild_mats(rng, freqs.size, dim) if freqs.size else np.zeros((0, dim, dim), complex)
        if freqs.size > 1:
            # an exact cancellation, and a row of -0.0 entries
            freqs = np.concatenate([freqs, freqs[:1], freqs[1:2]])
            mats = np.concatenate([mats, -mats[:1], np.full((1, dim, dim), -0.0 - 0.0j)])
        got = _canonical(freqs, mats, dim)
        want = reference_canonical(freqs, mats, dim)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    # strided coefficients, straight and through the constructor
    freqs = np.concatenate([rng.integers(1, 9, size=20), [3, 3]])
    mats = _wild_mats(rng, 2 * freqs.size, dim)[::2, ::-1, ::-1]  # every other term, reversed
    assert not mats.flags.c_contiguous
    want = reference_canonical(freqs, mats, dim)
    built = DirichletSeries(freqs, mats, dim=dim)
    for got in (_canonical(freqs, mats, dim), (built.freqs, built.mats)):
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    # 2,000 terms on 300 frequencies
    freqs = rng.integers(1, 301, size=2000)
    mats = _wild_mats(rng, freqs.size, dim)
    got, want = _canonical(freqs, mats, dim), reference_canonical(freqs, mats, dim)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    # inf + -inf: the NaN lands in the same slot with the same bits
    freqs = np.array([4, 2, 4, 4])
    mats = np.ones((4, dim, dim), dtype=complex)
    mats[0, 0, 0], mats[2, 0, 0] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        want = reference_canonical(freqs, mats, dim)
    got = _canonical(freqs, mats, dim)
    assert np.isnan(got[1][1, 0, 0].real)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_scalar_multiples_match_building_the_scaled_terms():
    rng = np.random.default_rng(19)
    g = DirichletSeries(np.array([1, 3, 4]), _wild_mats(rng, 3, 2), dim=2)
    for c in (2.0, -1.0, 0.5 - 3.0j, 1e-300, 0.0, -0.0):
        got = c * g
        want = DirichletSeries(g.freqs, complex(c) * g.mats, dim=2)
        assert _same_bits(got.freqs, want.freqs) and _same_bits(got.mats, want.mats)
    assert (0.0 * g).support == 0


def test_a_sum_of_one_series_is_that_series():
    rng = np.random.default_rng(23)
    g = random_series(rng, 2, (1, 2, 3, 4, 5), 3, target=0.3)
    assert sum_series([g], 2) is g
    folded = zero_series(2) + g
    assert _same_bits(folded.freqs, g.freqs) and _same_bits(folded.mats, g.mats)


def test_canonical_form_does_not_alias_its_input():
    freqs = np.array([1, 2])
    mats = np.stack([A, B])
    g = DirichletSeries(freqs, mats)
    mats[0] = 0.0
    freqs[0] = 9
    assert np.array_equal(g.mats[0], A)
    assert g.freqs[0] == 1


def test_vectorised_norm_matches_the_per_term_loop():
    rng = np.random.default_rng(12)
    for trial in range(60):
        dim = 1 + trial % 9
        support = 1 + trial % 13
        freqs = np.sort(rng.choice(np.arange(1, 200), size=support, replace=False))
        g = DirichletSeries(freqs, _wild_mats(rng, support, dim), dim=dim)
        for s in (0.0, 0.5, 1.0, 2.0, 3.7):
            total = 0.0
            for k, n in enumerate(g.freqs):
                total += compatible_norm(g.mats[k]) * float(n) ** (-s)
            assert norm_s(g, s) == total
            tail = 0.0
            for k, n in enumerate(g.freqs):
                if n >= 2:
                    tail += compatible_norm(g.mats[k]) * float(n) ** (-max(s, 2.0))
            assert leading_coefficient(g, max(s, 2.0)).tail_bound == tail


@pytest.mark.parametrize("s, target", [(0.0, None), (1.0, 0.3), (3.0, 1e-5)])
def test_random_series_matches_build_then_rescale(s, target):
    pool = (1, 2, 3, 4, 5, 6, 7, 8)
    rng_fast, rng_ref = generator(21), generator(21)
    for _ in range(25):
        got = random_series(rng_fast, 2, pool, 3, s=s, target=target)
        freqs = np.sort(rng_ref.choice(np.array(pool, dtype=np.int64), size=3, replace=False))
        mats = rng_ref.standard_normal((3, 2, 2)) + 1j * rng_ref.standard_normal((3, 2, 2))
        want = DirichletSeries(freqs, mats, dim=2)
        if target is not None:
            want = (target / norm_s(want, s)) * want
        assert _same_bits(got.freqs, want.freqs)
        assert _same_bits(got.mats, want.mats)
    # both generators consumed the same draws
    assert rng_fast.random() == rng_ref.random()


@pytest.mark.parametrize(
    "pool, order",
    [((2, 3, 5), 8), ((2, 3, 5, 7, 11, 13), 8), ((1, 2, 3), 12),
     ((2, 3, 5), 4), ((2, 3, 5), 6), ((2, 3, 5), 9), ((1, 2, 3, 4), 10)],
)
def test_bch_series_matches_its_own_plan_walk(pool, order):
    rng = generator(31)
    for _ in range(3):
        g1 = random_series(rng, 2, pool, 2, s=0.0, target=0.12)
        g2 = random_series(rng, 2, pool, 2, s=0.0, target=0.15)
        got = bch_series(g1, g2, 0.0, order)
        want = reference_bch_series(g1, g2, order)
        assert _same_bits(got.freqs, want.freqs)
        assert _same_bits(got.mats, want.mats)


def test_series_arrays_are_read_only():
    rng = generator(7)
    g1 = random_series(rng, 2, (2, 3, 5), 3)
    g2 = random_series(rng, 2, (2, 3, 5), 3)
    built = [g1, DirichletSeries(g1.freqs, g1.mats), 2.0 * g1, g1 + g2, bracket(g1, g2), embed(np.eye(2))]
    for g in built:
        assert g.support
        with pytest.raises(ValueError):
            g.mats[0] = 0.0
        with pytest.raises(ValueError):
            g.freqs[0] = 1
    before = g1.mats.copy()
    g1.terms()[int(g1.freqs[0])][0, 0] = 9.0  # terms() hands out copies
    assert _same_bits(g1.mats, before)
