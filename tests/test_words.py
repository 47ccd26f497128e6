"""Exact-arithmetic checks on the shared bracket-series engine.

The series coefficients and the plan's weights are Fractions, so every
identity here is tested with no tolerance at all.  The plan evaluator is
compared against the hand-written degree-4 formula on concrete matrices.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from lbcalc import words as engine
from lbcalc.errors import DomainError, ValidationError
from lbcalc.matrices import commutator
from lbcalc.sampling import generator

WITT = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]


@lru_cache(maxsize=None)
def convolution_coefficients(order: int) -> dict:
    """Reference: log(exp(X) exp(Y)) on words of degree <= order, by convolution.

    Words are tuples over {0, 1} (0 for X, 1 for Y), values are nonzero
    Fractions.  All intermediate arithmetic is integer: the factor
    exp(X) exp(Y) - 1 is scaled by order!**2 so powers stay integral, and
    each power contributes sign/(m * scale**m) per word.
    """
    fact = math.factorial(order)
    scale = fact * fact
    conv = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if i or j:
                conv[(0,) * i + (1,) * j] = (fact // math.factorial(i)) * (
                    fact // math.factorial(j)
                )
    out: dict[tuple, Fraction] = {}
    power = {(): 1}
    denom = 1
    for m in range(1, order + 1):
        step: dict[tuple, int] = {}
        for wa, ca in power.items():
            budget = order - len(wa)
            for wb, cb in conv.items():
                if len(wb) <= budget:
                    w = wa + wb
                    step[w] = step.get(w, 0) + ca * cb
        power = step
        denom *= scale
        sign = 1 if m % 2 else -1
        for w, c in power.items():
            if c:
                out[w] = out.get(w, Fraction(0)) + Fraction(sign * c, m * denom)
    return {w: c for w, c in out.items() if c}


def all_words(k: int):
    return product((0, 1), repeat=k)


def per_word(order: int) -> dict:
    return {w: engine.bch_coefficient(w) for k in range(1, order + 1) for w in all_words(k)}


def depths(plan) -> list:
    out = []
    for parent, _, _ in plan:
        out.append(1 if parent is None else out[parent] + 1)
    return out


def witt(k: int) -> int:
    """Dimension of the degree-k free Lie algebra on two letters (Moebius formula)."""

    def mobius(n):
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    return sum(mobius(d) * 2 ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


# -- series coefficients per word ----------------------------------------------


def test_degree_one_words_carry_coefficient_one():
    assert engine.bch_coefficient((0,)) == 1
    assert engine.bch_coefficient((1,)) == 1


def test_degree_two_words_form_the_half_commutator():
    assert engine.bch_coefficient((0, 1)) == Fraction(1, 2)
    assert engine.bch_coefficient((1, 0)) == Fraction(-1, 2)
    assert engine.bch_coefficient((0, 0)) == 0
    assert engine.bch_coefficient((1, 1)) == 0


def test_per_word_coefficients_match_the_convolution_table():
    table = convolution_coefficients(engine.MAX_ORDER)
    assert len(table) == 5190
    for k in range(1, engine.MAX_ORDER + 1):
        for w in all_words(k):
            assert engine.bch_coefficient(w) == table.get(w, 0), w


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
def test_equal_arguments_collapse_to_twice_the_letter(order):
    # log(exp(t) exp(t)) = 2t, so the coefficients of each degree above one
    # must cancel exactly over all words of that degree
    for k in range(2, order + 1):
        assert sum(engine.bch_coefficient(w) for w in all_words(k)) == 0


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_single_letter_words_vanish_above_degree_one(order):
    # log(exp(x)) = x: pure-x and pure-y words contribute nothing
    for k in range(2, order + 1):
        assert engine.bch_coefficient((0,) * k) == 0
        assert engine.bch_coefficient((1,) * k) == 0


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_mirror_symmetry(order):
    # reversing words is an antiautomorphism, so log(exp(y) exp(x)) read
    # backwards is the original series: c(w) = c(w reversed, letters swapped)
    coeffs = per_word(order)
    for w, c in coeffs.items():
        assert coeffs[tuple(1 - u for u in reversed(w))] == c


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_swap_antisymmetry(order):
    # inverting the group element flips the series: z(-y, -x) = -z(x, y),
    # hence c(w) = (-1)^(|w|+1) c(w with letters swapped)
    coeffs = per_word(order)
    for w, c in coeffs.items():
        assert coeffs[tuple(1 - u for u in w)] == (-1) ** (len(w) + 1) * c


# -- the basis plan ------------------------------------------------------------


def test_lyndon_words_count_the_witt_numbers():
    for k in range(1, engine.MAX_ORDER + 1):
        lyndon = engine.lyndon_words(k)
        assert len(lyndon) == witt(k) == WITT[k - 1]
        assert lyndon == sorted(lyndon)
        # strictly smaller than each of its proper rotations
        assert all(w < w[i:] + w[:i] for w in lyndon for i in range(1, k))


@pytest.mark.parametrize("order", range(1, engine.MAX_ORDER + 1))
def test_plan_has_one_node_per_basis_element(order):
    plan = engine.evaluation_plan(order)
    counts = np.bincount(depths(plan), minlength=order + 1)[1:].tolist()
    assert counts == [witt(k) for k in range(1, order + 1)] == WITT[:order]


def test_lower_plans_are_prefixes_of_the_highest():
    top = engine.evaluation_plan(engine.MAX_ORDER)
    assert len(top) == 747
    for order in range(1, engine.MAX_ORDER):
        plan = engine.evaluation_plan(order)
        assert plan == top[: len(plan)]
        assert max(depths(plan)) == order


def test_exact_weights_reproduce_every_series_coefficient():
    # sum over nodes of weight * associative expansion, degree by degree,
    # against the convolution table on all 2^k words of each degree
    plan = engine._exact_plan(engine.MAX_ORDER)
    table = convolution_coefficients(engine.MAX_ORDER)
    assert [float(w) for _, _, w in plan] == [w for _, _, w in engine.evaluation_plan(12)]
    depth = depths(plan)
    expansion = {}
    for k in range(1, engine.MAX_ORDER + 1):
        nodes = [n for n in range(len(plan)) if depth[n] == k]
        total = [Fraction(0)] * 2**k
        for n in nodes:
            parent, letter, weight = plan[n]
            if parent is None:
                e = {letter: 1}
            else:
                # [b, a] = b a - a b, with word u1..uk at index sum u_i 2^(k-i)
                e = {}
                for idx, c in expansion[parent].items():
                    for at, sign in ((2 * idx + letter, c), (letter * 2 ** (k - 1) + idx, -c)):
                        e[at] = e.get(at, 0) + sign
            expansion[n] = e
            if weight:
                for idx, c in e.items():
                    total[idx] += weight * c
        for idx, w in enumerate(all_words(k)):
            assert total[idx] == table.get(w, 0), w
        for n in [n for n in expansion if depth[n] < k]:
            del expansion[n]


def walk(order, x, y):
    """apply_plan with one commutator per node, the weighted nodes added in plan order."""

    def step(values, leaves, parents, letters):
        return [commutator(values[p], leaves[a]) for p, a in zip(parents, letters)]

    acc = None
    for values, positions, weights in engine.apply_plan(order, (x, y), step):
        for i, w in zip(positions, weights.tolist()):
            acc = w * values[i] if acc is None else acc + w * values[i]
    return acc


def test_plan_order_two_is_the_exact_textbook_sum():
    x = np.array([[0.0, 0.125], [0.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 0.0], [0.125, 0.0]], dtype=complex)
    got = walk(2, x, y)
    want = x + y + 0.5 * commutator(x, y)
    assert np.array_equal(got, want)


def _dynkin4(x, y):
    c = commutator
    z = x + y + 0.5 * c(x, y)
    z = z + (c(x, c(x, y)) + c(y, c(y, x))) / 12.0
    return z - c(y, c(x, c(x, y))) / 24.0


def test_plan_matches_the_degree_four_formula():
    rng = generator(7)
    worst = 0.0
    for _ in range(50):
        x = 0.05 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        y = 0.05 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        got = walk(4, x, y)
        worst = max(worst, float(np.max(np.abs(got - _dynkin4(x, y)))))
    assert worst < 1e-15


def test_plan_respects_shared_prefixes():
    # every parent index must point at an earlier node, letters in {0, 1}
    for order in (1, 4, 8):
        plan = engine.evaluation_plan(order)
        for k, (parent, letter, weight) in enumerate(plan):
            assert parent is None or 0 <= parent < k
            assert letter in (0, 1)
            assert isinstance(weight, float)


def test_degree_tables_regroup_the_plan_exactly():
    for order in range(1, engine.MAX_ORDER + 1):
        tables = engine.degree_tables(order)
        assert len(tables) == order
        rebuilt, below = [], None  # below: the plan indices of the degree below
        for parents, letters, positions, weights in tables:
            assert (parents is None) == (below is None)
            if below is not None:
                assert 0 <= parents.min() and parents.max() < len(below)
            assert np.all(np.diff(positions) > 0) and np.all(weights != 0.0)
            node_weights = np.zeros(letters.size)
            node_weights[positions] = weights
            start = len(rebuilt)
            for j in range(letters.size):
                parent = None if below is None else below[parents[j]]
                rebuilt.append((parent, int(letters[j]), float(node_weights[j])))
            below = range(start, len(rebuilt))
        assert rebuilt == list(engine.evaluation_plan(order))


def test_checked_order_accepts_the_documented_range():
    for order in range(1, engine.MAX_ORDER + 1):
        assert engine.checked_order(order) == order


def test_checked_order_rejects_bad_values():
    with pytest.raises(ValidationError):
        engine.checked_order(2.0)
    with pytest.raises(ValidationError):
        engine.checked_order(True)
    with pytest.raises(DomainError):
        engine.checked_order(0)
    with pytest.raises(DomainError):
        engine.checked_order(engine.MAX_ORDER + 1)
