"""Norms, exp, log and the truncated bracket combination on matrices."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lbcalc.errors import DomainError, ValidationError
from lbcalc.matrices import (
    BCH_DOMAIN_RADIUS,
    bch,
    commutator,
    compatible_norm,
    mat_exp,
    mat_log,
    matrix_from_json,
    matrix_to_json,
    one_norm,
)
from lbcalc.sampling import generator

from loop_references import reference_bch_matrix, same_bits

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()
I2 = np.eye(2, dtype=complex)


# -- norms --------------------------------------------------------------------


def test_norm_of_zero_is_zero():
    assert compatible_norm(np.zeros((3, 3))) == 0.0


def test_norm_of_identity_is_the_scale():
    assert compatible_norm(I2) == 2.0


def test_norm_of_a_single_entry():
    # one column sum 0.1, doubled
    assert compatible_norm(0.1 * E12) == 0.2


small_entries = st.floats(min_value=-0.05, max_value=0.05)


# Higham, Accuracy and Stability of Numerical Algorithms, section 2.1: with
# underflow, fl(x op y) = (x op y)(1 + delta) + eta, where |eta| is at most
# 2^-1075, half the smallest subnormal.  Relative allowances cover delta;
# each operation behind the two sides of an assertion adds one eta, and the
# doubling of the norm at most doubles it, so an assertion also allows its
# operation count times 2^-1074.  For d x d inputs a product takes
# d^2 (2d - 1) operations, a commutator twice that plus d^2 subtractions, a
# norm d (d - 1) additions and one doubling, and the right side two norms,
# their product, the halving and the factor 1 + 1e-12.
_D = 3
_NORM_OPS = _D * (_D - 1) + 1
_RHS_OPS = 2 * _NORM_OPS + 3
_PRODUCT_OPS = _D * _D * (2 * _D - 1) + _NORM_OPS
_BRACKET_OPS = 2 * _D * _D * (2 * _D - 1) + _D * _D + _NORM_OPS
_ETA = 2.0**-1074


@given(
    x=arrays(np.float64, (_D, _D), elements=small_entries),
    y=arrays(np.float64, (_D, _D), elements=small_entries),
)
# subnormal products lose far more than 1e-12 of their relative precision
@example(x=np.full((_D, _D), 0.03125), y=np.full((_D, _D), 2.2250738585072014e-313))
def test_bracket_submultiplicativity(x, y):
    # the factor two buys || [x, y] || <= ||x|| ||y||, with room to spare:
    # the product itself already satisfies ||xy|| <= ||x|| ||y|| / 2
    lhs = compatible_norm(commutator(x, y))
    rhs = compatible_norm(x) * compatible_norm(y)
    assert lhs <= rhs * (1.0 + 1e-12) + (_BRACKET_OPS + _RHS_OPS) * _ETA
    assert compatible_norm(x @ y) <= 0.5 * rhs * (1.0 + 1e-12) + (_PRODUCT_OPS + _RHS_OPS) * _ETA


# -- exponential and logarithm ------------------------------------------------


def test_exp_of_zero_is_the_identity():
    assert np.array_equal(mat_exp(np.zeros((2, 2))), I2)


def test_exp_of_a_diagonal():
    got = mat_exp(np.diag([1.0, 2.0]))
    want = np.diag([math.e, math.e**2])
    assert np.max(np.abs(got - want)) < 1e-14


def test_exp_of_a_nilpotent_terminates():
    got = mat_exp(0.1 * E12)
    assert np.max(np.abs(got - (I2 + 0.1 * E12))) < 1e-16


def test_exp_refuses_norms_past_the_scaling_range():
    # 2^1021 needs 2^1023 as its scaling power; anything larger overflows it
    assert np.isfinite(mat_exp(2.0**1021 * E12)).all()
    with pytest.raises(DomainError, match="2\\^1021"):
        mat_exp(1e308 * E12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp_names_an_overflow_below_the_scaling_range():
    assert np.isfinite(mat_exp(np.array([[700.0]]))).all()
    with pytest.raises(DomainError, match="overflows"):
        mat_exp(np.array([[800.0]]))
    with pytest.raises(DomainError, match="overflows"):
        mat_exp(2.0**1000 * I2)


def test_log_of_the_identity_is_zero():
    assert np.array_equal(mat_log(I2), np.zeros((2, 2)))


def test_log_of_a_diagonal():
    got = mat_log(np.diag([math.sqrt(math.e), 1.0]))
    assert np.max(np.abs(got - np.diag([0.5, 0.0]))) < 1e-14


def test_log_of_a_unipotent_terminates():
    got = mat_log(I2 + 0.1 * E12)
    assert np.max(np.abs(got - 0.1 * E12)) < 1e-13


def test_log_rejects_matrices_far_from_the_identity():
    with pytest.raises(DomainError, match="mat_log needs"):
        mat_log(3.0 * I2)
    # the distance gate is sharp: diag(e, 1) sits at e - 1 > 1 and is refused
    with pytest.raises(DomainError):
        mat_log(np.diag([math.e, 1.0]))


def test_exp_inverts_log_on_the_whole_domain():
    # distances up to 0.97 take several square roots; every third g is
    # triangular with entries spread over two decades, far from normal
    rng = generator(11)
    for i in range(300):
        d = int(rng.integers(1, 6))
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if i % 3 == 0:
            z = np.triu(z) * 10.0 ** rng.uniform(0.0, 2.0, (d, d))
        g = np.eye(d) + z * (rng.uniform(0.0, 0.97) / one_norm(z))
        back = mat_exp(mat_log(g))
        assert one_norm(back - g) <= 1e-13


def test_log_of_eigenvalues_near_zero():
    # the first Denman-Beavers step for 0.05 moves M from 0.95 to 4.5 away
    # from I; the iteration must not stop there
    vals = np.array([0.05, 0.04 + 0.02j, 1.9, 0.5 + 0.5j])
    got = mat_log(np.diag(vals))
    assert np.max(np.abs(got - np.diag(np.log(vals)))) < 1e-14


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, (2, 2), elements=st.floats(min_value=-0.08, max_value=0.08)))
def test_log_inverts_exp_near_zero(x):
    # ||exp(x) - I||_1 <= e^0.16 - 1 < 1, so the log is defined
    back = mat_log(mat_exp(x))
    assert np.max(np.abs(back - x)) < 1e-13


# -- the truncated combination ------------------------------------------------


def test_combination_with_zero_left_argument():
    y = 0.1 * E21
    for order in (1, 5, 12):
        assert np.array_equal(bch(np.zeros((2, 2)), y, order), y)


def test_combination_of_equal_arguments():
    x = 0.08 * (E12 + E21)
    for order in (2, 7):
        assert np.array_equal(bch(x, x, order), 2.0 * x)


def test_combination_matches_the_node_by_node_walk():
    rng = generator(41)
    for dim in (1, 2, 3, 4):
        for order in range(1, 13):
            x, y = (
                0.2 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
                for _ in range(2)
            )
            x *= 0.15 / compatible_norm(x)
            y *= 0.1 / compatible_norm(y)
            for a, b in ((x, y), (np.zeros_like(x), y), (x, np.zeros_like(y)), (x, x)):
                assert same_bits(bch(a, b, order), reference_bch_matrix(a, b, order))


def test_combination_order_two_against_the_group_oracle():
    # frozen by hand: [x, y] = 0.01 diag(1, -1) for these nilpotents
    x = 0.1 * E12
    y = 0.1 * E21
    got = bch(x, y, 2)
    frozen = x + y + 0.005 * np.diag([1.0, -1.0])
    assert np.max(np.abs(got - frozen)) < 1e-16
    # the oracle log(exp(x) exp(y)) differs only by degree >= 3 terms
    oracle = mat_log(mat_exp(x) @ mat_exp(y))
    assert np.max(np.abs(got - oracle)) < 2e-4
    # at full order the truncation error drops under the roundoff floor
    assert np.max(np.abs(bch(x, y, 10) - oracle)) < 1e-12


def test_combination_domain_gate_quotes_the_bound():
    with pytest.raises(DomainError, match=r"log\(3/2\)"):
        bch(0.2 * I2, 0.3 * I2, 4)
    # the gate is strict and scale-aware: norms sum to 2 * (0.4 + 0.6) = 2.0
    total = compatible_norm(0.2 * I2) + compatible_norm(0.3 * I2)
    assert total >= BCH_DOMAIN_RADIUS


def test_combination_norm_stays_under_log_two():
    rng = generator(3)
    for _ in range(40):
        x = np.asarray(0.04 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))))
        y = np.asarray(0.04 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))))
        if compatible_norm(x) + compatible_norm(y) >= BCH_DOMAIN_RADIUS:
            continue
        assert compatible_norm(bch(x, y, 8)) < math.log(2.0)


def test_submultiplicativity_across_ten_thousand_samples():
    # dense sweep with the documented 4 ulp allowance
    rng = generator(17)
    for k in range(10_000):
        d = 2 if k % 2 else 3
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = compatible_norm(commutator(x, y))
        rhs = compatible_norm(x) * compatible_norm(y)
        assert lhs <= rhs * (1.0 + 4.0 * np.finfo(float).eps)


def test_truncation_error_drops_with_the_expected_order():
    # halving both inputs must shrink the order-K defect by at least 2^K / 2
    x = 0.1 * (E12 + 0.3 * E21)
    y = 0.1 * (E21 - 0.2 * E12)
    order = 4

    def defect(a, b):
        oracle = mat_log(mat_exp(a) @ mat_exp(b))
        return float(np.max(np.abs(bch(a, b, order) - oracle)))

    full = defect(x, y)
    halved = defect(0.5 * x, 0.5 * y)
    assert full / halved >= 2.0**order * 0.5


# -- serialization ------------------------------------------------------------


def test_json_roundtrip_preserves_entries():
    x = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    assert np.array_equal(matrix_from_json(matrix_to_json(x)), x)


def test_json_layout_is_row_major_re_im_pairs():
    obj = matrix_to_json(np.array([[1.0, 2.0j], [0.0, -1.0]]))
    assert obj == {"dim": 2, "entries": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.0]]}


@pytest.mark.parametrize(
    "broken",
    [
        {"entries": [[0.0, 0.0]]},
        {"dim": 2, "entries": [[0.0, 0.0]]},
        {"dim": 1, "entries": [[0.0]]},
        {"dim": 0, "entries": []},
        {"dim": 1, "entries": [0.0]},
    ],
)
def test_json_rejects_malformed_objects(broken):
    with pytest.raises(ValidationError):
        matrix_from_json(broken)


def test_json_dimension_pin():
    obj = matrix_to_json(I2)
    with pytest.raises(ValidationError, match="expected a 3x3"):
        matrix_from_json(obj, dim=3)
