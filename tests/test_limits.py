"""Limit-space neighborhoods, continuity certificates, regularity moduli."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lbcalc.dirichlet import DirichletSeries, bracket, norm_s, zero_series
from lbcalc.errors import DomainError, InternalCheckError, ValidationError
from lbcalc.germs import AnchorSet, Germ, norms_at_index
from lbcalc.limits import (
    GERM_CONSTANT,
    ContinuityCertificate,
    DirichletSteps,
    GermSteps,
    MatrixSteps,
    _zeta2_tail_brackets,
    build_certificate,
    certificate_from_json,
    check_dirichlet_regularity,
    check_germ_regularity,
    dirichlet_regularity_modulus,
    germ_regularity_modulus,
    neighborhood_contains,
    verify_certificate,
)
from lbcalc.matrices import compatible_norm
from lbcalc.sampling import random_matrix

ORIGIN = AnchorSet.origin(1)


def matrix_term(t):
    return np.array([[t, 0.0], [0.0, 0.0]], dtype=np.complex128)


# -- neighborhood membership --------------------------------------------------


def test_empty_decomposition_is_always_inside():
    assert neighborhood_contains([0.1, 0.2], [], MatrixSteps(2)) is True


def test_single_term_membership_is_strict():
    scale = MatrixSteps(2)
    assert neighborhood_contains([0.0025], [(1, matrix_term(0.001))], scale) is True
    # the balls are open: landing exactly on the radius is outside
    assert neighborhood_contains([0.0025], [(1, matrix_term(0.0025))], scale) is False


def test_indices_must_increase_even_when_norms_would_fail_first():
    scale = MatrixSteps(2)
    terms = [(2, matrix_term(100.0)), (1, matrix_term(100.0))]
    with pytest.raises(ValidationError, match="strictly increasing"):
        neighborhood_contains([0.1, 0.1], terms, scale)


def test_index_validation():
    scale = MatrixSteps(2)
    with pytest.raises(ValidationError, match="positive integer"):
        neighborhood_contains([0.1], [(0, matrix_term(0.0))], scale)
    with pytest.raises(ValidationError, match="positive integer"):
        neighborhood_contains([0.1], [(1.0, matrix_term(0.0))], scale)
    with pytest.raises(ValidationError, match="exceeds the certificate length"):
        neighborhood_contains([0.1], [(2, matrix_term(0.0))], scale)
    with pytest.raises(ValidationError, match="must be positive"):
        neighborhood_contains([0.0], [(1, matrix_term(0.0))], scale)


def test_dirichlet_steps_measure_at_their_own_index():
    scale = DirichletSteps(2)
    gamma = DirichletSeries([4], [0.4 * np.eye(2)])
    # 0.4 I has compatible norm 0.8; at step 2 that shrinks to 0.8 * 4^-2
    assert scale.norm(2, gamma) == pytest.approx(0.05, rel=1e-15)
    assert neighborhood_contains([1.0, 0.06], [(2, gamma)], scale) is True
    assert neighborhood_contains([1.0, 0.05], [(2, gamma)], scale) is False


# -- certificate construction -------------------------------------------------


def test_one_step_certificate_frozen_radii():
    cert = build_certificate([10.0], 1.0, 0.1, 1.0)
    assert cert.a == (0.05,)
    assert cert.b == (0.05,)
    assert math.isclose(cert.delta[0], 0.0025, rel_tol=1e-12)
    assert cert.delta[0] == 0.05 * 0.05


def test_saturated_steps_fall_back_to_the_dyadic_radii():
    # epsilon so generous that b_n = 1 and delta_n = a_n = r / 2^n
    cert = build_certificate([0.001, 0.001, 0.001], 1.0, 0.1, 1.0)
    assert cert.b == (1.0, 1.0, 1.0)
    assert cert.delta == (0.05, 0.025, 0.0125)


def test_certificate_invariants_over_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        sups = [float(10.0 ** rng.uniform(-3, 3)) for _ in range(m)]
        radius = float(10.0 ** rng.uniform(-1, 2))
        r = float(rng.uniform(0.01, 0.99)) * radius / (2.0 * math.e)
        eps = float(10.0 ** rng.uniform(-6, 2))
        cert = build_certificate(sups, radius, r, eps)
        assert all(d <= a for d, a in zip(cert.delta, cert.a))
        assert math.fsum(cert.delta) < cert.r


def test_working_radius_gate():
    with pytest.raises(DomainError, match=r"R/\(2e\)"):
        build_certificate([1.0], 1.0, 0.2, 0.5)
    with pytest.raises(DomainError):
        build_certificate([1.0], 1.0, 0.0, 0.5)


def test_certificate_input_validation():
    with pytest.raises(ValidationError, match="at least one step sup"):
        build_certificate([], 1.0, 0.1, 0.5)
    with pytest.raises(ValidationError, match="positive and finite"):
        build_certificate([math.inf], 1.0, 0.1, 0.5)
    with pytest.raises(ValidationError, match="epsilon"):
        build_certificate([1.0], 1.0, 0.1, -0.5)


def test_certificate_refuses_a_delta_that_underflows():
    # b = 1e-320 / (2 * 1e308) is 0.0, and the loader refuses a zero delta
    with pytest.raises(DomainError, match="underflows to 0"):
        build_certificate([1e308, 1e308], 1.0, 0.05, 1e-320)
    with pytest.raises(ValidationError, match="list of numbers"):
        build_certificate("abc", 1.0, 0.1, 0.5)


def test_certificate_json_roundtrip():
    cert = build_certificate([2.0, 3.0], 1.0, 0.1, 0.3)
    clone = certificate_from_json(json.loads(json.dumps(cert.to_json())))
    assert clone == cert
    assert set(cert.to_json()) == {"R", "r", "epsilon", "step_sups", "a", "b", "delta"}


def test_certificate_json_rejects_broken_payloads():
    good = build_certificate([2.0], 1.0, 0.1, 0.3).to_json()
    for key in ("R", "delta"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValidationError, match=f"missing '{key}'"):
            certificate_from_json(broken)
    uneven = dict(good)
    uneven["a"] = [0.05, 0.025]
    with pytest.raises(ValidationError, match="share one length"):
        certificate_from_json(uneven)
    with pytest.raises(ValidationError, match="must be an object"):
        certificate_from_json([1, 2, 3])
    for key, value in (("R", "wide"), ("delta", "abc"), ("a", 5)):
        with pytest.raises(ValidationError, match="list of numbers"):
            certificate_from_json({**good, key: value})


def test_tampered_delta_loads_without_complaint():
    # parsing trusts the numbers; only sampling can expose an inflated delta
    good = build_certificate([2.0], 1.0, 0.1, 0.3).to_json()
    good["delta"] = [d * 10.0 for d in good["delta"]]
    bloated = certificate_from_json(good)
    assert bloated.delta[0] == pytest.approx(good["delta"][0])


# -- sampling verification ----------------------------------------------------


def test_zero_map_verifies_with_full_margin():
    scale = MatrixSteps(2)
    cert = build_certificate([1.0, 1.0], 1.0, 0.1, 0.2)
    report = verify_certificate(lambda x: scale.zero(), compatible_norm, cert, scale, samples=50)
    assert report["max_observed"] == 0.0
    assert report["verdict"] is True
    assert report["margin"] == cert.epsilon
    assert set(report) == {"max_observed", "epsilon", "samples", "verdict", "seed", "margin"}


def test_maps_must_vanish_at_zero():
    scale = MatrixSteps(2)
    cert = build_certificate([1.0], 1.0, 0.1, 0.2)
    with pytest.raises(DomainError, match=r"f\(0\) = 0"):
        verify_certificate(lambda x: x + np.eye(2), compatible_norm, cert, scale, samples=5)


@pytest.mark.parametrize("samples", [0, -5, 2.5, True])
def test_degenerate_sample_counts_are_refused(samples):
    scale = MatrixSteps(2)
    cert = build_certificate([1.0], 1.0, 0.1, 0.2)
    with pytest.raises(ValidationError, match="positive integer"):
        verify_certificate(lambda x: x + x, compatible_norm, cert, scale, samples=samples)


def test_doubling_map_stays_under_the_linear_ceiling():
    scale = MatrixSteps(2)
    cert = build_certificate([2.0, 2.0, 2.0], 1.0, 0.1, 0.05)
    report = verify_certificate(lambda x: x + x, compatible_norm, cert, scale, samples=300)
    # every decomposition obeys ||2x|| <= 2 sum delta_j, an exact linear bound
    assert 0.0 < report["max_observed"] <= 2.0 * math.fsum(cert.delta)
    assert report["verdict"] is True


def test_verification_is_deterministic_in_the_seed():
    scale = MatrixSteps(2)
    cert = build_certificate([2.0], 1.0, 0.1, 0.05)
    f = lambda x: x + x
    first = verify_certificate(f, compatible_norm, cert, scale, samples=64, seed=11)
    second = verify_certificate(f, compatible_norm, cert, scale, samples=64, seed=11)
    other = verify_certificate(f, compatible_norm, cert, scale, samples=64, seed=12)
    assert first == second
    assert first["max_observed"] != other["max_observed"]


def test_bracket_slice_on_the_dirichlet_scale():
    scale = DirichletSteps(2)
    fixed = DirichletSeries([2], [0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])
    cert = build_certificate([1.0, 1.0, 1.0], 1.0, 0.1, 0.1)
    report = verify_certificate(
        lambda g: bracket(fixed, g),
        lambda g: norm_s(g, 1.0),
        cert,
        scale,
        samples=150,
        seed=2,
    )
    assert report["verdict"] is True
    assert report["max_observed"] < cert.epsilon


def test_identity_slice_on_the_germ_scale():
    scale = GermSteps(ORIGIN, degree=6, terms=3)
    cert = build_certificate([1.0, 1.0, 1.0], 1.0, 0.1, 0.05)
    report = verify_certificate(
        lambda g: g,
        lambda g: norms_at_index(g, 4)[0],
        cert,
        scale,
        samples=100,
        seed=5,
    )
    assert report["verdict"] is True
    # bonding maps only shrink the sup, so the identity obeys the delta sum
    assert report["max_observed"] <= math.fsum(cert.delta)


class _OvershootingSteps(MatrixSteps):
    """Draws that ignore their norm target, so every term leaves its ball."""

    def random(self, j, rng, target):
        return random_matrix(rng, self.dim, target=1.0)


def test_a_term_on_or_outside_its_ball_stops_the_run():
    # the per-sample membership check must see every drawn term, whatever
    # the scale promises about its draws
    cert = build_certificate([1.0, 1.0, 1.0], 1.0, 0.1, 0.05)
    with pytest.raises(InternalCheckError, match=r"sampled term at step 1 has norm 1\.0 >= delta"):
        verify_certificate(lambda x: x, compatible_norm, cert, _OvershootingSteps(2), samples=5)


# -- half-plane regularity modulus --------------------------------------------


def fsum_zeta2_tail(m):
    # independent of scipy: zeta(2) = pi^2/6 minus an exact partial sum
    return math.pi**2 / 6.0 - math.fsum(1.0 / n**2 for n in range(1, m + 1))


def test_dirichlet_modulus_frozen_cutoff_and_radius():
    mod = dirichlet_regularity_modulus(1, 0.1, 10)
    assert mod.target == 3
    assert mod.cutoff == 40
    assert mod.delta == 40.0 ** (3 - 10) * 0.05
    # minimality, checked against a partial-sum oracle for the zeta tail
    assert fsum_zeta2_tail(40) < 0.025
    assert not fsum_zeta2_tail(39) < 0.025


@pytest.mark.parametrize("m", range(6))
def test_zeta2_tail_brackets_enclose_an_exact_partial_sum(m):
    # the exact sum to N plus 1/(N+1) < tail after N < 1/(N+1/2) encloses
    # the tail after m more tightly than the fine bracket's margins
    big_n = m + 3000
    partial = sum(Fraction(1, n * n) for n in range(m + 1, big_n + 1))
    low, high = partial + Fraction(1, big_n + 1), partial + Fraction(2, 2 * big_n + 1)
    for bracket_low, bracket_high in _zeta2_tail_brackets(m):
        assert bracket_low < low and high < bracket_high


@pytest.mark.parametrize("quarter, cutoff", [(0.0246905, 40), (0.02469, 41)])
def test_cutoff_inside_the_coarse_bracket_is_decided_by_the_fine_one(quarter, cutoff):
    # 1/41 < quarter < 1/40.5, so 1/(m+1) < tail(40) < 1/(m+1/2) cannot
    # place tail(40) = 0.02469010... on either side of quarter
    (coarse_low, coarse_high), _ = _zeta2_tail_brackets(40)
    assert coarse_low < Fraction(quarter) < coarse_high
    mod = dirichlet_regularity_modulus(1, 4.0 * quarter, 10)
    assert mod.cutoff == cutoff
    assert fsum_zeta2_tail(cutoff) < quarter < fsum_zeta2_tail(cutoff - 1)


def test_a_cutoff_neither_bracket_decides_is_refused():
    _, (fine_low, fine_high) = _zeta2_tail_brackets(40)
    quarter = float((fine_low + fine_high) / 2)
    with pytest.raises(DomainError, match="cannot decide"):
        dirichlet_regularity_modulus(1, 4.0 * quarter, 10)


def test_dirichlet_modulus_at_the_smallest_legal_control_index():
    mod = dirichlet_regularity_modulus(1, 0.1, 3)
    assert mod.delta == pytest.approx(0.05, rel=1e-15)


def test_dirichlet_modulus_validation():
    with pytest.raises(DomainError, match=r"at least s \+ 2"):
        dirichlet_regularity_modulus(1, 0.1, 2)
    with pytest.raises(ValidationError, match="integers"):
        dirichlet_regularity_modulus(1.0, 0.1, 10)
    with pytest.raises(ValidationError, match="epsilon"):
        dirichlet_regularity_modulus(1, 0.0, 10)


def test_dirichlet_modulus_json_has_no_germ_fields():
    payload = dirichlet_regularity_modulus(1, 0.1, 10).to_json()
    assert set(payload) == {
        "scale", "source", "target", "control", "cutoff", "delta", "epsilon",
    }


def test_dirichlet_checker_accepts_a_compliant_series():
    mod = dirichlet_regularity_modulus(1, 0.1, 10)
    gamma = DirichletSeries([8], [1e-4 * np.eye(2)])
    report = check_dirichlet_regularity(mod, gamma)
    assert report["verdict"] is True
    # compatible norm of 1e-4 I is 2e-4
    assert report["norm_target"] == pytest.approx(2e-4 * 8.0**-3, rel=1e-14)
    assert report["norm_target"] < mod.epsilon
    assert report["head"] < report["head_ceiling"]
    assert report["tail"] < report["tail_ceiling"]


def test_dirichlet_checker_head_and_tail_match_the_per_term_loop():
    mod = dirichlet_regularity_modulus(1, 0.1, 10)
    rng = np.random.default_rng(3)
    freqs = [1, 2, 39, 40, 41, 97]
    mats = []
    for n in freqs:
        # each term takes a sixth of both budgets, norm_1 < 2 and norm_10 < delta
        size = min(2.0 * n, mod.delta * float(n) ** 10) * (1.0 - 1e-6) / 6.0
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mats.append(m * (size / compatible_norm(m)))
    gamma = DirichletSeries(freqs, np.stack(mats))
    report = check_dirichlet_regularity(mod, gamma)
    head = tail = 0.0
    for k, n in enumerate(gamma.freqs):
        term = compatible_norm(gamma.mats[k]) * float(n) ** -3.0
        if n <= mod.cutoff:
            head += term
        else:
            tail += term
    assert (report["head"], report["tail"]) == (head, tail)
    assert head > 0.0 and tail > 0.0


def test_dirichlet_checker_rejects_out_of_scope_series():
    mod = dirichlet_regularity_modulus(1, 0.1, 10)
    with pytest.raises(DomainError, match="norm_s < 2"):
        check_dirichlet_regularity(mod, DirichletSeries([1], [3.0 * np.eye(2)]))
    with pytest.raises(DomainError, match="norm_u"):
        check_dirichlet_regularity(mod, DirichletSeries([2], [0.01 * np.eye(2)]))
    germ_mod = germ_regularity_modulus(1, 0.5, 6)
    with pytest.raises(ValidationError, match="dirichlet modulus"):
        check_dirichlet_regularity(germ_mod, zero_series(2))


# -- germ regularity modulus ---------------------------------------------------


def test_germ_constant_value():
    assert GERM_CONSTANT == 3.0 / (3.0 - math.e)
    assert GERM_CONSTANT == 10.64894033491153


def test_germ_modulus_frozen_example():
    mod = germ_regularity_modulus(1, 0.5, 6)
    assert mod.target == 6
    assert mod.cutoff == 2
    assert mod.delta == 0.0006521253970855437
    assert mod.constant == GERM_CONSTANT
    assert mod.budget is None


def test_germ_modulus_boundary_identity():
    # unwinding the radius formula lands exactly on epsilon
    mod = germ_regularity_modulus(1, 0.5, 6)
    assert (6.0 / 1.0) ** mod.cutoff * GERM_CONSTANT * mod.delta + 0.25 == 0.5


def test_default_budget_tail_matches_the_geometric_closed_form():
    for n in (1, 2, 3):
        mod = germ_regularity_modulus(n, 0.5, 6 * n)
        q = 1.0 / (6 * n)
        level = 2.0 * GERM_CONSTANT * (1.0 - q)
        closed = 2.0 * GERM_CONSTANT * q ** (mod.cutoff + 1)
        summed = math.fsum(level * q**k for k in range(mod.cutoff + 1, 200))
        assert summed == pytest.approx(closed, rel=1e-12)
        assert closed < mod.epsilon / 2.0
        # minimality of the cutoff
        if mod.cutoff > 0:
            assert not 2.0 * GERM_CONSTANT * q**mod.cutoff < mod.epsilon / 2.0


def test_explicit_budget_changes_the_cutoff():
    mod = germ_regularity_modulus(1, 0.5, 6, budget=[1.0, 1.0, 1.0])
    # tail at k0 = 0 is 1/6 + 1/36 + 1/216 < 1/4 already
    assert mod.cutoff == 0
    assert mod.delta == pytest.approx(0.25 / GERM_CONSTANT, rel=1e-15)
    assert mod.budget == (1.0, 1.0, 1.0)


def test_budget_entries_are_capped_at_twice_the_constant():
    with pytest.raises(DomainError, match="ceiling 2D"):
        germ_regularity_modulus(1, 0.5, 6, budget=[30.0])


def test_germ_modulus_validation():
    with pytest.raises(DomainError, match="at least 6n"):
        germ_regularity_modulus(1, 0.5, 5)
    with pytest.raises(ValidationError, match="positive integer"):
        germ_regularity_modulus(0, 0.5, 6)


def test_germ_checker_accepts_a_compliant_germ():
    mod = germ_regularity_modulus(1, 0.5, 6)
    g = Germ.from_terms(ORIGIN, 1, [{(3,): [0.1]}])
    report = check_germ_regularity(mod, g)
    assert report["verdict"] is True
    assert report["sup_target"] == pytest.approx(0.1 * 6.0**-3, rel=1e-14)
    assert report["sup_target"] < mod.epsilon
    assert set(report) == {
        "sup_source", "sup_control", "sup_target", "head", "tail",
        "head_ceiling", "tail_ceiling", "epsilon", "verdict",
    }


def test_germ_checker_gates():
    mod = germ_regularity_modulus(1, 0.5, 6)
    too_fine = Germ.from_terms(ORIGIN, 2, [{(3,): [0.1]}])
    with pytest.raises(DomainError, match="family lives at index"):
        check_germ_regularity(mod, too_fine)
    heavy = Germ.from_terms(ORIGIN, 1, [{(1,): [30.0]}])
    with pytest.raises(DomainError, match="exceeds the budget"):
        check_germ_regularity(mod, heavy)
    thick = Germ.from_terms(ORIGIN, 1, [{(3,): [0.2]}])
    with pytest.raises(DomainError, match="below delta"):
        check_germ_regularity(mod, thick)
    with pytest.raises(ValidationError, match="germ modulus"):
        check_germ_regularity(dirichlet_regularity_modulus(1, 0.1, 10), too_fine)


# -- scale plumbing ------------------------------------------------------------


@pytest.mark.parametrize(
    "scale, j",
    [
        (MatrixSteps(2), 1),
        (DirichletSteps(2), 3),
        (GermSteps(ORIGIN, degree=6, terms=3), 2),
    ],
    ids=["matrix", "dirichlet", "germ"],
)
def test_random_draws_respect_their_norm_target(scale, j):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = scale.random(j, rng, 0.01)
        assert scale.norm(j, x) <= 0.01 * (1.0 + 1e-9)
    assert scale.norm(j, scale.zero()) == 0.0


def _same_series(a, b):
    return a.freqs.tobytes() == b.freqs.tobytes() and a.mats.tobytes() == b.mats.tobytes()


def test_dirichlet_combine_matches_a_left_fold():
    scale = DirichletSteps(2)
    rng = np.random.default_rng(13)
    for _ in range(30):
        terms = [scale.random(j, rng, 10.0 ** -j) for j in range(1, 4)]
        folded = scale.zero()
        for x in terms:
            folded = folded + x
        assert _same_series(scale.combine(terms), folded)
    assert scale.combine([]).support == 0
    with pytest.raises(ValidationError, match="dimension mismatch"):
        scale.combine([DirichletSteps(3).random(1, rng, 0.1)])


def test_germ_combine_matches_a_left_fold():
    scale = GermSteps(AnchorSet([[0.0], [0.5]]), degree=6, terms=4)
    rng = np.random.default_rng(14)
    for _ in range(30):
        terms = [scale.random(j, rng, 10.0 ** -j) for j in range(5, 8)]
        folded = terms[0]
        for g in terms[1:]:
            folded = folded + g
        got = scale.combine(terms)
        assert got.index == folded.index
        for a, b in zip(got.coeffs, folded.coeffs):
            assert a.tobytes() == b.tobytes()
