"""Random draws: the one-call complex normal, and refusals of degenerate parameters."""

import math
import warnings

import pytest
from loop_references import reference_complex_normal, same_bits

from lbcalc.errors import ValidationError
from lbcalc.germs import AnchorSet
from lbcalc.limits import DirichletSteps, GermSteps, MatrixSteps
from lbcalc.sampling import _complex_normal, generator, random_germ, random_matrix, random_series

ORIGIN = AnchorSet.origin(1)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (1, 6), (2, 7), (0, 3)])
def test_one_call_complex_normal_matches_two_calls(shape):
    fast, ref = generator(5), generator(5)
    for _ in range(20):
        assert same_bits(_complex_normal(fast, shape), reference_complex_normal(ref, shape))
    # both consumed the same draws
    assert fast.random() == ref.random()


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("draw", ["matrix", "series", "germ-sup", "germ-d"])
def test_degenerate_targets_are_refused(draw, target):
    rng = generator(7)
    calls = {
        "matrix": lambda: random_matrix(rng, 2, target=target),
        "series": lambda: random_series(rng, 2, (1, 2, 3), 2, target=target),
        "germ-sup": lambda: random_germ(rng, ORIGIN, 2, terms=4, sup_target=target),
        "germ-d": lambda: random_germ(rng, ORIGIN, 2, terms=4, d_target=target),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="norm target"):
            calls[draw]()


def test_a_zero_target_gives_a_zero_draw():
    rng = generator(8)
    assert not random_matrix(rng, 2, target=0.0).any()


@pytest.mark.parametrize(
    "pool",
    [(0, 1, 2), (1, 2, 2**70), (1, 2**63), (1.5, 2, 3), (3, 2, 1), (1, 1, 2), (), [[1, 2], [3, 4]]],
    ids=["zero", "huge", "int64-edge", "fraction", "decreasing", "repeat", "empty", "nested"],
)
def test_pools_outside_the_positive_int64_range_are_refused(pool):
    rng = generator(9)
    with pytest.raises(ValidationError, match="frequency pool"):
        random_series(rng, 2, pool, 1, s=1.0, target=0.5)


@pytest.mark.parametrize(
    "pool",
    [(0, 1, 2), (1, 2, 2**70), (1.5, 2, 3)],
    ids=["zero", "huge", "fraction"],
)
def test_dirichlet_steps_check_their_pool_once_built(pool):
    with pytest.raises(ValidationError, match="frequency pool"):
        DirichletSteps(2, freq_pool=pool)


def test_dirichlet_steps_sort_and_merge_their_pool():
    scale = DirichletSteps(2, freq_pool=[5, 3, 3, 1])
    assert scale.freq_pool.tolist() == [1, 3, 5]
    assert scale.random(1, generator(3), 0.1).support == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: random_matrix(rng, 0),
        lambda rng: random_matrix(rng, -1),
        lambda rng: random_germ(rng, ORIGIN, 2, terms=-1),
        lambda rng: random_germ(rng, ORIGIN, 2, terms=0),
        lambda rng: random_series(rng, 2, (1, 2, 3), 0),
        lambda rng: random_series(rng, 2, (1, 2, 3), 4),
        lambda rng: random_series(rng, 0, (1, 2, 3), 2),
        lambda rng: MatrixSteps(0),
        lambda rng: DirichletSteps(-1),
        lambda rng: DirichletSteps(2, terms=0),
        lambda rng: DirichletSteps(2, freq_pool=(1, 2), terms=3),
        lambda rng: GermSteps(ORIGIN, degree=0),
        lambda rng: GermSteps(ORIGIN, terms=0),
    ],
    ids=["matrix-dim-0", "matrix-dim-negative", "germ-terms-negative", "germ-terms-0",
         "series-terms-0", "series-terms-above-pool", "series-dim-0", "matrix-steps-dim-0",
         "dirichlet-steps-dim-negative", "dirichlet-steps-terms-0", "dirichlet-steps-terms-above-pool",
         "germ-steps-degree-0", "germ-steps-terms-0"],
)
def test_degenerate_sizes_are_refused(call):
    with pytest.raises(ValidationError):
        call(generator(4))
