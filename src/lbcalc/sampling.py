"""Seeded random generators for matrices, Dirichlet series and germs.

Everything takes an explicit numpy Generator; `generator(seed)` and
`spawn(seed, n)` build them from a single 64-bit seed so runs are exactly
reproducible.  The element builders accept a target norm, finite and
nonnegative, and rescale the raw draw, which hits the target up to a few
ulp; callers that need a strict upper bound shave the target first (see
`lbcalc.limits`).  Sizes and term counts are at least 1.
"""

from __future__ import annotations

import numpy as np

from .dirichlet import DirichletSeries, weighted_norm
from .errors import ValidationError
from .germs import DEFAULT_DEGREE, AnchorSet, Germ, block_majorants
from .jsonio import integer
from .matrices import compatible_norm
from .series import space

_IMAG = np.complex128(1j)


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn(seed: int, n: int) -> list:
    """n independent generators derived from one seed."""
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """rng.standard_normal(shape) + 1j * rng.standard_normal(shape) in one draw:
    n draws at once equal n single draws, and the parts are cast to complex
    as that mixed-type expression casts them, so the bits agree."""
    parts = rng.standard_normal((2,) + shape).astype(np.complex128)
    return parts[0] + _IMAG * parts[1]


def _factor(target: float, current: float) -> float:
    """target / current, for a finite nonnegative target and a nonzero draw."""
    if not 0.0 <= target < np.inf:
        raise ValidationError(f"a norm target must be finite and nonnegative, got {target!r}")
    if current == 0.0:
        raise ValidationError("cannot rescale a zero draw to a norm target")
    return target / current


def frequency_pool(freq_pool) -> np.ndarray:
    """The pool as an int64 vector, after checking it is strictly increasing in [1, 2^63)."""
    pool = np.asarray(freq_pool)
    if not (pool.ndim == 1 and pool.size and pool.dtype.kind in "iu" and 1 <= pool[0]
            and pool[-1] < 2**63 and not np.count_nonzero(pool[1:] <= pool[:-1])):
        raise ValidationError(
            f"a frequency pool lists integers in [1, 2^63) in increasing order, got {freq_pool!r}"
        )
    return pool.astype(np.int64, copy=False)


def random_matrix(rng: np.random.Generator, dim: int, target: float | None = None) -> np.ndarray:
    """Random complex matrix, optionally rescaled to a compatible_norm target."""
    integer(dim, "matrix dimension", 1)
    m = _complex_normal(rng, (dim, dim))
    if target is not None:
        m = _factor(target, compatible_norm(m)) * m
    return m


def random_series(
    rng: np.random.Generator,
    dim: int,
    freq_pool,
    terms: int,
    s: float = 0.0,
    target: float | None = None,
) -> DirichletSeries:
    """Sparse random series with `terms` distinct frequencies from the pool.

    The pool lists integer frequencies in strictly increasing order, as
    `limits.STEP_FREQUENCIES` does.  With a target, the norm is taken on the raw
    draw and the raw coefficients are rescaled, so the series is built once.
    """
    pool = frequency_pool(freq_pool)
    integer(dim, "series dimension", 1)
    if integer(terms, "terms", 1) > pool.size:
        raise ValidationError(f"cannot draw {terms} distinct frequencies from {pool.size}")
    freqs = rng.choice(pool, size=terms, replace=False)
    freqs.sort()
    mats = _complex_normal(rng, (terms, dim, dim))
    if target is not None:
        mats = complex(_factor(target, weighted_norm(freqs, mats, s))) * mats
    return DirichletSeries(freqs, mats, dim=dim)


def random_germ(
    rng: np.random.Generator,
    anchors: AnchorSet,
    index: int,
    terms: int = 12,
    d_target: float | None = None,
    sup_target: float | None = None,
) -> Germ:
    """Random sparse germ, optionally rescaled to a d_norm or sup_norm target.

    The degree is DEFAULT_DEGREE, the one every caller draws at.  Each anchor
    gets min(terms, slots) terms.  With a target, the majorant is
    taken on the raw blocks and the raw blocks are rescaled, so the germ is
    built (and hook-checked) once.
    """
    if d_target is not None and sup_target is not None:
        raise ValidationError("give at most one of d_target and sup_target")
    sp = space(anchors.dim, DEFAULT_DEGREE)
    valid = sp.nonconstant
    take = min(integer(terms, "terms", 1), valid.size)
    blocks = np.zeros((len(anchors), anchors.dim, sp.size), dtype=np.complex128)
    for cols in blocks:
        slots = rng.choice(valid, size=take, replace=False)
        cols[:, slots] = _complex_normal(rng, (anchors.dim, take))
    if sup_target is not None or d_target is not None:
        sup, dval = block_majorants(anchors, index, blocks, DEFAULT_DEGREE)
        scale = _factor(sup_target, sup) if d_target is None else _factor(d_target, dval)
        blocks = complex(scale) * blocks
    return Germ(anchors, index, blocks)
