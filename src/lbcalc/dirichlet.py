"""Finitely supported Dirichlet series with matrix coefficients.

A series is a finite sparse map n -> a_n from integer frequencies n >= 1 to
square complex matrices, thought of as the function z -> sum a_n n^(-z) on a
right half plane.  Because the support is finite every half-plane norm

    norm_s(gamma) = sum_n compatible_norm(a_n) * n^(-s)

is a finite sum and all operations here are exact up to rounding: the
convolution bracket keeps its full support (products of finite supports are
finite), evaluation is a plain partial sum, and the BCH product reuses the
order-by-order bracket plan from `lbcalc.words`.

Coefficients are stored as a frequency-sorted int64 vector plus a stacked
(support, dim, dim) array; rows that are exactly zero are dropped, which
keeps identities like antisymmetry of the bracket exact rather than
approximate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import words as _words
from .errors import DomainError, ValidationError
from .jsonio import fields, integer, items
from .matrices import (
    BCH_DOMAIN_RADIUS,
    as_matrix,
    compatible_norms,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
)
from .series import MAX_TABLE_ENTRIES

LEADING_PROBE_MIN = 2.0


def _all(mask: np.ndarray) -> bool:
    """mask.all(), cheaper on the small arrays of per-sample work."""
    return np.count_nonzero(mask) == mask.size


def _canonical(freqs: np.ndarray, mats: np.ndarray, dim: int):
    """Sort by frequency, merge duplicates, drop exact-zero coefficients.

    Each merged coefficient is 0.0 plus its inputs, added in input order: one
    `np.bincount` over the float64 parts, bin = group * 2 dim^2 + part, which
    adds like an unbuffered `np.add.at` of the complex rows.
    Input that is already strictly increasing has nothing to merge; adding
    0.0 to it gives the same bits (it only turns -0.0 into 0.0) and copies.
    """
    n = freqs.size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim, dim), dtype=np.complex128)
    if n == 1 or _all(freqs[1:] > freqs[:-1]):
        uniq = freqs.copy()
        merged = mats + 0.0
    else:
        order = freqs.argsort(kind="stable")
        ordered = freqs[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        uniq = ordered[first]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = uniq.searchsorted(ordered)
        width = 2 * dim * dim  # float64 components per coefficient
        bins = (inverse[:, None] * width + np.arange(width)).ravel()
        parts = np.ascontiguousarray(mats).view(np.float64).ravel()
        merged = np.bincount(bins, parts, uniq.size * width).view(np.complex128)
        merged = merged.reshape(-1, dim, dim)
    if _all(merged):
        return uniq, merged  # no zero entry, so no zero row to drop
    keep = merged.any(axis=(1, 2))
    return uniq[keep], merged[keep]


class DirichletSeries:
    """Immutable finitely supported Dirichlet series.

    `freqs` is strictly increasing, `mats[k]` is the coefficient of
    freqs[k]^(-z).  Construction canonicalizes: duplicates merge, zero rows
    drop.  Both arrays are read-only, so the canonical form holds for the
    series' lifetime; `terms()` hands out copies.
    """

    __slots__ = ("dim", "freqs", "mats")

    def __init__(self, freqs, mats, dim: int | None = None):
        f = np.asarray(freqs, dtype=np.int64).reshape(-1)
        m = np.asarray(mats, dtype=np.complex128)
        if f.size == 0:
            if dim is None:
                raise ValidationError("an empty series needs an explicit dimension")
            m = np.zeros((0, dim, dim), dtype=np.complex128)
        if m.ndim != 3 or m.shape[0] != f.size or m.shape[1] != m.shape[2]:
            raise ValidationError(
                f"coefficient stack has shape {m.shape}, expected ({f.size}, d, d)"
            )
        d = m.shape[1] if dim is None else dim
        if d < 1:
            raise ValidationError("coefficient dimension must be at least 1")
        if m.shape[1] != d:
            raise ValidationError(f"coefficients are {m.shape[1]}x{m.shape[1]}, expected {d}x{d}")
        if np.count_nonzero(f < 1):
            raise ValidationError(f"frequencies must be >= 1, got {int(f.min())}")
        if not _all(np.isfinite(m)):
            raise ValidationError("coefficients must be finite")
        self.dim = d
        self.freqs, self.mats = _read_only(_canonical(f, m, d))

    @classmethod
    def from_terms(cls, terms: dict, dim: int | None = None) -> "DirichletSeries":
        """Build from a {frequency: matrix} mapping."""
        entries = sorted(terms.items())
        if not entries and dim is None:
            raise ValidationError("an empty series needs an explicit dimension")
        mats = []
        freqs = []
        for n, a in entries:
            integer(n, "frequency", 1)
            arr = as_matrix(a, dim=dim)
            if dim is None:
                dim = arr.shape[0]
            freqs.append(n)
            mats.append(arr)
        stack = (
            np.stack(mats) if mats else np.zeros((0, dim, dim), dtype=np.complex128)
        )
        return cls(np.array(freqs, dtype=np.int64), stack, dim=dim)

    def terms(self) -> dict:
        return {int(n): self.mats[k].copy() for k, n in enumerate(self.freqs)}

    @property
    def support(self) -> int:
        return int(self.freqs.size)

    def __add__(self, other: "DirichletSeries") -> "DirichletSeries":
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return sum_series((self, other), self.dim)

    def __sub__(self, other: "DirichletSeries") -> "DirichletSeries":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "DirichletSeries":
        """The frequencies stay canonical, so only zero rows can drop."""
        terms = _canonical(self.freqs, complex(scalar) * self.mats, self.dim)
        if not _all(np.isfinite(terms[1])):
            raise ValidationError("coefficients must be finite")
        return _series(terms, self.dim)

    __rmul__ = __mul__

    def __neg__(self) -> "DirichletSeries":
        return (-1.0) * self


def _read_only(terms):
    """The (freqs, mats) pair of a series, both marked read-only."""
    for part in terms:
        part.setflags(write=False)
    return terms


def _series(terms, dim: int) -> DirichletSeries:
    """Series from (freqs, mats) that are canonical already; nothing is checked."""
    out = DirichletSeries.__new__(DirichletSeries)
    out.dim = dim
    out.freqs, out.mats = _read_only(terms)
    return out


def sum_series(parts, dim: int) -> DirichletSeries:
    """parts[0] + parts[1] + ... for series of dimension `dim`, built once.

    Coefficients of a shared frequency add left to right, exactly as a chain
    of `+` adds them.  The parts are series already, so their terms are not
    validated again, and one part is its own sum: every series is canonical,
    which `_canonical` leaves bit for bit as it is.
    """
    for p in parts:
        if p.dim != dim:
            raise ValidationError(f"dimension mismatch: {dim} vs {p.dim}")
    if not parts:
        return _series(_canonical(np.zeros(0, dtype=np.int64), None, dim), dim)
    if len(parts) == 1:
        return parts[0]
    return _series(
        _canonical(
            np.concatenate([p.freqs for p in parts]),
            np.concatenate([p.mats for p in parts]),
            dim,
        ),
        dim,
    )


def zero_series(dim: int) -> DirichletSeries:
    return DirichletSeries(np.zeros(0, dtype=np.int64), None, dim=dim)


def term_norms(freqs: np.ndarray, mats: np.ndarray, s: float) -> list:
    """compatible_norm(a_n) * n^(-s) per term, in the order given.

    The weights use Python's float power, term by term, because numpy's
    vectorised power may differ from it in the last bit.
    """
    norms = compatible_norms(mats).tolist()
    return [c * float(n) ** (-s) for c, n in zip(norms, freqs.tolist())]


def ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right."""
    total = 0.0
    for v in values:
        total += v
    return total


def weighted_norm(freqs: np.ndarray, mats: np.ndarray, s: float) -> float:
    """norm_s of the series with these terms, without building it."""
    s = float(s)
    if not math.isfinite(s):
        raise ValidationError(f"half-plane parameter must be finite, got {s!r}")
    return ordered_sum(term_norms(freqs, mats, s))


def norm_s(gamma: DirichletSeries, s: float) -> float:
    """Half-plane norm sum_n compatible_norm(a_n) n^(-s)."""
    return weighted_norm(gamma.freqs, gamma.mats, s)


def _products(m1, m2, n1: int, n2: int, dim: int) -> np.ndarray:
    """m1[i] @ m2[j] for every pair, as one (n1*dim, dim) by (dim, n2*dim) GEMM."""
    rows = m1.reshape(n1 * dim, dim)
    cols = m2.transpose(1, 0, 2).reshape(dim, n2 * dim)
    return (rows @ cols).reshape(n1, dim, n2, dim)


def _bracket_terms(f1, m1, f2, m2, dim: int):
    """`bracket` on bare (freqs, mats) pairs: canonicalized once, not validated.

    ba is the GEMM of ab with the roles swapped, so swapping the arguments
    negates every pair's term exactly.  Overflow shows as a non-finite
    coefficient, which the caller checks; numpy is kept from warning of it.
    """
    n1, n2 = f1.size, f2.size
    if n1 == 0 or n2 == 0:
        return _canonical(np.zeros(0, dtype=np.int64), None, dim)
    prod = (f1[:, None] * f2[None, :]).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        ab = _products(m1, m2, n1, n2, dim).transpose(0, 2, 1, 3)
        ba = _products(m2, m1, n2, n1, dim).transpose(2, 0, 1, 3)
        terms = (ab - ba).reshape(-1, dim, dim)
    return _canonical(prod, terms, dim)


def bracket(g1: DirichletSeries, g2: DirichletSeries) -> DirichletSeries:
    """Convolution Lie bracket: coefficient at N is sum over n1*n2 = N of [a, b].

    Support is kept exactly; nothing is truncated.
    """
    if g1.dim != g2.dim:
        raise ValidationError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    if g1.support and g2.support and int(g1.freqs[-1]) * int(g2.freqs[-1]) >= 2**63:
        raise ValidationError(
            f"frequency product {int(g1.freqs[-1])} * {int(g2.freqs[-1])} "
            "leaves the 64-bit integer range"
        )
    terms = _bracket_terms(g1.freqs, g1.mats, g2.freqs, g2.mats, g1.dim)
    if not _all(np.isfinite(terms[1])):
        raise ValidationError("coefficients must be finite")
    return _series(terms, g1.dim)


def evaluate(gamma: DirichletSeries, z: complex) -> np.ndarray:
    """Partial sum sum a_n exp(-z ln n) with the real logarithm of n."""
    z = complex(z)
    d = gamma.dim
    if gamma.support == 0:
        return np.zeros((d, d), dtype=np.complex128)
    weights = np.exp(-z * np.log(gamma.freqs.astype(np.float64)))
    return np.einsum("p,pab->ab", weights, gamma.mats)


def bch_series(
    g1: DirichletSeries, g2: DirichletSeries, s: float, order: int
) -> DirichletSeries:
    """BCH product in the series algebra, truncated at bracket-degree `order`.

    Gated by norm_s(g1) + norm_s(g2) < log(3/2), the radius within which the
    series converges for any norm with a submultiplicative bracket.  Support
    is exact: frequency products are never truncated.  The walk is
    `words.apply_plan`, one degree at a time and, inside a degree, one
    left-normed basis bracket [parent, letter] per node, so each node costs
    one bracket against a leaf series and keeps only the frequencies it
    reaches; the weighted nodes are canonicalized once, at the end.
    """
    if g1.dim != g2.dim:
        raise ValidationError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    total = norm_s(g1, s) + norm_s(g2, s)
    if not total < BCH_DOMAIN_RADIUS:
        raise DomainError(
            f"half-plane norm sum {total} is not below log(3/2) = {BCH_DOMAIN_RADIUS}"
        )
    order = _words.checked_order(order)
    d = g1.dim
    tops = [int(g.freqs[-1]) for g in (g1, g2) if g.support]
    if not tops:
        return zero_series(d)
    if max(tops) ** order >= 2**62:
        raise DomainError(
            f"frequency products up to {max(tops)}^{order} leave the exact "
            "integer range; reduce the support or the order"
        )

    def brackets(values, leaves, parents, letters):
        pairs = zip(parents.tolist(), letters.tolist())
        return [_bracket_terms(*values[p], *leaves[a], d) for p, a in pairs]

    leaves = ((g1.freqs, g1.mats), (g2.freqs, g2.mats))
    levels = _words.apply_plan(order, leaves, brackets)
    freqs, mats = zip(*((v[i][0], w * v[i][1]) for v, positions, weights in levels
                        for i, w in zip(positions.tolist(), weights.tolist())))
    return DirichletSeries(np.concatenate(freqs), np.concatenate(mats), dim=d)


def exp_pointwise(gamma: DirichletSeries, z: complex) -> np.ndarray:
    """exp of the evaluated series: the pointwise image in the matrix group."""
    return mat_exp(evaluate(gamma, z))


class LeadingCoefficient(NamedTuple):
    value: np.ndarray
    tail_bound: float


def leading_coefficient(gamma: DirichletSeries, re_probe: float) -> LeadingCoefficient:
    """Probe of the first coefficient a_1 = limit of gamma(z) as Re z grows.

    Returns evaluate(gamma, re_probe) together with the certified tail bound
    sum over n >= 2 of compatible_norm(a_n) n^(-re_probe); the probe value
    differs from the stored a_1 by at most the tail bound.
    """
    re_probe = float(re_probe)
    if not re_probe >= LEADING_PROBE_MIN:
        raise DomainError(
            f"probe abscissa {re_probe} is below the minimum {LEADING_PROBE_MIN}"
        )
    value = evaluate(gamma, re_probe)
    terms = term_norms(gamma.freqs, gamma.mats, re_probe)
    tail = ordered_sum(t for t, n in zip(terms, gamma.freqs.tolist()) if n >= 2)
    return LeadingCoefficient(value, tail)


def series_to_json(gamma: DirichletSeries) -> dict:
    return {
        "dim": gamma.dim,
        "terms": [
            {"n": int(n), "coeff": matrix_to_json(gamma.mats[k])}
            for k, n in enumerate(gamma.freqs)
        ],
    }


def series_from_json(obj) -> DirichletSeries:
    obj = fields(obj, "series JSON", ("dim", "terms"))
    dim = integer(obj["dim"], "series dimension", 1)
    if dim * dim > MAX_TABLE_ENTRIES:
        raise ValidationError(f"series dimension {dim} is too large: its coefficients "
                              f"have more than {MAX_TABLE_ENTRIES} entries")
    terms = {}
    last = 0
    for entry in items(obj["terms"], "series terms"):
        entry = fields(entry, "series term", ("n", "coeff"))
        n = integer(entry["n"], "frequency", 1)
        if n <= last:
            raise ValidationError("terms must be sorted by strictly increasing frequency")
        last = n
        terms[n] = matrix_from_json(entry["coeff"], dim=dim)
    return DirichletSeries.from_terms(terms, dim=dim)
