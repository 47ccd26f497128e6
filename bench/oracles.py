"""Reference computations that the benchmark checks lbcalc's outputs against.

Nothing here calls lbcalc.  Each function re-derives a quantity by a route
of its own: the truncated BCH series from the associative expansion of
log(exp(sx) exp(sy)) in a grading variable s, the truncation tail from the
majorant series -log(2 - e^u), Dirichlet series and germs evaluated term by
term, series reversion in exact rational arithmetic, and the majorant norms
from the documented storage layouts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

EPS = np.finfo(np.float64).eps


# -- matrices ----------------------------------------------------------------


def one_norm(x) -> float:
    """Maximum absolute column sum."""
    return float(np.abs(x).sum(axis=0).max())


def compatible_norm(x) -> float:
    """Twice the 1-norm, which makes the commutator submultiplicative."""
    return 2.0 * one_norm(x)


def graded_bch(x, y, order: int) -> np.ndarray:
    """Sum of the degree 1..order parts of log(exp(x) exp(y)).

    Computed in the associative algebra: with P = exp(sx) exp(sy) - 1 as a
    polynomial in s with matrix coefficients, log(1 + P) = sum over m of
    (-1)^(m+1) P^m / m, truncated at s^order, then evaluated at s = 1.  Its
    degree-k part equals the Lie polynomial Z_k that the bracket form of the
    series produces, so the two routes agree up to rounding.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    d = x.shape[0]
    n = order + 1
    ex = np.zeros((n, d, d), dtype=np.complex128)
    ey = np.zeros((n, d, d), dtype=np.complex128)
    ex[0] = ey[0] = np.eye(d)
    for k in range(1, n):
        ex[k] = ex[k - 1] @ x / k
        ey[k] = ey[k - 1] @ y / k
    p = _graded_mul(ex, ey)
    p[0] = 0.0
    power = p.copy()
    log = p.copy()
    for m in range(2, n):
        power = _graded_mul(power, p)
        log += ((-1.0) ** (m + 1) / m) * power
    return log[1:].sum(axis=0)


def _graded_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials in s with matrix coefficients, truncated."""
    n = a.shape[0]
    out = np.zeros_like(a)
    for k in range(n):
        out[k] = np.einsum("iab,ibc->ac", a[: k + 1], b[k::-1])
    return out


@lru_cache(maxsize=None)
def _majorant_coefficients(terms: int = 64) -> tuple:
    """Taylor coefficients f_k of -log(2 - e^u) = sum_m (e^u - 1)^m / m.

    Every f_k is positive.  In a submultiplicative norm, sum over words of
    length k of |c_w| a^#x b^#y is at most f_k (a + b)^k, so the degree-k
    part Z_k of log(exp x exp y) has norm at most f_k (|x| + |y|)^k.
    """
    e1 = [0.0] + [1.0 / math.factorial(j) for j in range(1, terms)]
    power = [1.0] + [0.0] * (terms - 1)
    f = [0.0] * terms
    for m in range(1, terms):
        nxt = [0.0] * terms
        for i, pi in enumerate(power):
            if pi:
                for j in range(1, terms - i):
                    nxt[i + j] += pi * e1[j]
        power = nxt
        for k in range(terms):
            f[k] += power[k] / m
    return tuple(f)


def bch_tail_bound(u: float, order: int) -> float:
    """Bound on |log(exp x exp y) - sum_{k <= order} Z_k| in the 1-norm.

    u is |x|_1 + |y|_1 and must stay below log 2.  The sum runs to the end of
    the coefficient table; the remainder after it is bounded by a geometric
    series in u times the largest coefficient ratio of the last terms.
    """
    if not 0.0 <= u < math.log(2.0):
        raise ValueError(f"norm sum {u} is outside the convergence disk")
    f = _majorant_coefficients()
    tail = math.fsum(f[k] * u**k for k in range(order + 1, len(f)))
    ratio = max(f[k + 1] / f[k] for k in range(len(f) - 10, len(f) - 1)) * u
    last = f[-1] * u ** (len(f) - 1)
    return tail + last * ratio / (1.0 - ratio)


# -- Dirichlet series --------------------------------------------------------


def eval_dirichlet(freqs, mats, z: complex) -> np.ndarray:
    """sum_n a_n n^(-z), one Python power per term."""
    z = complex(z)
    out = np.zeros(mats.shape[1:], dtype=np.complex128)
    for n, a in zip(np.asarray(freqs).tolist(), mats):
        out = out + (float(n) ** (-z)) * a
    return out


def dirichlet_norm(freqs, mats, s: float) -> float:
    """sum_n compatible_norm(a_n) n^(-s), summed exactly then rounded."""
    return math.fsum(
        compatible_norm(a) * float(n) ** (-float(s))
        for n, a in zip(np.asarray(freqs).tolist(), mats)
    )


def product_closure(base, order: int) -> set:
    """All products of 1..order members of base (repetition allowed)."""
    base = sorted(set(int(b) for b in base))
    seen = set(base)
    layer = set(base)
    for _ in range(order - 1):
        layer = {a * b for a in layer for b in base}
        seen |= layer
    return seen


# -- germs -------------------------------------------------------------------


def germ_terms(germ_json: dict) -> list:
    """Per anchor, the list of (alpha, coefficient vector) from germ JSON."""
    out = []
    for block in sorted(germ_json["series"], key=lambda b: b["anchor"]):
        terms = []
        for term in block["terms"]:
            vec = np.array([complex(re, im) for re, im in term["coeff"]])
            terms.append((tuple(term["alpha"]), vec))
        out.append(terms)
    return out


def eval_terms(terms, x) -> np.ndarray:
    """sum over (alpha, c) of c * prod_i x_i^alpha_i."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros(x.size, dtype=np.complex128)
    for alpha, vec in terms:
        mono = 1.0 + 0.0j
        for xi, ai in zip(x, alpha):
            mono *= xi**ai
        out = out + vec * mono
    return out


def degree_sums(terms, degree: int) -> np.ndarray:
    """h_k = sum over |alpha| = k of the max-component norm of c_alpha."""
    h = np.zeros(degree + 1)
    for alpha, vec in terms:
        h[sum(alpha)] += float(np.abs(vec).max())
    return h


def composite_majorant(outer_h: np.ndarray, inner_h: np.ndarray) -> np.ndarray:
    """Coefficients of G(t + H(t)), where G and H have coefficients h_k.

    Bounds coefficientwise the majorant series of g(x + h(x)) in the
    max-component norm.
    """
    arg = np.zeros(max(2, inner_h.size))
    arg[: inner_h.size] += inner_h
    arg[1] += 1.0
    out = np.zeros(1)
    power = np.ones(1)
    for k, hk in enumerate(outer_h):
        if k:
            power = np.convolve(power, arg)
        if hk:
            grown = np.zeros(max(out.size, power.size))
            grown[: out.size] += out
            grown[: power.size] += hk * power
            out = grown
    return out


def composite_defect_bound(outer_terms, inner_terms, degree: int, r: float) -> float:
    """Bound on |result(x) - inner(x) - outer(x + inner(x))| for |x| <= r.

    result is the composite truncated at `degree`; only the terms of degree
    above it remain, bounded by the majorant coefficients past the
    truncation.  A rounding allowance of 1e-12 times the whole majorant is
    added.
    """
    m = composite_majorant(degree_sums(outer_terms, degree), degree_sums(inner_terms, degree))
    powers = r ** np.arange(m.size)
    tail = float(np.sum(m[degree + 1 :] * powers[degree + 1 :]))
    scale = float(np.sum(m * powers)) + float(
        np.sum(degree_sums(inner_terms, degree) * powers[: degree + 1])
    )
    return tail + 1e-12 * scale


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cinv(a):
    den = a[0] * a[0] + a[1] * a[1]
    return (a[0] / den, -a[1] / den)


def _cfrac(c: complex):
    return (Fraction(c.real), Fraction(c.imag))


def exact_inverse_1d(coeffs, degree: int) -> list:
    """Chart inverse of a one-variable germ, exactly, by Lagrange reversion.

    coeffs[k] is the x^k coefficient of g (k = 1..degree, coeffs[0] unused).
    Returns h_1..h_degree as complex numbers rounded once from exact
    Gaussian rationals, where x + h(x) inverts x + g(x) through the degree:
    [y^k] f^-1 = (1/k) [x^(k-1)] (x / f(x))^k.
    """
    zero = (Fraction(0), Fraction(0))
    u = [_cfrac(complex(coeffs[k + 1])) for k in range(degree)]  # f(x)/x
    u[0] = (u[0][0] + 1, u[0][1])
    inv0 = _cinv(u[0])
    v = [zero] * degree  # 1/u
    v[0] = inv0
    for m in range(1, degree):
        acc = zero
        for i in range(1, m + 1):
            p = _cmul(u[i], v[m - i])
            acc = (acc[0] + p[0], acc[1] + p[1])
        q = _cmul(acc, inv0)
        v[m] = (-q[0], -q[1])
    out = []
    w = [(Fraction(1), Fraction(0))] + [zero] * (degree - 1)
    for k in range(1, degree + 1):
        nxt = [zero] * degree
        for i, wi in enumerate(w):
            if wi == zero:
                continue
            for j in range(degree - i):
                p = _cmul(wi, v[j])
                nxt[i + j] = (nxt[i + j][0] + p[0], nxt[i + j][1] + p[1])
        w = nxt
        re, im = w[k - 1][0] / k, w[k - 1][1] / k
        if k == 1:
            re -= 1
        out.append(complex(float(re), float(im)))
    return out


@lru_cache(maxsize=None)
def slot_degrees(dim: int, degree: int) -> np.ndarray:
    """Total degree of each packed slot, or -1 where the slot is unused.

    lbcalc stores a multi-index alpha at position sum_i alpha_i (D+1)^i.
    """
    base = degree + 1
    size = base**dim
    slots = np.arange(size)
    total = np.zeros(size, dtype=np.int64)
    rest = slots.copy()
    for _ in range(dim):
        total += rest % base
        rest //= base
    total[total > degree] = -1
    return total


def packed_degree_sums(block: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """h_k of one packed (dim, size) coefficient block, k = 0..degree."""
    deg = slot_degrees(dim, degree)
    used = deg >= 0
    return np.bincount(deg[used], weights=np.abs(block[:, used]).max(axis=0), minlength=degree + 1)


def germ_sup(coeffs, dim: int, degree: int, index: int) -> float:
    """Sup majorant at radius 1/index: max over anchors of sum_k h_k index^-k."""
    rho = 1.0 / index
    powers = rho ** np.arange(degree + 1)
    return max(float(packed_degree_sums(b, dim, degree) @ powers) for b in coeffs)


def germ_dnorm(coeffs, dim: int, degree: int, index: int) -> float:
    """Derivative majorant: max over anchors of sum_k k h_k index^-(k-1)."""
    rho = 1.0 / index
    k = np.arange(degree + 1)
    weights = k * rho ** np.maximum(k - 1, 0)
    return max(float(packed_degree_sums(b, dim, degree) @ weights) for b in coeffs)


def polarization(k: int) -> float:
    """(2k)^k / k!, the factor from directional to multilinear bounds."""
    return 1.0 if k == 0 else float((2 * k) ** k) / math.factorial(k)
