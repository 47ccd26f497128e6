"""Truncated Baker-Campbell-Hausdorff series in a left-normed Lie basis.

The series log(exp(x) exp(y)) is a sum of Lie elements, one per degree, and
the degree-k part lies in the free Lie algebra L_k on two letters, whose
dimension is the Witt number of k.  The evaluation plan holds a basis of
L_1 + ... + L_order made of left-normed brackets [..[[a1, a2], a3].., ak], one
node per basis element, and the exact coefficient of the series on each.

The basis is built one degree at a time.  Because L_k = [L_(k-1), L_1], the
children [b, x] and [b, y] of the degree k-1 nodes span L_k; the nodes of
degree k are the first maximal independent subset of them, found by
elimination mod a prime.  A Lie element is fixed by its coefficients on the
Lyndon words of its degree, so the candidates are compared on those columns
of their associative expansions only, and the weights solve a square system
whose right-hand side is the series' coefficients on the same Lyndon words.
The system is solved mod several primes, lifted to rationals by
reconstruction and then confirmed exactly in integers; each weight is
rounded to float once.  Per word, the series coefficient comes from an
integer count of the word's splittings into blocks x^i y^j, which expands
log(1 + (exp(X) exp(Y) - 1)).

Each node is [parent, letter] against a bare letter, so the nodes of one
degree are brackets of the nodes of the degree below with x or y, and
`apply_plan` walks the plan one degree at a time: matrices bracket a whole
degree as one stacked commutator, coefficient series one node at a time.
The plan of a lower order is a prefix of the plan of any higher one.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, InternalCheckError, ValidationError

MAX_ORDER = 12

_PRIME_TOP = 2**31  # residues below 2^31 keep every product inside int64
_MAX_PRIMES = 64


def checked_order(order) -> int:
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValidationError(f"truncation order must be an integer, got {order!r}")
    if order < 1:
        raise DomainError(f"truncation order must be positive, got {order}")
    if order > MAX_ORDER:
        raise DomainError(
            f"truncation order {order} exceeds the supported maximum {MAX_ORDER}"
        )
    return order


def bch_coefficient(word) -> Fraction:
    """Coefficient of a word in log(exp(X) exp(Y)); letters are 0 for X, 1 for Y.

    log(1 + Z) with Z = exp(X) exp(Y) - 1 gives the word the coefficient
    sum over m of (-1)^(m+1)/m times the sum, over splittings of the word
    into m nonempty blocks x^i y^j, of prod 1/(i! j!).  ways[e][m] holds that
    inner sum for the first e letters, scaled by e! so that it is an integer.
    """
    word = tuple(word)
    k = len(word)
    ways = [[0] * (k + 1) for _ in range(k + 1)]
    ways[0][0] = 1
    for pos in range(k):
        if not any(ways[pos]):
            continue
        xs = pos
        while xs < k and word[xs] == 0:
            xs += 1
        ys = xs
        while ys < k and word[ys] == 1:
            ys += 1
        # blocks x^i (i below the run of x) and x^run y^j (j up to the run of y)
        ends = list(range(pos + 1, xs)) + list(range(max(xs, pos + 1), ys + 1))
        for end in ends:
            i = min(end, xs) - pos
            mult = math.factorial(end) // (
                math.factorial(pos) * math.factorial(i) * math.factorial(end - pos - i)
            )
            row, out = ways[pos], ways[end]
            for m in range(k):
                if row[m]:
                    out[m + 1] += row[m] * mult
    lcm = math.lcm(*range(1, k + 1))
    total = sum((-1) ** (m + 1) * c * (lcm // m) for m, c in enumerate(ways[k]) if m)
    return Fraction(total, lcm * math.factorial(k))


def lyndon_words(k: int) -> list:
    """Lyndon words of length k over {0, 1}, in lexicographic order (Duval)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == k:
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()
    return out


def _children(expansions: np.ndarray) -> np.ndarray:
    """Expansions of [b, x], [b, y] for each row b, in that order.

    Row b holds the coefficients of the associative expansion of a degree-k
    element on the 2^k words, word u1..uk at index sum u_i 2^(k-i).  The
    children's coefficients are at most twice the parents' in magnitude, so
    a left-normed bracket of degree 12 stays within 2^11.
    """
    n, size = expansions.shape
    out = np.zeros((n, 2, 2 * size), dtype=np.int16)
    for a in (0, 1):
        out.reshape(n, 2, size, 2)[:, a, :, a] += expansions    # b a
        out.reshape(n, 2, 2, size)[:, a, a, :] -= expansions    # a b
    return out.reshape(2 * n, 2 * size)


@lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th largest prime below 2^31, counting from 0."""
    n = _PRIME_TOP + 1 if i == 0 else _prime(i - 1)
    while True:
        n -= 2
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            return n


def _row_reduce(m: np.ndarray, p: int) -> list:
    """Reduced row echelon form mod p, in place; the last column rides along.

    Returns the pivot columns, each the first column that is independent of
    the columns before it.
    """
    rows, cols = m.shape
    pivots = []
    for j in range(cols - 1):
        r = len(pivots)
        if r == rows:
            break
        nonzero = np.flatnonzero(m[r:, j])
        if nonzero.size == 0:
            continue
        q = r + int(nonzero[0])
        if q != r:
            m[[r, q]] = m[[q, r]]
        m[r, j:] = m[r, j:] * pow(int(m[r, j]), -1, p) % p
        hit = np.flatnonzero(m[:, j])
        hit = hit[hit != r]
        if hit.size:
            m[hit, j:] = (m[hit, j:] - np.outer(m[hit, j], m[r, j:])) % p
        pivots.append(j)
    return pivots


def _rational(a: int, m: int):
    """The fraction n/d with |n|, d <= sqrt(m/2) that is a mod m, or None."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _solve_level(cand: np.ndarray, target: list):
    """First independent rows of `cand` and the exact weights that give `target`.

    `cand` holds each candidate's coefficients on the Lyndon words of its
    degree, one row per candidate, and `target` the series' coefficients on
    the same words.  The chosen rows form an invertible square system; its
    solution is found mod successive primes, combined, lifted to rationals
    and accepted only when the integer check of every equation passes.
    """
    size = len(target)
    chosen = None
    modulus, lifted = 1, [0] * size
    for i in range(_MAX_PRIMES):
        p = _prime(i)
        cols = cand.T if chosen is None else cand[chosen].T
        system = np.empty((size, cols.shape[1] + 1), dtype=np.int64)
        system[:, :-1] = cols % p
        system[:, -1] = [t.numerator * pow(t.denominator, -1, p) % p for t in target]
        pivots = _row_reduce(system, p)
        if len(pivots) != size:
            continue  # p divides a minor that is nonzero over the rationals
        if chosen is None:
            chosen = pivots
        solution = system[: len(pivots), -1].tolist()
        step = pow(modulus, -1, p)
        lifted = [x + modulus * ((s - x) * step % p) for x, s in zip(lifted, solution)]
        modulus *= p
        weights = [_rational(x, modulus) for x in lifted]
        if None not in weights and _exact(cand[chosen], weights, target):
            return chosen, weights
    raise InternalCheckError(f"no exact basis weights after {_MAX_PRIMES} primes")


def _exact(rows: np.ndarray, weights: list, target: list) -> bool:
    """sum_n weights[n] * rows[n][l] == target[l] for every l, in integers."""
    denom = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (denom // w.denominator) for w in weights]
    return all(
        Fraction(sum(map(operator.mul, column, scaled)), denom) == t
        for column, t in zip(rows.T.tolist(), target)
    )


@lru_cache(maxsize=None)
def _exact_plan(order: int) -> tuple:
    """The plan of `order` with exact weights: the plan of order - 1 plus one degree.

    The expansions of the top-degree nodes of the plan of order - 1 are built
    from x and y along its degree tables, one degree at a time.
    """
    if order == 1:
        return ((None, 0, Fraction(1)), (None, 1, Fraction(1)))
    plan = _exact_plan(order - 1)
    expansions = np.eye(2, dtype=np.int16)
    for parents, letters, _, _ in degree_tables(order - 1)[1:]:
        expansions = _children(expansions)[2 * parents + letters]
    start = len(plan) - len(expansions)
    lyndon = lyndon_words(order)
    columns = [int("".join(map(str, w)), 2) for w in lyndon]
    cand = _children(expansions)[:, columns].astype(np.int64)
    chosen, weights = _solve_level(cand, [bch_coefficient(w) for w in lyndon])
    return plan + tuple(
        (start + c // 2, c % 2, w) for c, w in zip(chosen, weights)
    )


@lru_cache(maxsize=None)
def evaluation_plan(order: int) -> tuple:
    """Bracket evaluation plan for the series truncated at degree `order`.

    Returns a tuple of (parent, letter, weight) nodes, ordered by degree.  A
    node with parent None is the bare letter; otherwise its value is
    bracket(value[parent], letter).  The nodes of degree k are a basis of the
    degree-k Lie elements, and the weights are the series' coefficients in
    that basis, each rounded once from its exact value.
    """
    plan = _exact_plan(checked_order(order))
    return tuple((parent, letter, float(w)) for parent, letter, w in plan)


@lru_cache(maxsize=None)
def degree_tables(order: int) -> tuple:
    """The plan of `order` regrouped by degree, as index arrays.

    Entry k - 1 holds, for the nodes of degree k in plan order, the
    positions of their parents among the nodes of degree k - 1 (None at
    degree 1, whose nodes are x and y), their letters, and the positions and
    weights of the nodes whose weight is nonzero.
    """
    plan = _exact_plan(checked_order(order))
    starts = [0] + [len(_exact_plan(k)) for k in range(1, order + 1)]
    tables = []
    for prev, lo, hi in zip([None] + starts, starts, starts[1:]):
        parents, letters, weights = zip(*plan[lo:hi])
        weighted = [i for i, w in enumerate(weights) if w]
        tables.append((
            None if prev is None else np.array(parents) - prev,
            np.array(letters),
            np.array(weighted, dtype=np.intp),
            np.array([float(weights[i]) for i in weighted]),
        ))
    return tuple(tables)


def apply_plan(order: int, leaves, step) -> list:
    """Walk the plan one degree at a time; one (values, positions, weights) per degree.

    `leaves` holds the values of x and y, the nodes of degree 1, and
    `step(values, leaves, parents, letters)` returns the next degree's values,
    value i being bracket(values[parents[i]], leaves[letters[i]]).  The series
    is the sum, degree by degree in order, of weights[j] * values[positions[j]].
    """
    levels, values = [], leaves
    for parents, letters, positions, weights in degree_tables(order):
        if parents is not None:
            values = step(values, leaves, parents, letters)
        levels.append((values, positions, weights))
    return levels
