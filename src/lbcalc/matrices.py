"""Square complex matrices as a Banach Lie algebra.

The norm used everywhere is twice the induced 1-norm (maximum absolute
column sum).  The factor two makes the norm compatible with the commutator,
||[x, y]|| <= ||x|| ||y||, which is what the convergence bounds below need.

The truncated Baker-Campbell-Hausdorff product accepts arguments whose norms
sum to less than log(3/2) and certifies that the result stays inside the ball
of radius log 2.  Both constants are checked, not assumed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .words import apply_plan, checked_order
from .errors import DomainError, InternalCheckError, ValidationError
from .jsonio import fields, integer, pairs, pairs_to_json

NORM_SCALE = 2.0
BCH_DOMAIN_RADIUS = math.log(1.5)
BCH_RESULT_BOUND = math.log(2.0)

_EXP_REDUCTION = 0.25    # scaled 1-norm before the Taylor sum
_EXP_TERMS = 22          # 0.25**23 / 23! is far below double roundoff
_LOG_REDUCTION = 0.25    # 1-norm of a - I before the Mercator sum
_LOG_TERMS = 32


def as_matrix(value, dim: int | None = None) -> np.ndarray:
    """Validate and return a square complex matrix as a fresh ndarray."""
    try:
        m = np.array(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not interpretable as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValidationError("matrix entries must be finite")
    if dim is not None and m.shape[0] != dim:
        raise ValidationError(f"expected dimension {dim}, got {m.shape[0]}")
    return m


def one_norm(x) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    return float(np.abs(x).sum(axis=0).max())


def compatible_norm(x) -> float:
    """Bracket-compatible norm, twice the induced 1-norm.

    The commutator satisfies
    compatible_norm([x, y]) <= compatible_norm(x) * compatible_norm(y).
    """
    return NORM_SCALE * one_norm(x)


def compatible_norms(stack) -> np.ndarray:
    """compatible_norm of every matrix in a (k, d, d) stack, in one pass.

    Each entry equals compatible_norm of that matrix bit for bit: the column
    sums add the rows in the same order, and the maximum is exact.
    """
    return NORM_SCALE * np.abs(stack).sum(axis=-2).max(axis=-1)


def commutator(x, y):
    return x @ y - y @ x


def _stacked_commutators(values, leaves, parents, letters):
    """[values[parents[i]], leaves[letters[i]]] for every i, on (n, d, d) stacks."""
    p, a = values[parents], leaves[letters]
    return p @ a - a @ p


def mat_exp(x) -> np.ndarray:
    """Matrix exponential by power-of-two scaling and a Taylor sum.

    The argument is divided by an exact power of two until its 1-norm is at
    most 0.25, the truncated series is evaluated by Horner's scheme, and the
    result is squared back up.  Past a 1-norm of 2^1021 that power overflows;
    below it, a result whose entries overflow is refused with DomainError.
    """
    x = as_matrix(x)
    eye = np.eye(x.shape[0], dtype=np.complex128)
    norm = one_norm(x)
    if not norm <= 2.0**1021:
        raise DomainError(f"mat_exp needs a 1-norm of at most 2^1021, got {norm}")
    squarings = 0
    if norm > _EXP_REDUCTION:
        squarings = int(math.ceil(math.log2(norm / _EXP_REDUCTION)))
    scaled = x / (2.0 ** squarings)
    result = eye.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_EXP_TERMS, 0, -1):
            result = eye + (scaled @ result) / k
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result.view(np.float64))):
        raise DomainError(f"mat_exp overflows the double range at a 1-norm of {norm}")
    return result


def mat_log(g) -> np.ndarray:
    """Principal matrix logarithm for g with ||g - I||_1 < 1.

    Inverse scaling: principal square roots are taken until the distance to
    the identity drops under 0.25, then the alternating Mercator series is
    summed and the count of roots is paid back by doubling.
    """
    g = as_matrix(g)
    eye = np.eye(g.shape[0], dtype=np.complex128)
    dist = one_norm(g - eye)
    if not dist < 1.0:
        raise DomainError(
            f"mat_log needs ||g - I||_1 < 1, got {dist}"
        )
    a = g
    halvings = 0
    while one_norm(a - eye) > _LOG_REDUCTION:
        a = np.asarray(scipy.linalg.sqrtm(a), dtype=np.complex128)
        halvings += 1
        if halvings > 64:
            raise InternalCheckError("square-root reduction failed to converge")
    delta = a - eye
    term = delta.copy()
    result = delta.copy()
    for m in range(2, _LOG_TERMS + 1):
        term = term @ delta
        result = result + ((1.0 if m % 2 else -1.0) / m) * term
    return result * float(2 ** halvings)


def bch(x, y, order: int) -> np.ndarray:
    """Truncated Baker-Campbell-Hausdorff product of two matrices.

    Requires compatible_norm(x) + compatible_norm(y) < log(3/2) and a
    truncation order between 1 and 12.  Each degree of the plan is one stacked
    commutator, and the weighted nodes are added in plan order.  The returned
    partial sum is certified to stay below log 2 in compatible norm; a
    violation would mean the series engine is broken: InternalCheckError.
    """
    x = as_matrix(x)
    y = as_matrix(y, dim=x.shape[0])
    checked_order(order)
    total = compatible_norm(x) + compatible_norm(y)
    if not total < BCH_DOMAIN_RADIUS:
        raise DomainError(
            f"norm sum {total} is not below log(3/2) = {BCH_DOMAIN_RADIUS}"
        )
    levels = apply_plan(order, np.stack((x, y)), _stacked_commutators)
    terms = [w[:, None, None] * v[pos] for v, pos, w in levels]
    out = np.add.accumulate(np.concatenate(terms))[-1]
    bound = compatible_norm(out)
    if not bound < BCH_RESULT_BOUND:
        raise InternalCheckError(
            f"truncated product norm {bound} escaped the log 2 ball"
        )
    return out


def matrix_to_json(x) -> dict:
    """Serialize to {"dim": n, "entries": [[re, im], ...]} in row-major order."""
    x = as_matrix(x)
    return {"dim": int(x.shape[0]), "entries": pairs_to_json(x)}


def matrix_from_json(obj, dim: int | None = None) -> np.ndarray:
    obj = fields(obj, "matrix JSON", ("dim", "entries"))
    n = integer(obj["dim"], "matrix dimension", 1)
    if dim is not None and n != dim:
        raise ValidationError(f"expected a {dim}x{dim} matrix, got dim {n}")
    return as_matrix(pairs(obj["entries"], "matrix entries", n * n).reshape(n, n))
