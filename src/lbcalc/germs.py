"""Anchored truncated series germs with majorant norms.

A germ is a finite family of truncated power series, one per anchor point in
C^d, with vector coefficients in C^d, total degree between 1 and D (so the
germ vanishes at every anchor), attached to a positive integer index n.  The
index fixes the ball radius 1/n used by the two majorant norms:

    sup_norm(g) = max over anchors of  sum_a ||c_a||  (1/n)^|a|
    d_norm(g)   = max over anchors of  sum_a |a| ||c_a|| (1/n)^(|a|-1)

with the max-absolute-component norm on coefficient vectors.  sup_norm
dominates the actual values on the ball and d_norm dominates the derivative's
operator norm there, and every degree-k term contributes (1/n) times more to
d_norm than to sup_norm, so sup_norm <= (1/n) d_norm holds term by term.
That comparison is asserted on every germ constructed anywhere; the counter
`norm_check_stats` records how often.

Composition works on the chart level: germs represent maps g + id, and the
returned germ is (g1 + id) o (g2 + id) - id = g1 o (g2 + id) + g2, truncated
at D.  It is gated by the containment check
(1 + d_norm(g2)) * (n + 2) <= l, which guarantees that the inner map sends
the radius-1/l ball into the radius-1/(n+2) ball where g1 is controlled.
Inversion solves the chart equation in one pass over the degrees, forming
each monomial of id + h once, and certifies at the output index 12n both
the 1/(6n) bound on the inverse's sup_norm and a residual whose sup_norm
is 1e-10 times that bound at most; the inverse keeps the residual it
certified, which `residual` hands back.

The algebra at one anchor (chart composition, its derivative and the
reversion) belongs to `lbcalc.series.SeriesSpace`, which owns the series
layout.  This module keeps the germ semantics: anchors and index, the
containment gates, the majorants, the certificates and JSON, and it loops
over the anchors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InternalCheckError, ValidationError
from .jsonio import fields, integer, items, pairs, pairs_to_json
from .series import space

DEFAULT_DEGREE = 8
INVERSION_D_BOUND = 0.5
INVERSION_INDEX_FACTOR = 12
INVERSION_SUP_FACTOR = 6

_NORM_SLACK = 1e-12          # rounding headroom for the constructor assertion
_RESIDUAL_TOL = 1e-10        # inversion defect's sup majorant, relative to the inverse's ceiling

norm_check_stats = {"checked": 0}


class AnchorSet:
    """Finite set of pairwise distinct anchor points in C^d.

    Distances are measured in the max-component norm, matching the vector
    norm used for series coefficients.
    """

    __slots__ = ("points", "dim", "min_distance")

    def __init__(self, points):
        pts = []
        for p in points:
            arr = np.asarray(p, dtype=np.complex128).reshape(-1)
            if arr.size == 0:
                raise ValidationError("anchor points need at least one component")
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValidationError("anchor coordinates must be finite")
            pts.append(arr)
        if not pts:
            raise ValidationError("an anchor set needs at least one point")
        d = pts[0].size
        if any(p.size != d for p in pts):
            raise ValidationError("all anchors must share one dimension")
        mind = math.inf
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dist = float(np.max(np.abs(pts[i] - pts[j])))
                if dist == 0.0:
                    raise ValidationError(f"anchors {i} and {j} coincide")
                mind = min(mind, dist)
        self.points = tuple(pts)
        self.dim = d
        self.min_distance = mind

    @classmethod
    def origin(cls, dim: int) -> "AnchorSet":
        return cls([np.zeros(dim)])

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnchorSet):
            return NotImplemented
        if self is other:
            return True
        return len(self) == len(other) and all(
            np.array_equal(a, b) for a, b in zip(self.points, other.points)
        )

    def __hash__(self):
        return hash((self.dim, len(self.points)))


class Germ:
    """Truncated series family over an AnchorSet at a fixed index.

    `coeffs` is one read-only (anchors, dim, (degree+1)**dim) array of packed
    blocks, one per anchor; see `lbcalc.series` for the layout.  Construction
    copies the blocks into it at once and checks it as a whole (finite, zero
    constant term and unused slots; a failed shape check names the first bad
    block), checks that multi-anchor balls of radius 2/index stay disjoint,
    and runs the sup/d norm comparison hook, whose majorants at the germ's
    own index stay valid and are reused by the norm functions.
    """

    __slots__ = ("anchors", "index", "degree", "coeffs", "_norms", "_defect")

    def __init__(self, anchors: AnchorSet, index: int, coeffs, degree: int = DEFAULT_DEGREE):
        if not isinstance(anchors, AnchorSet):
            anchors = AnchorSet(anchors)
        sp = _frame(anchors, index, degree)
        count = len(anchors)
        if len(coeffs) != count:
            raise ValidationError(f"got {len(coeffs)} coefficient blocks for {count} anchors")
        want = (anchors.dim, sp.size)
        try:  # one fresh (anchors, dim, size) copy, checked as a whole
            stack = np.array(coeffs, dtype=np.complex128)
        except ValueError:  # ragged blocks
            stack = None
        if stack is None or stack.shape[1:] != want:
            for block in coeffs:  # name the first bad block
                shape = np.asarray(block, dtype=np.complex128).shape
                if shape != want:
                    raise ValidationError(f"coefficient block has shape {shape}, expected {want}")
        if np.count_nonzero(np.isfinite(stack)) != stack.size:
            raise ValidationError("series coefficients must be finite")
        if np.count_nonzero(stack.take(sp.vanishing, axis=2)):
            if np.count_nonzero(stack[:, :, 0]):
                raise ValidationError("germs vanish at their anchors; degree-0 term must be zero")
            raise ValidationError("coefficients above the truncation degree must be zero")
        stack.setflags(write=False)
        self.anchors = anchors
        self.index = index
        self.degree = degree
        self.coeffs = stack
        self._norms = _run_norm_hook(sp, stack, index)
        self._defect = None  # (g, blocks) on an inverse of g; see `invert`

    @classmethod
    def from_terms(cls, anchors, index: int, terms_per_anchor, degree: int = DEFAULT_DEGREE) -> "Germ":
        """Build from one {multi-index: coefficient vector} dict per anchor."""
        if not isinstance(anchors, AnchorSet):
            anchors = AnchorSet(anchors)
        sp = space(anchors.dim, degree)
        blocks = [sp.from_terms(t, anchors.dim) for t in terms_per_anchor]
        return cls(anchors, index, blocks, degree)

    def terms(self, anchor: int = 0) -> dict:
        sp = space(self.anchors.dim, self.degree)
        return sp.to_terms(self.coeffs[anchor])

    @property
    def dim(self) -> int:
        return self.anchors.dim

    # Germs form a vector space over C; sums take the coarser (larger) index,
    # which is the direction in which restriction is trivial.
    def __add__(self, other: "Germ") -> "Germ":
        _check_frames(self, other)
        idx = max(self.index, other.index)
        return Germ(self.anchors, idx, self.coeffs + other.coeffs, self.degree)

    def __sub__(self, other: "Germ") -> "Germ":
        _check_frames(self, other)
        idx = max(self.index, other.index)
        return Germ(self.anchors, idx, self.coeffs - other.coeffs, self.degree)

    def __neg__(self) -> "Germ":
        return Germ(self.anchors, self.index, -self.coeffs, self.degree)

    def __mul__(self, scalar) -> "Germ":
        return Germ(self.anchors, self.index, complex(scalar) * self.coeffs, self.degree)

    __rmul__ = __mul__


def _frame(anchors: AnchorSet, index: int, degree: int):
    """Series space of a germ frame, after the index and disjointness checks."""
    integer(index, "germ index", 1)
    sp = space(anchors.dim, degree)
    if len(anchors) > 1 and not (2.0 / index < anchors.min_distance):
        raise DomainError(
            f"anchor balls of radius 1/{index} are not disjoint: "
            f"2/{index} >= minimal distance {anchors.min_distance}"
        )
    return sp


def sum_germs(germs) -> Germ:
    """g_1 + g_2 + ... + g_k, built once at the largest index.

    The blocks add left to right, exactly as a chain of `+` adds them.
    """
    first = germs[0]
    if len(germs) == 1:
        return first
    _check_frames(*germs)
    total = first.coeffs
    for g in germs[1:]:
        total = total + g.coeffs
    return Germ(first.anchors, max(g.index for g in germs), total, first.degree)


def zero_germ(anchors, index: int, degree: int = DEFAULT_DEGREE) -> Germ:
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    sp = space(anchors.dim, degree)
    blocks = [sp.zeros(anchors.dim) for _ in range(len(anchors))]
    return Germ(anchors, index, blocks, degree)


# -- norms ----------------------------------------------------------------


def _slot_norms(stack: np.ndarray) -> np.ndarray:
    """||c_a|| per anchor and slot: the largest component, or the only one."""
    norms = np.abs(stack)
    return norms[:, 0] if norms.shape[1] == 1 else np.maximum.reduce(norms, axis=1)


def _majorants(sp, stack: np.ndarray, rho: float) -> tuple:
    """(sup, derivative) majorants at radius rho, max over anchor blocks."""
    sup = 0.0
    dval = 0.0
    for sums in sp.degree_sums(_slot_norms(stack)).tolist():
        s = 0.0
        d = 0.0
        rho_pow = 1.0  # rho^(k-1)
        for k, h in enumerate(sums, start=1):
            if h:
                t = h * rho_pow
                s += t * rho
                d += k * t
            rho_pow *= rho
        sup = s if s > sup or s != s else sup  # keeps a NaN, which max() drops
        dval = d if d > dval or d != d else dval
    return sup, dval


def block_majorants(anchors: AnchorSet, index: int, blocks, degree: int) -> tuple:
    """(sup_norm, d_norm) that Germ(anchors, index, blocks, degree) would have.

    Runs the frame checks but builds no germ; the blocks themselves are not
    validated here, the Germ built from them validates them.
    """
    sp = _frame(anchors, index, degree)
    return _majorants(sp, np.asarray(blocks, dtype=np.complex128), 1.0 / index)


def norms_at_index(g: Germ, index: int) -> tuple:
    """(sup_norm, d_norm) majorants evaluated with radius 1/index."""
    if not isinstance(index, int) or index < 1:
        raise ValidationError(f"index must be a positive integer, got {index!r}")
    if index == g.index:
        return g._norms
    return _majorants(space(g.dim, g.degree), g.coeffs, 1.0 / index)


def sup_norm(g: Germ) -> float:
    """Value majorant on the balls of radius 1/index."""
    return norms_at_index(g, g.index)[0]


def d_norm(g: Germ) -> float:
    """Derivative majorant on the balls of radius 1/index."""
    return norms_at_index(g, g.index)[1]


def degree_majorants(g: Germ) -> np.ndarray:
    """Per-degree coefficient sums h_k = max over anchors of sum ||c_a||, |a| = k."""
    sp = space(g.dim, g.degree)
    out = np.zeros(g.degree + 1)
    out[1:] = np.maximum.reduce(sp.degree_sums(_slot_norms(g.coeffs)))
    return out


def _run_norm_hook(sp, stack: np.ndarray, index: int) -> tuple:
    """Check sup <= (1/n) d for a germ's blocks at its own index; return (sup, d)."""
    rho = 1.0 / index
    sup, dval = _majorants(sp, stack, rho)
    if sup > rho * dval * (1.0 + _NORM_SLACK):
        raise InternalCheckError(
            f"norm comparison failed: sup {sup} > (1/{index}) * d {dval}"
        )
    norm_check_stats["checked"] += 1
    return sup, dval


# -- composition ----------------------------------------------------------


def composition_codomain_index(n: int, d_bound: float) -> int:
    """Smallest integer index l satisfying the static rule l >= (R+1)(n+2)."""
    if d_bound < 0:
        raise ValidationError("derivative bound must be nonnegative")
    return int(math.ceil((d_bound + 1.0) * (n + 2)))


def _check_frames(*germs: Germ):
    """All germs share the first one's anchor set and truncation degree."""
    first = germs[0]
    for g in germs[1:]:
        if not isinstance(g, Germ):
            raise ValidationError(f"expected a germ, got {type(g).__name__}")
        if g.anchors != first.anchors:
            raise ValidationError("germs live over different anchor sets")
        if g.degree != first.degree:
            raise ValidationError("germs use different truncation degrees")


def _containment_gate(outer: Germ, inner: Germ):
    dn = d_norm(inner)
    lhs = (1.0 + dn) * (outer.index + 2)
    if lhs > inner.index:
        raise DomainError(
            "containment check failed: "
            f"(1 + d_norm {dn}) * (n + 2) = {lhs} exceeds codomain index {inner.index}"
        )


def compose(g1: Germ, g2: Germ) -> Germ:
    """Chart-level composition (g1 + id) o (g2 + id) - id, truncated.

    Equals g1 o (g2 + id) + g2 per anchor.  Gated by the containment check
    (1 + d_norm(g2)) (g1.index + 2) <= g2.index; the static sizing rule is
    available as composition_codomain_index.  The result lives at g2's index.
    When g2 = invert(g1) for this very g1 object, the blocks are the residual
    that `invert` certified; any other pair, an equal copy included, composes.
    """
    _check_frames(g1, g2)
    _containment_gate(g1, g2)
    if g2._defect is not None and g2._defect[0] is g1:
        blocks = g2._defect[1]
    else:
        sp = space(g1.dim, g1.degree)
        blocks = [sp.chart_compose(a, b) for a, b in zip(g1.coeffs, g2.coeffs)]
    return Germ(g1.anchors, g2.index, blocks, g1.degree)


def residual(g1: Germ, g2: Germ) -> Germ:
    """Defect of a candidate inverse: (g1 + id) o (g2 + id) - id.

    On the chart level this is exactly the composition product, so a germ g2
    inverts g1 precisely when the residual vanishes through the truncation
    degree.  `compose` hands back the defect of g2 = invert(g1) it certified.
    """
    return compose(g1, g2)


def compose_derivative(g1: Germ, g2: Germ, dg1: Germ, dg2: Germ) -> Germ:
    """Directional derivative of compose at (g1, g2) in direction (dg1, dg2).

    The three contributions are dg1 o (g2 + id), the Jacobian of g1 evaluated
    along g2 + id applied to dg2, and dg2 itself.  Directions must live at
    the indices of their base points.
    """
    _check_frames(g1, g2, dg1, dg2)
    if dg1.index != g1.index or dg2.index != g2.index:
        raise ValidationError("directions must carry the indices of their base germs")
    _containment_gate(g1, g2)
    sp = space(g1.dim, g1.degree)
    blocks = [sp.chart_derivative(*cols) for cols in zip(g1.coeffs, g2.coeffs, dg1.coeffs, dg2.coeffs)]
    return Germ(g1.anchors, g2.index, blocks, g1.degree)


def invert(g: Germ) -> Germ:
    """Compositional inverse on the chart level.

    Requires d_norm(g) <= 1/2 (which is stricter than the < 1 threshold that
    already guarantees a local diffeomorphism).  The inverse is returned at
    index 12 * g.index and solves the chart equation h + g o (id + h) = 0
    in one pass over the degrees, which forms each monomial of id + h once,
    degree by degree (see `SeriesSpace.chart_inverse`).  Two post-conditions
    are certified before returning: the residual, recomputed by a full
    chart composition, has a sup majorant at the output index 12 * g.index
    of at most 1e-10 times the ceiling 1 / (6 * g.index), and
    sup_norm(result) is at most that ceiling.  The residual is gated by a
    majorant, not by its largest coefficient: coefficient k of a germ at
    index n scales like n^(k-1).  The result keeps those residual blocks and
    g for `residual(g, result)`; every call computes them afresh.
    """
    dn = d_norm(g)
    if dn > INVERSION_D_BOUND:
        raise DomainError(
            f"inversion needs d_norm <= {INVERSION_D_BOUND}, got {dn}"
        )
    sp = space(g.dim, g.degree)
    out_index = INVERSION_INDEX_FACTOR * g.index
    ceiling = 1.0 / (INVERSION_SUP_FACTOR * g.index)
    blocks = [sp.chart_inverse(cols) for cols in g.coeffs]
    defects = [sp.chart_compose(cols, h) for cols, h in zip(g.coeffs, blocks)]
    worst = _majorants(sp, np.array(defects), 1.0 / out_index)[0]
    if not worst <= _RESIDUAL_TOL * ceiling:  # a NaN defect fails
        raise InternalCheckError(
            f"inversion residual sup_norm {worst} at index {out_index} exceeds {_RESIDUAL_TOL * ceiling}"
        )
    inv = Germ(g.anchors, out_index, blocks, g.degree)
    inv._defect = (g, defects)
    got = sup_norm(inv)
    if got > ceiling:
        raise InternalCheckError(
            f"inverse sup_norm {got} exceeds certified bound {ceiling}"
        )
    return inv


# -- derivative growth bound ----------------------------------------------


def derivative_bound(g: Germ, order: int) -> float:
    """Certified ceiling for the order-th derivative on the shrunk ball.

    Uses the two-radii estimate with outer radius R = 1/(n(n+1)), the gap
    between the 1/n and 1/(n+1) balls, and probe radius r = R/(4e), for which
    the overhead factor R/(R - 2er) collapses to 2:

        bound = 2 * order! * (4e / R)^order * sup_norm(g).
    """
    if not isinstance(order, int) or order < 0:
        raise ValidationError(f"derivative order must be a nonnegative integer, got {order!r}")
    n = g.index
    big_r = 1.0 / (n * (n + 1))
    return 2.0 * math.factorial(order) * (4.0 * math.e / big_r) ** order * sup_norm(g)


# -- serialization ----------------------------------------------------------


def germ_to_json(g: Germ) -> dict:
    series = []
    for a in range(len(g.anchors)):
        terms = [
            {"alpha": list(alpha), "coeff": pairs_to_json(vec)}
            for alpha, vec in sorted(g.terms(a).items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ]
        series.append({"anchor": a, "terms": terms})
    return {
        "dim": g.dim,
        "index": g.index,
        "degree": g.degree,
        "anchors": [pairs_to_json(p) for p in g.anchors.points],
        "series": series,
    }


def germ_from_json(obj) -> Germ:
    obj = fields(obj, "germ JSON", ("dim", "index", "degree", "anchors", "series"))
    dim = integer(obj["dim"], "germ dimension", 1)
    degree = integer(obj["degree"], "truncation degree", 1)
    anchors = AnchorSet([pairs(p, "anchor", dim) for p in items(obj["anchors"], "germ anchors")])
    terms_per_anchor = [None] * len(anchors)
    for block in items(obj["series"], "germ series"):
        block = fields(block, "series block", ("anchor", "terms"))
        a = integer(block["anchor"], "series block anchor", 0)
        if a >= len(anchors) or terms_per_anchor[a] is not None:
            raise ValidationError(f"series block anchor {a} is unknown or repeated")
        terms_per_anchor[a] = {}
        for term in items(block["terms"], "series block terms"):
            term = fields(term, "germ term", ("alpha", "coeff"))
            alpha = tuple(integer(x, "alpha entry", 0) for x in items(term["alpha"], "alpha"))
            terms_per_anchor[a][alpha] = pairs(term["coeff"], "coefficient", dim)
    return Germ.from_terms(anchors, obj["index"], [t or {} for t in terms_per_anchor], degree)
