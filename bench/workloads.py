"""The benchmark's three workloads.

Each workload is one kind of task, and every task of a workload has the same
make-up, so task times have one mode.  A task goes through four steps:

* `draw(rng)` makes the raw inputs (numpy arrays and numbers) from the
  task's own generator, without calling lbcalc;
* `run(inputs)` is the timed part: it builds lbcalc objects from the raw
  inputs and runs the user-level operations;
* `check(inputs, outputs)` returns a list of problems, empty when the
  outputs pass every check against the reference computations of
  `oracles`;
* `tally(inputs, outputs, counts)` adds the call counts that the task
  implies, which a traced run compares with the counts it observed.

`setup()` builds what the workload needs before its first task: the word
plans, the series spaces, the anchor sets and the catalog maps.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

import oracles
from lbcalc import catalog, dirichlet, estimates, germs, limits, matrices, words

LOG_3_2 = math.log(1.5)
LOG_2 = math.log(2.0)
SHARP_TOL = 1e-14  # two routes to the same truncated series: rounding only


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _split_norm(rng) -> tuple:
    """Two norm targets whose sum lies in [0.5, 0.999] log(3/2)."""
    total = LOG_3_2 * rng.uniform(0.5, 0.999)
    frac = rng.uniform(0.25, 0.75)
    return total * frac, total * (1.0 - frac)


# -- bch-products --------------------------------------------------------------


class BchProducts:
    """Matrix BCH at every order 8..12, then one BCH product per Dirichlet walker.

    The dense pair has supports whose union is {2, 3, 5}; at order 8 its
    product lattice (164 frequencies) stays under the dense-walker cap.  The
    sparse pair splits the six primes up to 13 between its two series; at
    order 8 the lattice has 3002 frequencies and the sparse walker runs.
    Fixing the unions fixes the walker and the lattice size of every task.
    """

    name = "bch-products"
    MATRIX_ORDERS = (8, 9, 10, 11, 12)
    DENSE_POOL = (2, 3, 5)
    SPARSE_POOL = (2, 3, 5, 7, 11, 13)
    DENSE_ORDER = 8
    SPARSE_ORDER = 8
    S = 0.0
    PROBES = (0.0 + 0.0j, 1.0 + 0.5j, 2.0 - 1.0j)

    def setup(self):
        for order in self.MATRIX_ORDERS:
            words.evaluation_plan(order)

    def draw(self, rng) -> dict:
        pairs = []
        for order in self.MATRIX_ORDERS:
            dim = int(rng.integers(2, 5))
            x = _complex_normal(rng, (dim, dim))
            y = _complex_normal(rng, (dim, dim))
            tx, ty = _split_norm(rng)
            pairs.append((x * (tx / oracles.compatible_norm(x)), y * (ty / oracles.compatible_norm(y)), order))
        drop = int(rng.integers(3))
        dense_1 = [p for k, p in enumerate(self.DENSE_POOL) if k != drop]
        dense_2 = sorted({self.DENSE_POOL[drop], int(rng.choice(dense_1))})
        perm = [int(p) for p in rng.permutation(self.SPARSE_POOL)]
        supports = (
            (dense_1, dense_2, self.DENSE_ORDER),
            (sorted(perm[:3]), sorted(perm[3:]), self.SPARSE_ORDER),
        )
        series_pairs = []
        for f1, f2, order in supports:
            t1, t2 = _split_norm(rng)
            m1 = _complex_normal(rng, (len(f1), 2, 2))
            m2 = _complex_normal(rng, (len(f2), 2, 2))
            m1 *= t1 / oracles.dirichlet_norm(f1, m1, self.S)
            m2 *= t2 / oracles.dirichlet_norm(f2, m2, self.S)
            series_pairs.append((np.array(f1), m1, np.array(f2), m2, order))
        return {"pairs": pairs, "series": series_pairs}

    def run(self, inputs) -> dict:
        products = [matrices.bch(x, y, order) for x, y, order in inputs["pairs"]]
        series_out = []
        for f1, m1, f2, m2, order in inputs["series"]:
            g1 = dirichlet.DirichletSeries(f1, m1)
            g2 = dirichlet.DirichletSeries(f2, m2)
            z = dirichlet.bch_series(g1, g2, self.S, order)
            series_out.append((z, [dirichlet.exp_pointwise(z, p) for p in self.PROBES]))
        return {"products": products, "series": series_out}

    def check(self, inputs, outputs) -> list:
        problems = []
        for (x, y, order), z in zip(inputs["pairs"], outputs["products"]):
            problems += check_matrix_bch(x, y, order, z)
        for (f1, m1, f2, m2, order), (z, exps) in zip(inputs["series"], outputs["series"]):
            problems += check_series_bch(f1, m1, f2, m2, order, z.freqs, z.mats, self.PROBES, exps)
        return problems

    def tally(self, inputs, outputs, counts):
        counts["matrices.bch.calls"] += len(inputs["pairs"])
        counts["dirichlet.bch_series.calls"] += len(inputs["series"])
        counts["matrices.mat_exp.calls"] += len(inputs["series"]) * len(self.PROBES)


def check_matrix_bch(x, y, order, z) -> list:
    """Matrix BCH against logm(expm x expm y), the graded series and log 2."""
    problems = []
    oracle = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
    tail = oracles.bch_tail_bound(oracles.one_norm(x) + oracles.one_norm(y), order)
    gap = oracles.one_norm(z - oracle)
    if not gap <= tail + 1e-12:
        problems.append(f"bch order {order}: |z - logm| = {gap:.3g} exceeds tail bound {tail:.3g}")
    sharp = oracles.one_norm(z - oracles.graded_bch(x, y, order))
    if not sharp <= SHARP_TOL:
        problems.append(f"bch order {order}: differs from the graded series by {sharp:.3g}")
    norm = oracles.compatible_norm(z)
    if not norm < LOG_2:
        problems.append(f"bch order {order}: compatible norm {norm} is not below log 2")
    return problems


def check_series_bch(f1, m1, f2, m2, order, freqs, mats, probes, exps) -> list:
    """bch_series by support, exp homomorphism, graded series and exp_pointwise."""
    problems = []
    closure = oracles.product_closure(list(f1) + list(f2), order)
    outside = sorted(set(int(n) for n in freqs) - closure)
    if outside:
        problems.append(f"bch_series order {order}: frequencies {outside[:5]} are not products of <= {order} support members")
    for p, e in zip(probes, exps):
        a = oracles.eval_dirichlet(f1, m1, p)
        b = oracles.eval_dirichlet(f2, m2, p)
        zp = oracles.eval_dirichlet(freqs, mats, p)
        lhs = scipy.linalg.expm(zp)
        rhs = scipy.linalg.expm(a) @ scipy.linalg.expm(b)
        tail = oracles.bch_tail_bound(oracles.one_norm(a) + oracles.one_norm(b), order)
        tol = tail * math.exp(oracles.one_norm(zp) + tail) + 1e-12
        gap = oracles.one_norm(lhs - rhs)
        if not gap <= tol:
            problems.append(f"bch_series at {p}: exp homomorphism gap {gap:.3g} exceeds {tol:.3g}")
        sharp = oracles.one_norm(zp - oracles.graded_bch(a, b, order))
        if not sharp <= SHARP_TOL:
            problems.append(f"bch_series at {p}: differs from the graded series by {sharp:.3g}")
        off = oracles.one_norm(np.asarray(e) - lhs)
        if not off <= 1e-12:
            problems.append(f"exp_pointwise at {p}: differs from expm by {off:.3g}")
    return problems


# -- germ-calculus ---------------------------------------------------------------


class GermCalculus:
    """Inversion, composition and its derivative on germs of dims 1, 2 and 3.

    Every task handles one germ family per entry of PLAN, (dim, anchors):
    invert with its residual, then compose and compose_derivative on a
    fresh quadruple.  It then probes the bound of the dim-1 inverse at its
    first anchor with verify_bounded_series on a sample without majorants,
    so the contour route runs.
    """

    name = "germ-calculus"
    PLAN = ((1, 2), (2, 2), (3, 1))
    DEGREE = 8
    QUADRATURE = 32
    POINTS = 3        # pointwise checks per anchor
    FD_STEP = 1e-5    # central-difference step for compose_derivative

    def setup(self):
        self.anchors = {}
        for dim, count in self.PLAN:
            points = [np.zeros(dim), np.full(dim, 3.0)][:count]
            anchors = germs.AnchorSet(points)
            germs.zero_germ(anchors, 1, self.DEGREE)
            self.anchors[dim] = anchors

    def _blocks(self, rng, dim, count, index, terms, d_target=None, sup_target=None):
        deg = oracles.slot_degrees(dim, self.DEGREE)
        valid = np.flatnonzero(deg >= 1)
        terms = min(terms, valid.size)
        blocks = np.zeros((count, dim, deg.size), dtype=np.complex128)
        for cols in blocks:
            slots = rng.choice(valid, size=terms, replace=False)
            cols[:, slots] = _complex_normal(rng, (dim, terms))
        if d_target is not None:
            blocks *= d_target / oracles.germ_dnorm(blocks, dim, self.DEGREE, index)
        else:
            blocks *= sup_target / oracles.germ_sup(blocks, dim, self.DEGREE, index)
        return blocks

    def draw(self, rng) -> dict:
        families = []
        for dim, count in self.PLAN:
            n = int(rng.integers(1, 5))
            nc = int(rng.integers(1, 5))
            l = math.ceil(1.6 * (nc + 2))  # containment with d_norm(inner) <= 0.6
            radius = 1.0 / (24 * n)        # half the inverse's radius 1/(12n)
            families.append({
                "dim": dim,
                "n": n,
                "g": self._blocks(rng, dim, count, n, 12, d_target=rng.uniform(0.05, 0.45)),
                "nc": nc,
                "l": l,
                "outer": self._blocks(rng, dim, count, nc, 8, sup_target=0.3),
                "inner": self._blocks(rng, dim, count, l, 8, d_target=0.4),
                "d_outer": self._blocks(rng, dim, count, nc, 6, sup_target=0.1),
                "d_inner": self._blocks(rng, dim, count, l, 6, d_target=0.05),
                "points": radius * np.exp(2j * math.pi * rng.random((count, self.POINTS, dim))),
                "compose_points": (0.5 / l) * np.exp(2j * math.pi * rng.random((count, self.POINTS, dim))),
            })
        return {"families": families, "probe_seed": int(rng.integers(2**31))}

    def run(self, inputs) -> dict:
        out = []
        for fam in inputs["families"]:
            anchors = self.anchors[fam["dim"]]
            g = germs.Germ(anchors, fam["n"], fam["g"], self.DEGREE)
            h = germs.invert(g)
            res = germs.residual(g, h)
            outer = germs.Germ(anchors, fam["nc"], fam["outer"], self.DEGREE)
            inner = germs.Germ(anchors, fam["l"], fam["inner"], self.DEGREE)
            d_outer = germs.Germ(anchors, fam["nc"], fam["d_outer"], self.DEGREE)
            d_inner = germs.Germ(anchors, fam["l"], fam["d_inner"], self.DEGREE)
            comp = germs.compose(outer, inner)
            deriv = germs.compose_derivative(outer, inner, d_outer, d_inner)
            out.append({"g": g, "h": h, "res": res, "germs": (outer, inner, d_outer, d_inner),
                        "compose": comp, "derivative": deriv})
        sample = estimates.sample_from_germ(out[0]["h"], 0)
        probe = dataclasses.replace(sample, majorants=None)
        r = 0.5 * probe.radius / (2.0 * math.e)
        report = estimates.verify_bounded_series(
            [probe], r, quadrature=self.QUADRATURE, seed=inputs["probe_seed"]
        )
        return {"families": out, "report": report}

    def check(self, inputs, outputs) -> list:
        problems = []
        for fam, got in zip(inputs["families"], outputs["families"]):
            problems += self.check_family(fam, got)
        inverse = oracles.germ_terms(germs.germ_to_json(outputs["families"][0]["h"]))[0]
        problems += check_probe(inverse, self.DEGREE, outputs["report"])
        return problems

    def check_family(self, fam, got) -> list:
        problems = []
        dim, n = fam["dim"], fam["n"]
        g_terms = oracles.germ_terms(germs.germ_to_json(got["g"]))
        h_terms = oracles.germ_terms(germs.germ_to_json(got["h"]))
        worst = max(float(np.abs(c).max()) for c in got["res"].coeffs)
        if not worst <= 1e-10:
            problems.append(f"dim {dim}: residual coefficient {worst:.3g} above 1e-10")
        sup = max(float(oracles.degree_sums(t, self.DEGREE) @ (1.0 / (12 * n)) ** np.arange(self.DEGREE + 1))
                  for t in h_terms)
        if not sup <= (1.0 + 1e-12) / (6 * n):
            problems.append(f"dim {dim}: inverse sup {sup} above 1/(6n) = {1.0 / (6 * n)}")
        for a, (gt, ht) in enumerate(zip(g_terms, h_terms)):
            if dim == 1:
                problems += check_inverse_exact(gt, ht, self.DEGREE, n)
            else:
                problems += check_composite(gt, ht, [], self.DEGREE, fam["points"][a], f"dim {dim} inverse")
        outer, inner, d_outer, d_inner = got["germs"]
        comp_terms = oracles.germ_terms(germs.germ_to_json(got["compose"]))
        o_terms = oracles.germ_terms(germs.germ_to_json(outer))
        i_terms = oracles.germ_terms(germs.germ_to_json(inner))
        for a in range(len(o_terms)):
            problems += check_composite(o_terms[a], i_terms[a], comp_terms[a], self.DEGREE,
                                        fam["compose_points"][a], f"dim {dim} compose")
        problems += check_derivative(outer, inner, d_outer, d_inner, got["derivative"], self.FD_STEP)
        return problems

    def tally(self, inputs, outputs, counts):
        fams = len(inputs["families"])
        dim = inputs["families"][0]["dim"]
        coefficients = 3 * dim * (self.DEGREE + 1)
        counts["germs.invert.calls"] += fams
        counts["germs.compose_derivative.calls"] += fams
        counts["germs.compose.calls"] += 2 * fams  # residual composes once
        counts["estimates.verify_bounded_series.calls"] += 1
        counts["estimates.contour_coefficients"] += coefficients
        counts["estimates.point_evaluations"] += coefficients * self.QUADRATURE


def check_inverse_exact(g_terms, h_terms, degree, n) -> list:
    """Dim-1 inverse coefficients against exact rational reversion.

    Coefficient k is compared on the scale of the inverse's ball, weighted
    by (12n)^-k, where the sup bound caps each term at 1/(6n).
    """
    coeffs = [0j] * (degree + 1)
    for (k,), vec in g_terms:
        coeffs[k] = complex(vec[0])
    have = [0j] * (degree + 1)
    for (k,), vec in h_terms:
        have[k] = complex(vec[0])
    exact = oracles.exact_inverse_1d(coeffs, degree)
    rho = 1.0 / (12 * n)
    worst = max(abs(have[k] - exact[k - 1]) * rho**k for k in range(1, degree + 1))
    if not worst <= 1e-15:
        return [f"dim 1 inverse: scaled gap {worst:.3g} to the exact reversion"]
    return []


def check_composite(outer_terms, inner_terms, result_terms, degree, points, what) -> list:
    """result(x) = inner(x) + outer(x + inner(x)) up to the truncation tail."""
    problems = []
    for x in points:
        r = float(np.abs(x).max())
        step = oracles.eval_terms(inner_terms, x)
        want = step + oracles.eval_terms(outer_terms, x + step)
        have = oracles.eval_terms(result_terms, x)
        gap = float(np.abs(have - want).max())
        bound = oracles.composite_defect_bound(outer_terms, inner_terms, degree, r)
        if not gap <= bound:
            problems.append(f"{what}: pointwise defect {gap:.3g} at |x| = {r:.3g} exceeds {bound:.3g}")
    return problems


def check_derivative(outer, inner, d_outer, d_inner, deriv, step) -> list:
    """compose_derivative against central differences of compose."""
    plus = germs.compose(outer + step * d_outer, inner + step * d_inner)
    minus = germs.compose(outer + (-step) * d_outer, inner + (-step) * d_inner)
    scale = max(1.0, max(float(np.abs(c).max()) for c in deriv.coeffs))
    gap = max(
        float(np.abs(e - (p - m) / (2.0 * step)).max())
        for e, p, m in zip(deriv.coeffs, plus.coeffs, minus.coeffs)
    ) / scale
    if not gap <= 1e-6:
        return [f"compose_derivative: relative gap {gap:.3g} to central differences"]
    return []


def check_probe(terms, degree, report) -> list:
    """Probed degree bounds against polarization times the coefficient sums.

    Upper bound: a unit direction sees at most h_k in degree k.  Lower
    bound: the probes include the coordinate directions, which see the pure
    powers exactly.  Both allow the rounding of the contour sum, which is
    divided by s^k.
    """
    problems = []
    if report.route != "probed":
        problems.append(f"probe took the {report.route} route")
    h = oracles.degree_sums(terms, degree)
    pure = np.zeros(degree + 1)
    for alpha, vec in terms:
        if sum(1 for a in alpha if a) == 1:
            pure[sum(alpha)] = max(pure[sum(alpha)], float(np.abs(vec).max()))
    s = report.s
    mass = float(h @ s ** np.arange(degree + 1))
    for k, beta in enumerate(report.degrees):
        factor = oracles.polarization(k)
        slack = 64 * oracles.EPS * mass / s**k
        if not beta <= factor * (h[k] + slack):
            problems.append(f"probe degree {k}: {beta:.6g} above {factor:.6g} x {h[k]:.6g}")
        if not beta >= factor * (pure[k] - slack):
            problems.append(f"probe degree {k}: {beta:.6g} below {factor:.6g} x pure power {pure[k]:.6g}")
    return problems


# -- certificate-hammer ------------------------------------------------------------


class _Recorder:
    """Stands in for a map and its step scale, and keeps what passes through."""

    def __init__(self, f, scale):
        self._f = f
        self._scale = scale
        self.terms = []
        self.outputs = []

    def f(self, x):
        y = self._f(x)
        self.outputs.append(y)
        return y

    def norm(self, j, x):
        return self._scale.norm(j, x)

    def random(self, j, rng, target):
        x = self._scale.random(j, rng, target)
        self.terms.append((j, x))
        return x

    def zero(self):
        return self._scale.zero()

    def combine(self, terms):
        return self._scale.combine(terms)


class CertificateHammer:
    """One pass over the 20 registry maps, SAMPLES decompositions each."""

    name = "certificate-hammer"
    SAMPLES = 20
    OUT_S = 3.0      # the registry measures Dirichlet outputs at s = 3
    OUT_INDEX = 3    # and germ outputs by the sup majorant at index 3

    def setup(self):
        self.maps = [(case.name, case.kind, *case.bundle()) for case in catalog.map_registry()]

    def draw(self, rng) -> dict:
        return {"seeds": [int(s) for s in rng.integers(0, 2**63 - 1, size=len(self.maps))]}

    def run(self, inputs) -> dict:
        reports = []
        records = []
        for (_, _, f, out_norm, scale, cert), seed in zip(self.maps, inputs["seeds"]):
            rec = _Recorder(f, scale)
            reports.append(limits.verify_certificate(rec.f, out_norm, cert, rec, samples=self.SAMPLES, seed=seed))
            records.append(rec)
        return {"reports": reports, "records": records}

    def check(self, inputs, outputs) -> list:
        problems = []
        for (name, kind, _, _, scale, cert), rep, rec in zip(self.maps, outputs["reports"], outputs["records"]):
            problems += check_certificate(name, kind, scale, cert, rep, rec, self.SAMPLES,
                                          self._out_norm(kind))
        return problems

    def _out_norm(self, kind):
        if kind == "matrix":
            return oracles.compatible_norm
        if kind == "dirichlet":
            return lambda g: oracles.dirichlet_norm(g.freqs, g.mats, self.OUT_S)
        return lambda g: oracles.germ_sup(g.coeffs, g.dim, g.degree, self.OUT_INDEX)

    def tally(self, inputs, outputs, counts):
        counts["limits.verify_certificate.calls"] += len(self.maps)
        counts["limits.samples"] += len(self.maps) * self.SAMPLES
        counts["sampling.draws"] += sum(len(rec.terms) for rec in outputs["records"])


def step_norm(kind, j, x) -> float:
    """Norm of step j: compatible, half-plane at s = j, or sup at index j."""
    if kind == "matrix":
        return oracles.compatible_norm(x)
    if kind == "dirichlet":
        return oracles.dirichlet_norm(x.freqs, x.mats, float(j))
    return oracles.germ_sup(x.coeffs, x.dim, x.degree, j)


def check_certificate(name, kind, scale, cert, rep, rec, samples, out_norm) -> list:
    """Verdict, margin, every drawn term inside its ball, max_observed re-measured."""
    problems = []
    if not (rep["verdict"] is True and rep["margin"] > 0.0):
        problems.append(f"{name}: verdict {rep['verdict']} with margin {rep['margin']}")
    if rep["samples"] != samples or len(rec.outputs) != samples + 1:
        problems.append(f"{name}: {len(rec.outputs) - 1} decompositions for {samples} samples")
    for j, x in rec.terms:
        norm = step_norm(kind, j, x)
        if not norm < cert.delta[j - 1]:
            problems.append(f"{name}: step-{j} term of norm {norm} outside delta {cert.delta[j - 1]}")
    worst = max(out_norm(y) for y in rec.outputs)
    if not abs(worst - rep["max_observed"]) <= 1e-12 * worst:
        problems.append(f"{name}: re-measured maximum {worst!r} differs from max_observed {rep['max_observed']!r}")
    return problems


WORKLOADS = {w.name: w for w in (BchProducts, GermCalculus, CertificateHammer)}
