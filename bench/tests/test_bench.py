"""Tests of the benchmark itself: its output checks and its traced counts.

Run from the repository root with `python3 -m pytest bench/tests -q`.  They
are kept apart from the package's own test suite.
"""

import collections
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lbcalc  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lbcalc import dirichlet, germs, matrices  # noqa: E402


def rng(seed=0):
    return np.random.default_rng(seed)


# -- bch-products ------------------------------------------------------------


def matrix_pair(seed, dim=3, total=0.99 * math.log(1.5)):
    g = rng(seed)
    x = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    y = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return x * (0.5 * total / oracles.compatible_norm(x)), y * (0.5 * total / oracles.compatible_norm(y))


def test_matrix_check_accepts_the_program():
    x, y = matrix_pair(1)
    for order in (4, 8, 12):
        assert workloads.check_matrix_bch(x, y, order, matrices.bch(x, y, order)) == []


def test_matrix_check_rejects_a_perturbed_entry():
    x, y = matrix_pair(2)
    z = matrices.bch(x, y, 8).copy()
    z[0, 1] += 1e-9
    assert any("graded series" in p for p in workloads.check_matrix_bch(x, y, 8, z))
    z[0, 1] += 1e-3
    assert any("tail bound" in p for p in workloads.check_matrix_bch(x, y, 8, z))


def test_matrix_check_rejects_an_order_truncated_one_step_early():
    x, y = matrix_pair(3)
    problems = workloads.check_matrix_bch(x, y, 4, matrices.bch(x, y, 3))
    assert any("graded series" in p for p in problems)


def test_matrix_check_rejects_a_result_outside_the_log2_ball():
    x, y = matrix_pair(4)
    z = matrices.bch(x, y, 8) * 5.0
    assert any("log 2" in p for p in workloads.check_matrix_bch(x, y, 8, z))


def series_pair(seed, order):
    work = workloads.BchProducts()
    f1, m1, f2, m2, _ = work.draw(rng(seed))["series"][0]
    g1 = dirichlet.DirichletSeries(f1, m1)
    g2 = dirichlet.DirichletSeries(f2, m2)
    return (f1, m1, f2, m2), g1, g2


def series_problems(raw, order, z, exps=None):
    probes = workloads.BchProducts.PROBES
    if exps is None:
        exps = [dirichlet.exp_pointwise(z, p) for p in probes]
    return workloads.check_series_bch(*raw, order, z.freqs, z.mats, probes, exps)


def test_series_check_accepts_the_program():
    raw, g1, g2 = series_pair(5, 6)
    assert series_problems(raw, 6, dirichlet.bch_series(g1, g2, 0.0, 6)) == []


def test_series_check_rejects_a_perturbed_coefficient():
    raw, g1, g2 = series_pair(6, 6)
    z = dirichlet.bch_series(g1, g2, 0.0, 6)
    mats = z.mats.copy()
    mats[-1] += 1e-9
    bad = dirichlet.DirichletSeries(z.freqs, mats)
    assert any("graded series" in p for p in series_problems(raw, 6, bad))


def test_series_check_rejects_an_order_truncated_one_step_early():
    raw, g1, g2 = series_pair(7, 4)
    early = dirichlet.bch_series(g1, g2, 0.0, 3)
    assert any("graded series" in p for p in series_problems(raw, 4, early))


def test_series_check_rejects_support_beyond_the_product_closure():
    raw, g1, g2 = series_pair(8, 4)
    z = dirichlet.bch_series(g1, g2, 0.0, 4)
    stray = dirichlet.DirichletSeries([17], np.full((1, 2, 2), 1e-30))
    assert any("not products" in p for p in series_problems(raw, 4, z + stray))


def test_series_check_rejects_a_wrong_pointwise_exponential():
    raw, g1, g2 = series_pair(9, 4)
    z = dirichlet.bch_series(g1, g2, 0.0, 4)
    exps = [dirichlet.exp_pointwise(z, p) for p in workloads.BchProducts.PROBES]
    exps[1] = exps[1] + 1e-9
    assert any("exp_pointwise" in p for p in series_problems(raw, 4, z, exps))


def test_series_check_rejects_a_broken_homomorphism():
    raw, g1, g2 = series_pair(10, 4)
    z = dirichlet.bch_series(g1, g2, 0.0, 4) * 1.01
    assert any("homomorphism" in p for p in series_problems(raw, 4, z))


# -- germ-calculus ---------------------------------------------------------


@pytest.fixture(scope="module")
def germ_task():
    work = workloads.GermCalculus()
    work.setup()
    inputs = work.draw(rng(11))
    return work, inputs, work.run(inputs)


def terms(g):
    return oracles.germ_terms(germs.germ_to_json(g))


def shifted(g, anchor, alpha, delta):
    """g with delta added to component 0 of the coefficient at alpha."""
    blocks = [b.copy() for b in g.coeffs]
    sp = lbcalc.series.space(g.dim, g.degree)
    blocks[anchor][0, sp.pack(alpha)] += delta
    return germs.Germ(g.anchors, g.index, blocks, g.degree)


def test_germ_check_accepts_the_program(germ_task):
    work, inputs, outputs = germ_task
    assert work.check(inputs, outputs) == []


def test_exact_reversion_rejects_a_perturbed_coefficient(germ_task):
    work, inputs, outputs = germ_task
    fam, got = inputs["families"][0], outputs["families"][0]
    assert fam["dim"] == 1
    g_t, h = terms(got["g"])[0], got["h"]
    top = abs(complex(h.coeffs[0][0, 2])) or 1.0
    bad = shifted(h, 0, (2,), 1e-9 * top)
    assert workloads.check_inverse_exact(g_t, terms(bad)[0], 8, fam["n"])
    assert workloads.check_inverse_exact(g_t, terms(h)[0], 8, fam["n"]) == []


def test_exact_reversion_rejects_an_inverse_truncated_one_step_early(germ_task):
    work, inputs, outputs = germ_task
    fam, got = inputs["families"][0], outputs["families"][0]
    h_t = [(a, v) for a, v in terms(got["h"])[0] if sum(a) < 8]
    assert workloads.check_inverse_exact(terms(got["g"])[0], h_t, 8, fam["n"])


def test_pointwise_inverse_check_rejects_a_perturbed_coefficient(germ_task):
    work, inputs, outputs = germ_task
    fam, got = inputs["families"][2], outputs["families"][2]
    assert fam["dim"] == 3
    g_t, h = terms(got["g"])[0], got["h"]
    assert workloads.check_composite(g_t, terms(h)[0], [], 8, fam["points"][0], "inverse") == []
    bad = shifted(h, 0, (1, 1, 0), 1e-6 * (12 * fam["n"]) ** 2)
    assert workloads.check_composite(g_t, terms(bad)[0], [], 8, fam["points"][0], "inverse")


def test_pointwise_compose_check_rejects_a_perturbed_result(germ_task):
    work, inputs, outputs = germ_task
    fam, got = inputs["families"][1], outputs["families"][1]
    outer, inner, _, _ = got["germs"]
    l = fam["l"]
    bad = shifted(got["compose"], 1, (0, 2), 1e-6 * l**2)
    args = (terms(outer)[1], terms(inner)[1])
    assert workloads.check_composite(*args, terms(got["compose"])[1], 8, fam["compose_points"][1], "c") == []
    assert workloads.check_composite(*args, terms(bad)[1], 8, fam["compose_points"][1], "c")


def test_derivative_check_rejects_a_perturbed_derivative(germ_task):
    work, inputs, outputs = germ_task
    got = outputs["families"][1]
    scale = max(1.0, max(float(np.abs(c).max()) for c in got["derivative"].coeffs))
    bad = shifted(got["derivative"], 0, (1, 0), 1e-4 * scale)
    assert workloads.check_derivative(*got["germs"], got["derivative"], work.FD_STEP) == []
    assert workloads.check_derivative(*got["germs"], bad, work.FD_STEP)


def test_probe_check_rejects_bounds_out_of_range(germ_task):
    work, inputs, outputs = germ_task
    h_t = terms(outputs["families"][0]["h"])[0]
    report = outputs["report"]
    assert workloads.check_probe(h_t, 8, report) == []
    high = dataclasses.replace(report, degrees=tuple(2.0 * b for b in report.degrees))
    low = dataclasses.replace(report, degrees=tuple(0.5 * b for b in report.degrees))
    assert any("above" in p for p in workloads.check_probe(h_t, 8, high))
    assert any("below" in p for p in workloads.check_probe(h_t, 8, low))


def test_inverse_sup_and_residual_checks_fire(germ_task):
    work, inputs, outputs = germ_task
    fam = inputs["families"][1]
    got = dict(outputs["families"][1])
    n = fam["n"]
    big = np.zeros_like(fam["g"])
    big[:, 0, 1] = 1.0           # x_1 adds 1/(12n) to the sup at index 12n
    big[:, 0, 2] = 2.0 * 12 * n  # x_1^2 adds 2/(12n): the sup is 1/(4n) > 1/(6n)
    got["h"] = germs.Germ(got["h"].anchors, 12 * n, list(big), 8)
    got["res"] = got["h"]
    problems = work.check_family(fam, got)
    assert any("inverse sup" in p for p in problems)
    assert any("residual" in p for p in problems)


# -- certificate-hammer ----------------------------------------------------


@pytest.fixture(scope="module")
def hammer_task():
    work = workloads.CertificateHammer()
    work.setup()
    inputs = work.draw(rng(12))
    return work, inputs, work.run(inputs)


def test_certificate_check_accepts_the_program(hammer_task):
    work, inputs, outputs = hammer_task
    assert work.check(inputs, outputs) == []


@pytest.mark.parametrize("kind", ["matrix", "dirichlet", "germ"])
def test_certificate_check_rejects_wrong_reports(hammer_task, kind):
    work, inputs, outputs = hammer_task
    k = next(i for i, m in enumerate(work.maps) if m[1] == kind)
    name, kind, _, _, scale, cert = work.maps[k]
    rep, rec = outputs["reports"][k], outputs["records"][k]
    args = (name, kind, scale, cert)
    norm = work._out_norm(kind)
    assert workloads.check_certificate(*args, rep, rec, work.SAMPLES, norm) == []
    moved = dict(rep, max_observed=rep["max_observed"] * (1 + 1e-9))
    assert any("max_observed" in p for p in workloads.check_certificate(*args, moved, rec, work.SAMPLES, norm))
    false = dict(rep, verdict=False)
    assert any("verdict" in p for p in workloads.check_certificate(*args, false, rec, work.SAMPLES, norm))
    j, x = rec.terms[0]
    grown = workloads._Recorder(None, scale)
    grown.terms = [(j, x * 1e6)] + rec.terms[1:]
    grown.outputs = rec.outputs
    assert any("outside delta" in p for p in workloads.check_certificate(*args, rep, grown, work.SAMPLES, norm))


# -- traced counts -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_match_the_inputs(name):
    work = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer()
    tracer.install(lbcalc)
    try:
        with tracer.bench_span("setup"):
            work.setup()
        at_setup = run.layer_totals(tracer)
        derived = collections.Counter()
        for i in range(2):
            with tracer.bench_span("task"):
                inputs = work.draw(rng(100 + i))
                outputs = work.run(inputs)
                with tracer.pause():
                    assert work.check(inputs, outputs) == []
                work.tally(inputs, outputs, derived)
        now = run.layer_totals(tracer)
    finally:
        tracer.uninstall()
    assert derived
    for key, want in derived.items():
        assert now[key] - at_setup[key] == want, key
    metrics = run.layer_metrics(at_setup, now, 2, at_setup)
    for key, want in derived.items():
        assert metrics[key]["value"] == want / 2, key
    assert metrics["bench.self_s"]["value"] > 0
    assert lbcalc.matrices.bch.__name__ == "bch" and not hasattr(lbcalc.matrices.bch, "__wrapped__")


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    zeros = dict.fromkeys([*run.COUNTS, *run.SELF_TIMES], 0)
    layer = run.layer_metrics(zeros, zeros, 1, zeros)
    assert {name: m["unit"] for name, m in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_layer_self_times_partition_the_traced_time():
    tracer = tracing.Tracer()
    tracer.install(lbcalc)
    try:
        work = workloads.GermCalculus()
        with tracer.bench_span("task"):
            work.setup()
            work.run(work.draw(rng(3)))
    finally:
        tracer.uninstall()
    root = tracer._span_end[0] - tracer._span_start[0]
    total = sum(tracer.layer_self_ns)
    assert abs(total - root) <= 1000  # the root's own bookkeeping, in ns


# -- refusal -----------------------------------------------------------------


def test_refuses_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bch-products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "refusing" in proc.stderr
