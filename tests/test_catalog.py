"""The built-in corpus of estimate families and the named map registry."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lbcalc import catalog
from lbcalc.errors import ConfigurationError
from lbcalc.estimates import verify_bounded_series
from lbcalc.limits import verify_certificate
from lbcalc.matrices import compatible_norm
from lbcalc.sampling import generator, random_matrix


def test_corpus_has_fifty_cases_in_the_advertised_split():
    corpus = catalog.estimate_corpus()
    assert len(corpus) == 50
    assert len({c.name for c in corpus}) == 50
    prefix = Counter(c.name.rsplit("-", 1)[0] for c in corpus)
    assert prefix == {
        "poly-majorant": 18,
        "poly-probed": 16,
        "germ": 8,
        "entire": 8,
    }


def test_corpus_families_are_well_formed():
    for case in catalog.estimate_corpus():
        assert len(case.family) >= 1
        radii = {s.radius for s in case.family}
        assert len(radii) == 1
        (radius,) = radii
        assert 0.0 < case.r < radius / (2.0 * np.e)
        assert all(s.sup_bound >= 0.0 for s in case.family)


def test_corpus_is_deterministic():
    first = catalog.estimate_corpus()
    second = catalog.estimate_corpus()
    assert [c.name for c in first] == [c.name for c in second]
    for a, b in zip(first, second):
        assert [s.sup_bound for s in a.family] == [s.sup_bound for s in b.family]


@pytest.mark.parametrize(
    "index, route",
    [(0, "majorants"), (18, "probed"), (19, "mixed"), (35, "majorants"), (42, "probed")],
)
def test_spot_corpus_cases_verify(index, route):
    case = catalog.estimate_corpus()[index]
    report = verify_bounded_series(list(case.family), case.r)
    assert report.verdict is True
    assert report.route == route


def test_stripping_majorants_keeps_the_evaluator():
    case = catalog.estimate_corpus()[0]
    sample = case.family[0]
    blind = catalog._strip_majorants(sample)
    assert blind.majorants is None
    point = sample.center + 0.01
    assert np.allclose(blind(point), sample(point))


def test_registry_has_twenty_maps_in_three_kinds():
    registry = catalog.map_registry()
    assert len(registry) == 20
    assert len({c.name for c in registry}) == 20
    kinds = Counter(c.kind for c in registry)
    assert kinds == {"matrix": 12, "dirichlet": 4, "germ": 4}


def test_get_map_roundtrip_and_unknown_name():
    case = catalog.get_map("matrix2-commutator")
    assert case.kind == "matrix"
    with pytest.raises(ConfigurationError, match="unknown map"):
        catalog.get_map("matrix2-frobnicate")


def test_matrix_square_sup_bound_is_a_theorem():
    # the registry claims sup ||x @ x|| <= R^2 / 2 on the compatible ball
    case = catalog.get_map("matrix2-square")
    f, out_norm, scale, cert = case.bundle()
    rng = generator(123)
    for _ in range(200):
        x = random_matrix(rng, 2, target=1.0)
        assert out_norm(f(x)) <= 0.5 * compatible_norm(x) ** 2 * (1.0 + 1e-12)
    assert cert.step_sups[0] >= 0.5


def test_certificates_reuse_the_case_parameters():
    case = catalog.get_map("matrix3-sandwich")
    cert = case.bundle()[3]
    assert cert.r == case.r
    assert cert.epsilon == case.epsilon
    assert len(cert) == 3


@pytest.mark.parametrize("name", ["matrix2-commutator", "dirichlet-ad", "germ-square"])
def test_bundle_runs_setup_once(name):
    case = catalog.get_map(name)
    calls = []

    def counted():
        calls.append(1)
        return case.setup()

    _, _, _, cert = replace(case, setup=counted).bundle()
    assert len(calls) == 1
    assert cert.to_json() == case.bundle()[3].to_json()


@pytest.mark.parametrize("name", ["matrix2-commutator", "dirichlet-ad", "germ-square"])
def test_bundles_verify_under_sampling(name):
    f, out_norm, scale, cert = catalog.get_map(name).bundle()
    report = verify_certificate(f, out_norm, cert, scale, samples=30, seed=1)
    assert report["verdict"] is True
    assert report["max_observed"] < cert.epsilon


# repr(max_observed) of every registry map at seed 2026 and 200 samples: the
# rng calls, the draws and every rounding of a sample fix these bits, so a
# change to any of them moves at least one value
HAMMER_2026 = {
    "matrix2-square": "1.4946678882239198e-08",
    "matrix2-cube": "1.004951587656392e-11",
    "matrix2-commutator": "4.0696193979447256e-05",
    "matrix2-comm-square": "7.756915575181576e-09",
    "matrix2-quad-mix": "3.066839903774118e-05",
    "matrix2-sandwich": "5.401084635103161e-05",
    "matrix3-square": "1.4526155144396152e-08",
    "matrix3-cube": "7.9573723890507e-12",
    "matrix3-commutator": "5.971675788798412e-05",
    "matrix3-comm-square": "5.219716876408818e-09",
    "matrix3-quad-mix": "2.4960061182766977e-05",
    "matrix3-sandwich": "3.8484319998195774e-05",
    "dirichlet-ad": "5.5112045975825574e-05",
    "dirichlet-ad-squared": "1.7564621909615176e-05",
    "dirichlet-ad-mix": "5.3678284534045424e-05",
    "dirichlet-shift-ad": "0.00012499457746951078",
    "germ-square": "1.4492794109104385e-09",
    "germ-cube": "5.2767749074744855e-14",
    "germ-affine": "3.420197188837713e-05",
    "germ-quad-mix": "1.5550208400463602e-05",
}


def test_the_hammer_keeps_its_bits():
    got = {}
    for case in catalog.map_registry():
        f, out_norm, scale, cert = case.bundle()
        report = verify_certificate(f, out_norm, cert, scale, samples=200, seed=2026)
        got[case.name] = repr(report["max_observed"])
    assert got == HAMMER_2026
