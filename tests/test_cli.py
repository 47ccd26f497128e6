"""The command-line surface: parsing, dispatch, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lbcalc import cli
from lbcalc.dirichlet import DirichletSeries, norm_s, series_from_json, series_to_json
from lbcalc.errors import UsageError
from lbcalc.germs import AnchorSet, Germ, germ_to_json
from lbcalc.matrices import bch, matrix_from_json, matrix_to_json

X = np.array([[0.0, 0.05], [0.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, 0.0], [0.05, 0.0]], dtype=np.complex128)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(argv):
    """Run the CLI in a fresh interpreter; return the exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lbcalc.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def run(argv_or_cmd):
    cmd = cli.parse(argv_or_cmd) if isinstance(argv_or_cmd, list) else argv_or_cmd
    buf = io.StringIO()
    code = cli.execute(cmd, out=buf)
    return code, json.loads(buf.getvalue())


# -- parsing -------------------------------------------------------------------


def test_parse_fills_the_command_fields():
    cmd = cli.parse(["bch", "--order", "8", "x.json", "y.json"])
    assert cmd.verb == "bch"
    assert cmd.options["order"] == 8
    assert cmd.inputs == ["x.json", "y.json"]
    assert cmd.seed == 0


def test_parse_defaults():
    cmd = cli.parse(["bch", "x.json", "y.json"])
    assert cmd.options == {"order": 10, "s": 0.0}
    verify = cli.parse(["estimate-verify", "--r", "0.05", "f.json"])
    assert verify.options["degree"] == 8
    assert verify.options["quadrature"] == 256
    assert verify.options["probe"] is False


def test_parse_seed_flag():
    assert cli.parse(["suite", "--seed", "42"]).seed == 42


@pytest.mark.parametrize(
    "argv",
    [
        ["bch", "--order", "zebra", "x.json", "y.json"],
        ["bch", "only-one.json"],
        ["frobnicate"],
        ["dirichlet-norm", "g.json"],
        [],
    ],
)
def test_parse_rejects_malformed_command_lines(argv):
    with pytest.raises(UsageError):
        cli.parse(argv)


def test_main_maps_usage_errors_to_exit_2(capsys):
    assert cli.main(["bch", "--order", "zebra", "x.json", "y.json"]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_seed_environment_fallback(monkeypatch):
    monkeypatch.setenv("LBCALC_SEED", "9")
    assert cli.parse(["suite"]).seed == 9
    # an explicit flag wins over the environment
    assert cli.parse(["suite", "--seed", "3"]).seed == 3
    monkeypatch.setenv("LBCALC_SEED", "zebra")
    with pytest.raises(UsageError, match="LBCALC_SEED must be an integer"):
        cli.parse(["suite"])


def test_seed_must_fit_in_64_bits():
    with pytest.raises(UsageError, match="64 bits"):
        cli.parse(["suite", "--seed", str(2**63)])


# -- the bch verb and its schema dispatch ---------------------------------------


def test_bch_on_matrix_inputs(json_file):
    xp = json_file(matrix_to_json(X), "x.json")
    yp = json_file(matrix_to_json(Y), "y.json")
    code, report = run(["bch", "--order", "10", xp, yp])
    assert code == 0
    out = matrix_from_json(report["result"])
    assert np.allclose(out, bch(X, Y, 10), atol=1e-15)
    assert report["inputs"]["compatible_norm"] == [0.1, 0.1]
    assert "guarantee" in report


def test_bch_dispatches_on_series_schema(json_file):
    g1 = DirichletSeries([1], [X])
    g2 = DirichletSeries([2], [Y])
    p1 = json_file(series_to_json(g1), "g1.json")
    p2 = json_file(series_to_json(g2), "g2.json")
    code, report = run(["bch", "--order", "6", "--s", "1.0", p1, p2])
    assert code == 0
    out = series_from_json(report["result"])
    # bracket frequencies multiply: 1 and 2 generate powers of 2
    assert set(out.terms()) == {1, 2, 4, 8}
    assert report["inputs"]["s"] == 1.0
    assert "summable" in report["guarantee"]


def test_bch_domain_violations_exit_3(json_file):
    big = json_file(matrix_to_json(5.0 * np.eye(2)), "big.json")
    code, report = run(["bch", big, big])
    assert code == 3
    assert set(report) == {"error", "verb"}
    assert report["verb"] == "bch"
    assert "log(3/2)" in report["error"]


def test_dirichlet_bracket_refuses_frequency_products_that_wrap_exit_3(json_file):
    p1 = json_file(series_to_json(DirichletSeries([3], [X])), "g1.json")
    p2 = json_file(series_to_json(DirichletSeries([2**62], [Y])), "g2.json")
    code, report = run(["dirichlet-bracket", p1, p2])
    assert code == 3
    assert set(report) == {"error", "verb"}
    assert "64-bit" in report["error"]
    huge = series_to_json(DirichletSeries([1], [X]))
    huge["terms"][0]["n"] = 2**63
    code, report = run(["dirichlet-bracket", json_file(huge, "huge.json"), p2])
    assert code == 3
    assert "below 2^63" in report["error"]


def test_missing_input_file_exits_3():
    code, report = run(["bch", "/nonexistent/x.json", "/nonexistent/y.json"])
    assert code == 3
    assert "not found" in report["error"]


def test_unreadable_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run(["bch", str(bad), str(bad)])
    assert code == 3
    assert "not valid JSON" in report["error"]


# -- per-verb reports ------------------------------------------------------------


def test_dirichlet_norm_report(json_file):
    gamma = DirichletSeries([1, 4], [X, Y])
    path = json_file(series_to_json(gamma), "gamma.json")
    code, report = run(["dirichlet-norm", "--s", "2", path])
    assert code == 0
    assert report["norm"] == pytest.approx(norm_s(gamma, 2.0), rel=1e-15)
    assert report["support"] == [1, 4]


def test_dirichlet_eval_with_leading_probe(json_file):
    gamma = DirichletSeries([1, 3], [0.2 * np.eye(2), 0.1 * np.eye(2)])
    path = json_file(series_to_json(gamma), "gamma.json")
    code, report = run(["dirichlet-eval", "--z", "2+1j", "--re-probe", "3.0", path])
    assert code == 0
    assert report["z"] == {"re": 2.0, "im": 1.0}
    value = matrix_from_json(report["value"])
    assert np.allclose(value, 0.2 * np.eye(2) + 0.1 * 3.0 ** -(2 + 1j) * np.eye(2))
    # the probe reports the partial sum at the abscissa plus a certified
    # tail radius around the true leading coefficient
    lead = matrix_from_json(report["leading"]["value"])
    assert np.allclose(lead, (0.2 + 0.1 / 27.0) * np.eye(2))
    assert report["leading"]["tail_bound"] > 0.0


def test_germ_compose_report(json_file):
    origin = AnchorSet.origin(1)
    outer = json_file(germ_to_json(Germ.from_terms(origin, 2, [{(2,): [1.0]}])), "o.json")
    inner = json_file(germ_to_json(Germ.from_terms(origin, 8, [{(2,): [1.0]}])), "i.json")
    code, report = run(["germ-compose", outer, inner])
    assert code == 0
    assert report["result"]["index"] == 8
    assert report["sup_norm"] > 0.0
    assert report["derivative_bound_1"] > 0.0


def test_germ_invert_report(json_file):
    origin = AnchorSet.origin(1)
    path = json_file(germ_to_json(Germ.from_terms(origin, 1, [{(2,): [0.1]}])), "g.json")
    code, report = run(["germ-invert", path])
    assert code == 0
    assert report["residual_max"] <= 1e-10
    assert report["sup_norm"] <= report["sup_ceiling"] == pytest.approx(1.0 / 6.0)
    assert report["result"]["index"] == 12


def test_germ_invert_gates_the_residual_by_its_majorant(json_file):
    # coefficient k of this germ is 0.05 / k * 32^(k - 1), so d_norm is 0.4 at
    # index 32; its residual's largest coefficient is 4.7e-10, above the old
    # absolute 1e-10, while its sup majorant at index 384 is 7.5e-22
    terms = {(k,): [0.05 / k * 32.0 ** (k - 1)] for k in range(1, 9)}
    path = json_file(germ_to_json(Germ.from_terms(AnchorSet.origin(1), 32, [terms])), "g.json")
    code, report = run(["germ-invert", path])
    assert code == 0
    assert report["residual_max"] > 1e-10
    assert report["result"]["index"] == 384
    assert report["sup_norm"] <= report["sup_ceiling"] == 1.0 / 192


@pytest.mark.parametrize("pair", [["abc", 0.0], [None, 0.0]], ids=["text", "null"])
def test_germ_invert_refuses_non_numeric_coefficients(json_file, pair):
    obj = germ_to_json(Germ.from_terms(AnchorSet.origin(1), 1, [{(2,): [0.1]}]))
    obj["series"][0]["terms"][0]["coeff"] = [pair]
    code, report = run(["germ-invert", json_file(obj, "g.json")])
    assert code == 3
    assert "two numbers" in report["error"]


def test_estimate_verify_routes(json_file):
    family = {
        "family": [
            {
                "terms": [{"alpha": [1], "coeff": [[1.0, 0.0]]}],
                "radius": 1.0,
                "center": [0.0],
            }
        ]
    }
    path = json_file(family, "family.json")
    code, report = run(["estimate-verify", "--r", "0.1", path])
    assert code == 0
    assert report["route"] == "majorants"
    assert report["lhs"] == pytest.approx(0.1, abs=1e-15)
    code, probed = run(["estimate-verify", "--r", "0.1", "--probe", path])
    assert code == 0
    assert probed["route"] == "probed"
    assert probed["verdict"] is True
    majorants = "degree sums at r stay within the overhead factor times the sup"
    assert report["guarantee"] == majorants
    assert probed["guarantee"] == (
        majorants + "; probed beta_k come from finitely many directions and can only undershoot"
    )


def test_estimate_verify_ignores_a_member_label(json_file):
    # a member's "label" is read by nothing, as any other extra key
    member = {"terms": [{"alpha": [1], "coeff": [[1.0, 0.0]]}], "radius": 1.0}
    code, report = run(["estimate-verify", "--r", "0.1", json_file({"family": [member]}, "family.json")])
    labelled = json_file({"family": [dict(member, label="geometric")]}, "labelled.json")
    assert run(["estimate-verify", "--r", "0.1", labelled]) == (code, report)
    assert code == 0


def test_estimate_verify_rejects_shapeless_input(json_file):
    path = json_file({"nope": []}, "bad.json")
    code, report = run(["estimate-verify", "--r", "0.1", path])
    assert code == 3
    assert "family" in report["error"]


_TERM = {"alpha": [1], "coeff": [[1.0, 0.0]]}


@pytest.mark.parametrize(
    "family",
    [
        {"family": [{"radius": 1.0}]},
        {"family": [{"terms": [_TERM]}]},
        {"family": [{"terms": [{"coeff": [[1.0, 0.0]]}], "radius": 1.0}]},
        {"family": [{"terms": [{"alpha": [1]}], "radius": 1.0}]},
        {"family": [{"terms": [{"alpha": [1], "coeff": ["abc"]}], "radius": 1.0}]},
        {"family": [{"terms": [{"alpha": [1], "coeff": [["1", None]]}], "radius": 1.0}]},
        {"family": [{"terms": [{"alpha": [1], "coeff": [[1.0]]}], "radius": 1.0}]},
        {"family": [{"terms": [{"alpha": ["x"], "coeff": [[1.0, 0.0]]}], "radius": 1.0}]},
        {"family": [{"terms": [_TERM], "radius": "wide"}]},
        {"family": [{"terms": [_TERM], "radius": 1.0, "center": ["here"]}]},
        {"family": [{"terms": [], "radius": 1.0}]},
        {"family": [[_TERM]]},
        {"family": ["member"]},
        {"family": 5},
    ],
    ids=[
        "no-terms", "no-radius", "no-alpha", "no-coeff", "text-coefficient",
        "non-numeric-pair", "short-pair", "text-alpha", "text-radius", "text-center",
        "empty-terms-no-center", "list-member", "string-member", "family-not-a-list",
    ],
)
def test_estimate_verify_refuses_malformed_families(json_file, family):
    path = json_file(family, "bad-family.json")
    code, report = run(["estimate-verify", "--r", "0.1", path])
    assert code == 3
    assert report["verb"] == "estimate-verify"
    assert "family" in report["error"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_limit_verify_refuses_degenerate_sample_counts(samples):
    code, report = run(["limit-verify", "--map", "matrix2-square", "--samples", samples])
    assert code == 3
    assert "samples must be a positive integer" in report["error"]


def test_limit_certify_emits_the_radii(json_file):
    path = json_file({"step_sups": [10.0]}, "sups.json")
    code, report = run(["limit-certify", "--r", "0.1", "--R", "1", "--epsilon", "1", path])
    assert code == 0
    assert report["a"] == [0.05]
    assert report["delta"][0] == pytest.approx(0.0025, rel=1e-12)
    code, report = run(["limit-certify", "--r", "0.3", "--R", "1", "--epsilon", "1", path])
    assert code == 3
    assert "R/(2e)" in report["error"]


def test_limit_certify_refuses_a_delta_that_underflows(json_file):
    path = json_file({"step_sups": [1e308, 1e308]}, "sups.json")
    code, report = run(["limit-certify", "--r", "0.05", "--R", "1", "--epsilon", "1e-320", path])
    assert code == 3
    assert "underflows to 0" in report["error"]


def test_limit_certify_refuses_more_than_1023_steps(json_file):
    path = json_file({"step_sups": [1.0] * 1100}, "sups.json")
    code, out, err = run_process(["limit-certify", "--r", "0.1", "--R", "1", "--epsilon", "1", path])
    assert code == 3
    assert "Traceback" not in err
    assert "at most 1023 are supported" in json.loads(out)["error"]


def test_limit_verify_refuses_an_inflated_delta(json_file):
    code, written = run(["limit-certify", "--r", "0.05", "--R", "1", "--epsilon", "0.01",
                         json_file({"step_sups": [1.0, 1.0]}, "sups.json")])
    assert code == 0
    del written["guarantee"]
    argv = ["limit-verify", "--map", "matrix2-commutator", "--samples", "20"]
    code, report = run(argv + [json_file(written, "cert.json")])
    assert code == 0
    assert report["certificate"] == written  # a certificate that limit-certify wrote loads unchanged
    written["delta"][1] *= 1.5
    code, report = run(argv + [json_file(written, "inflated.json")])
    assert code == 3
    assert "delta_2" in report["error"]


def _germ_input(edit):
    obj = germ_to_json(Germ.from_terms(AnchorSet.origin(1), 1, [{(2,): [0.1]}]))
    edit(obj)
    return obj


@pytest.mark.parametrize(
    "verb, obj",
    [
        ("limit-certify", {"step_sups": "abc"}),
        ("germ-invert", _germ_input(lambda g: g.update(series=5))),
        ("germ-invert", _germ_input(lambda g: g["series"][0]["terms"][0].pop("coeff"))),
    ],
    ids=["text-step-sups", "number-series", "term-without-coeff"],
)
def test_malformed_input_exits_3_without_a_traceback(json_file, verb, obj):
    path = json_file(obj, "bad.json")
    extra = ["--r", "0.1", "--R", "1", "--epsilon", "1"] if verb == "limit-certify" else []
    code, out, err = run_process([verb, *extra, path])
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out)["verb"] == verb


def _oversized_germ(dim, degree):
    zero = [[0.0, 0.0]] * dim
    return {
        "dim": dim, "index": 1, "degree": degree, "anchors": [zero],
        "series": [{"anchor": 0, "terms": [{"alpha": [1] + [0] * (dim - 1), "coeff": [[0.1, 0.0]] + zero[1:]}]}],
    }


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["germ-invert"], _oversized_germ(3, 40)),
        (["germ-invert"], _oversized_germ(30, 1)),
        (["estimate-verify", "--r", "0.1", "--degree", "5000"],
         {"family": [{"terms": [{"alpha": [1], "coeff": [[1.0, 0.0]]}], "radius": 1.0}]}),
    ],
    ids=["germ-dim3-degree40", "germ-dim30-degree1", "family-degree5000"],
)
def test_oversized_series_spaces_exit_3_without_a_traceback(json_file, argv, obj):
    code, out, err = run_process([*argv, json_file(obj, "big.json")])
    assert code == 3
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["verb"] == argv[0]
    assert "too large" in report["error"]


def test_limit_verify_with_the_builtin_certificate():
    code, report = run(["limit-verify", "--map", "matrix2-commutator", "--samples", "25"])
    assert code == 0
    assert report["verdict"] is True
    assert report["spot_membership"] is True
    assert report["map"] == "matrix2-commutator"
    assert set(report["certificate"]) == {"R", "r", "epsilon", "step_sups", "a", "b", "delta"}


def test_limit_verify_catches_a_corrupted_certificate(json_file):
    # a certificate with false step sups: 1e-4 is far below the map's, so the
    # derived radii (0.05, 0.025, 0.0125) admit both deltas below.  Epsilon
    # 2e-3 with delta 1e-3 leaves no slack, so inflating delta tenfold flips
    # the verdict instead of hiding in margin: only sampling sees the false sups
    tight = {
        "R": 1.0, "r": 0.1, "epsilon": 2e-3,
        "step_sups": [1e-4, 1e-4, 1e-4],
        "a": [0.05, 0.025, 0.0125], "b": [1.0] * 3, "delta": [1e-3] * 3,
    }
    good = json_file(tight, "tight.json")
    argv = ["limit-verify", "--map", "matrix2-commutator", "--samples", "200", "--seed", "0"]
    code, report = run(argv + [good])
    assert code == 0
    assert report["max_observed"] == 0.0006310662675010436
    tight["delta"] = [1e-2] * 3
    bad = json_file(tight, "loose.json")
    code, report = run(argv + [bad])
    assert code == 1
    assert report["max_observed"] == 0.006310662675010436
    assert report["verdict"] is False


def test_modulus_dirichlet_verb(json_file):
    code, report = run(["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "10"])
    assert code == 0
    assert report["cutoff"] == 40
    assert "check" not in report
    gamma = json_file(series_to_json(DirichletSeries([8], [1e-4 * np.eye(2)])), "g.json")
    code, report = run(
        ["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "10", gamma]
    )
    assert code == 0
    assert report["check"]["verdict"] is True
    fat = json_file(series_to_json(DirichletSeries([1], [3.0 * np.eye(2)])), "fat.json")
    code, report = run(
        ["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "10", fat]
    )
    assert code == 3
    assert "norm_s < 2" in report["error"]


def test_modulus_germ_verb(json_file):
    code, report = run(["modulus-germ", "--n", "1", "--epsilon", "0.5", "--l", "6"])
    assert code == 0
    assert report["cutoff"] == 2
    assert report["delta"] == 0.0006521253970855437
    origin = AnchorSet.origin(1)
    path = json_file(germ_to_json(Germ.from_terms(origin, 1, [{(3,): [0.1]}])), "g.json")
    code, report = run(["modulus-germ", "--n", "1", "--epsilon", "0.5", "--l", "6", path])
    assert code == 0
    assert report["check"]["verdict"] is True


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["modulus-dirichlet", "--s", "1", "--epsilon", "5e-324", "--u", "10"], "beyond the float range"),
        (["modulus-dirichlet", "--s", "1", "--epsilon", "1e-310", "--u", "10"], "beyond the float range"),
        (["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "400"], "delta = n0^(t-u) epsilon/2 underflows"),
        (["modulus-germ", "--n", "1", "--epsilon", "1e-300", "--l", "1000"], "delta = (1/D) (n/l)^k0 epsilon/2 underflows"),
    ],
    ids=["dirichlet-quarter-underflows", "dirichlet-cutoff-overflows", "dirichlet-delta-underflows",
         "germ-delta-underflows"],
)
def test_moduli_refuse_an_epsilon_the_float_range_cannot_carry(argv, quantity):
    # a traceback before (ZeroDivisionError, OverflowError), or a vacuous delta of 0.0
    code, report = run(argv)
    assert code == 3
    assert quantity in report["error"]


def test_the_germ_modulus_refuses_an_epsilon_whose_half_underflows():
    # epsilon/2 rounds to 0.0, below which the cutoff scan never ended; the
    # subprocess's timeout fails the test if it hangs
    code, out, err = run_process(["modulus-germ", "--n", "1", "--epsilon", "5e-324", "--l", "6"])
    assert code == 3 and err == ""
    assert "epsilon/2 underflows to 0" in json.loads(out)["error"]


def test_the_dirichlet_modulus_ends_for_a_tiny_epsilon():
    # a float start 1/(epsilon/4) lay far below the cutoff 4e200, and the
    # scan stepped up from it one integer at a time
    code, out, err = run_process(["modulus-dirichlet", "--s", "1", "--epsilon", "1e-200", "--u", "3"])
    assert code == 0 and err == ""
    assert 3.99e200 < json.loads(out)["cutoff"] < 4.01e200


# -- global contracts -------------------------------------------------------------


def test_reports_are_byte_identical_for_identical_invocations():
    argv = ["limit-verify", "--map", "matrix2-square", "--samples", "20", "--seed", "7"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert cli.execute(cli.parse(argv), out=buf) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0].endswith("\n")
    assert outs[0].count("\n") == 1


def test_main_runs_a_full_verb_without_files(capsys):
    assert cli.main(["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "10"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["cutoff"] == 40


def test_a_closed_output_exits_3_without_a_traceback(json_file):
    # the report of a 300 x 300 evaluation is far longer than a pipe's
    # buffer, and the reader closes the pipe after 100 bytes
    path = json_file({"dim": 300, "terms": []}, "empty.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lbcalc.cli", "dirichlet-eval", "--z", "0", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert head.startswith(b"{")
    assert "Traceback" not in err
    assert code == 3
    assert "closed" in err


def test_lbcalc_runs_on_numpy_alone(json_file):
    # a fresh interpreter in which importing scipy fails
    x, y = json_file(matrix_to_json(X)), json_file(matrix_to_json(Y))
    script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import lbcalc
from lbcalc import cli
from lbcalc.matrices import mat_exp, mat_log, one_norm
assert [k for k in sys.modules if k.startswith("scipy") and sys.modules[k] is not None] == []
z = np.array([[0.3, -0.5j], [0.2, 0.4 + 0.1j]])
g = np.eye(2) + z * (0.97 / one_norm(z))
assert one_norm(mat_exp(mat_log(g)) - g) <= 1e-13
sys.exit(cli.main(["bch", "--order", "6", {x!r}, {y!r}]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert np.allclose(matrix_from_json(json.loads(proc.stdout)["result"]), bch(X, Y, 6), rtol=0, atol=1e-15)
