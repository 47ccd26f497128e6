"""Every verb's JSON input under one-node mutations, and the one number policy.

Each valid input below is mutated one node at a time: the node is replaced by
each of a fixed set of values.  Whatever the result, `cli.execute` returns 0,
1 or 3 and raises nothing, because a traceback exits 1, the code of a false
verdict.  NaN and Infinity are not JSON numbers, so any input holding them
exits 3, and so does a number or integer field that holds anything but a
JSON number: a string (numeric or not), a bool, null, a list or an object.
"""

import copy
import io
import json
import math

import numpy as np
import pytest

from lbcalc import cli
from lbcalc.dirichlet import DirichletSeries, series_to_json
from lbcalc.errors import ValidationError
from lbcalc.germs import AnchorSet, Germ, germ_to_json
from lbcalc.jsonio import pairs_to_json
from lbcalc.limits import certificate_from_json
from lbcalc.matrices import matrix_from_json, matrix_to_json

from test_cli import run, run_process

X = np.array([[0.0, 0.05], [0.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, 0.0], [0.05, 0.0]], dtype=np.complex128)

MUTANTS = [None, True, "abc", "1.5", [], {}, 0, -1, 1e308, 2**70, math.nan, math.inf]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _germ(index, terms, dim=1):
    return germ_to_json(Germ.from_terms(AnchorSet.origin(dim), index, [terms]))


_SERIES_1 = series_to_json(DirichletSeries([1], [X]))
_SERIES_2 = series_to_json(DirichletSeries([2], [Y]))
_FAMILY = {
    "family": [
        {"terms": [{"alpha": [1], "coeff": [[1.0, 0.0]]}], "radius": 1.0, "center": [0.0]}
    ]
}
_CERTIFICATE = {
    "R": 1.0, "r": 0.05, "epsilon": 2e-3, "step_sups": [1.0, 1.0],
    "a": [2e-3, 2e-3], "b": [0.5, 0.5], "delta": [1e-3, 1e-3],
}

# (verb and options, valid inputs): every verb that reads a file
CASES = {
    "bch-matrix": (["bch", "--order", "4"], [matrix_to_json(X), matrix_to_json(Y)]),
    "bch-series": (["bch", "--order", "3", "--s", "1.0"], [_SERIES_1, _SERIES_2]),
    "dirichlet-bracket": (["dirichlet-bracket"], [_SERIES_1, _SERIES_2]),
    "dirichlet-norm": (["dirichlet-norm", "--s", "2"],
                       [series_to_json(DirichletSeries([1, 4], [X, Y]))]),
    "dirichlet-eval": (["dirichlet-eval", "--z", "2+1j", "--re-probe", "3.0"],
                       [series_to_json(DirichletSeries([1, 3], [0.2 * np.eye(2), 0.1 * np.eye(2)]))]),
    "germ-compose": (["germ-compose"], [_germ(2, {(2,): [1.0]}), _germ(8, {(2,): [1.0]})]),
    "germ-invert": (["germ-invert"], [_germ(1, {(1, 1): [0.1, 0.0], (2, 0): [0.0, 0.1j]}, dim=2)]),
    "estimate-verify": (["estimate-verify", "--r", "0.1", "--degree", "3"], [_FAMILY]),
    "limit-certify": (["limit-certify", "--r", "0.1", "--R", "1", "--epsilon", "1"],
                      [{"step_sups": [10.0, 10.0]}]),
    "limit-verify": (["limit-verify", "--map", "matrix2-commutator", "--samples", "4"],
                     [_CERTIFICATE]),
    "modulus-dirichlet": (["modulus-dirichlet", "--s", "1", "--epsilon", "0.1", "--u", "10"],
                          [series_to_json(DirichletSeries([8], [1e-4 * np.eye(2)]))]),
    "modulus-germ": (["modulus-germ", "--n", "1", "--epsilon", "0.5", "--l", "6"],
                     [_germ(1, {(3,): [0.1]})]),
}


def _nodes(obj, path=()):
    """Every node of a JSON value as (path, value), the root first."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _execute(cmd) -> int:
    """Exit code of one parsed verb, run in this process; its report must be JSON."""
    buf = io.StringIO()
    code = cli.execute(cmd, out=buf)
    json.loads(buf.getvalue())
    return code


@pytest.mark.parametrize("case", list(CASES))
def test_one_node_mutations_exit_0_1_or_3(tmp_path, case):
    argv, inputs = CASES[case]
    paths = [str(tmp_path / f"input-{i}.json") for i in range(len(inputs))]
    for i, obj in enumerate(inputs):
        with open(paths[i], "w") as fh:
            json.dump(obj, fh)
    cmd = cli.parse(argv + paths)
    assert _execute(cmd) == 0
    escapes = []
    for i, obj in enumerate(inputs):
        for path, old in _nodes(obj):
            for value in MUTANTS:
                with open(paths[i], "w") as fh:
                    json.dump(_replaced(obj, path, value), fh)
                where = f"input {i} at {list(path)} := {json.dumps(value)}"
                try:
                    code = _execute(cmd)
                except Exception as exc:  # noqa: BLE001 - every escape is reported
                    escapes.append(f"{where}: {type(exc).__name__}: {exc}")
                    continue
                refused = (isinstance(value, float) and not math.isfinite(value)) or (
                    _number(old) and not _number(value)
                )
                if code not in (0, 1, 3) or (refused and code != 3):
                    escapes.append(f"{where}: exit {code}")
            with open(paths[i], "w") as fh:
                json.dump(obj, fh)
    assert not escapes, "\n".join(escapes[:20])


@pytest.mark.parametrize(
    "case, path, value",
    [
        ("limit-verify", ("epsilon",), math.inf),
        ("germ-invert", ("series", 0, "terms", 0, "coeff", 0, 0), "0.1"),
        ("dirichlet-eval", ("terms", 0, "coeff", "entries", 0, 0), 1e308),
    ],
    ids=["infinite-epsilon", "numeric-string", "mat-exp-overflow"],
)
def test_mutated_inputs_exit_3_in_a_fresh_interpreter(json_file, case, path, value):
    argv, (obj,) = CASES[case]
    code, out, err = run_process(argv + [json_file(_replaced(obj, path, value), "bad.json")])
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out)["verb"] == argv[0]


@pytest.mark.parametrize(
    "entries",
    [[["0.1", 0.0]], [[False, 0.0]], [[0.0, None]], [[1e400, 0.0]], [[10**400, 0.0]], [0.1]],
    ids=["numeric-string", "false", "null", "overflowing-float", "overflowing-int", "bare-number"],
)
def test_matrix_entries_must_be_pairs_of_numbers(entries):
    with pytest.raises(ValidationError, match="two numbers"):
        matrix_from_json({"dim": 1, "entries": entries})


def test_matrix_dimension_must_be_an_integer():
    with pytest.raises(ValidationError, match="matrix dimension"):
        matrix_from_json({"dim": True, "entries": [[1.0, 0.0]]})


@pytest.mark.parametrize("coeff", [[0.5], ["1+2j"], [[1, 2, 3]]], ids=["bare-number", "complex-string", "triple"])
def test_family_coefficients_must_be_pairs(json_file, coeff):
    family = {"family": [{"terms": [{"alpha": [1], "coeff": coeff}], "radius": 1.0}]}
    code, report = run(["estimate-verify", "--r", "0.1", json_file(family)])
    assert code == 3
    assert "family member 0 coefficient" in report["error"]


@pytest.mark.parametrize(
    "key, value",
    [("delta", [math.nan, 1e-3]), ("delta", [True, 1e-3]), ("a", [2e-3, "2e-3"]), ("r", True)],
    ids=["nan-delta", "true-delta", "string-a", "true-r"],
)
def test_certificates_refuse_non_numbers(key, value):
    with pytest.raises(ValidationError, match="list of numbers"):
        certificate_from_json({**_CERTIFICATE, key: value})


def test_certificates_refuse_deltas_whose_sum_reaches_r():
    with pytest.raises(ValidationError, match="sums of delta reach r"):
        certificate_from_json({**_CERTIFICATE, "delta": [0.03, 0.02]})
    assert certificate_from_json({**_CERTIFICATE, "delta": [0.03, 0.0199]}).delta == (0.03, 0.0199)


def test_pairs_writer_matches_the_per_entry_floats():
    z = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [1e-320 + 0j, complex(3.0, -0.0)]])
    expected = [[float(v.real), float(v.imag)] for v in z.ravel()]
    assert json.dumps(pairs_to_json(z)) == json.dumps(expected)
    assert json.dumps(pairs_to_json(z[0])) == json.dumps(expected[:2])


def test_a_sup_bound_that_overflows_exits_3(json_file):
    # radius^k used to raise OverflowError; mat_exp's case runs in a fresh interpreter above
    argv, (obj,) = CASES["estimate-verify"]
    code, report = run(argv + [json_file(_replaced(obj, ("family", 0, "radius"), 1e308))])
    assert code == 3
    assert "sup bound" in report["error"]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b'{"dim": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf8", "nested-too-deep", "int-too-long"],
)
def test_unreadable_inputs_exit_3(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, report = run(["germ-invert", str(path)])
    assert code == 3
    assert "not valid JSON" in report["error"]
    code, report = run(["germ-invert", str(tmp_path)])
    assert code == 3
    assert "cannot read" in report["error"]


def test_integers_stop_below_2_63(json_file):
    # an index of 10^400 used to overflow the float division 1/index
    argv, (obj,) = CASES["germ-invert"]
    code, report = run(argv + [json_file(_replaced(obj, ("index",), 10**400))])
    assert code == 3
    assert "below 2^63" in report["error"]


@pytest.mark.parametrize("verb", ["dirichlet-eval", "dirichlet-norm"])
@pytest.mark.parametrize("dim", [1001, 10**6, 2**40])
def test_an_empty_series_of_huge_dimension_exits_3(json_file, verb, dim):
    # the result used to be allocated at dim x dim: a memory error or numpy's size error
    option = ["--z", "1"] if verb == "dirichlet-eval" else ["--s", "0"]
    code, out, err = run_process([verb, *option, json_file({"dim": dim, "terms": []}, "empty.json")])
    assert code == 3
    assert "Traceback" not in err
    assert "too large" in json.loads(out)["error"]


def test_an_overflowing_exponential_is_named_in_a_fresh_interpreter(json_file):
    # the 1-norm 800 is below the 2^1021 gate, but e^800 is not a double
    obj = series_to_json(DirichletSeries.from_terms({1: [[800.0]]}))
    code, out, err = run_process(["dirichlet-eval", "--z", "0", json_file(obj, "big.json")])
    assert code == 3
    assert err == ""
    assert "overflows" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "case, path",
    [
        ("dirichlet-norm", ("terms", 1, "coeff", "entries", 1, 0)),
        ("dirichlet-eval", ("terms", 1, "coeff", "entries", 2, 1)),
        ("modulus-dirichlet", ("terms", 0, "coeff", "entries", 0, 0)),
        ("germ-compose", ("series", 0, "terms", 0, "coeff", 0, 0)),
    ],
)
def test_overflowing_coefficients_print_no_numpy_warning(json_file, case, path):
    # a coefficient of 1e308 overflows in a norm or a product; numpy used to
    # print a RuntimeWarning on stderr, the exit code came from the checks
    argv, inputs = CASES[case]
    files = [json_file(_replaced(inputs[0], path, 1e308), "big.json")]
    files += [json_file(obj) for obj in inputs[1:]]
    code, out, err = run_process(argv + files)
    assert code in (0, 1, 3)
    assert err == ""

